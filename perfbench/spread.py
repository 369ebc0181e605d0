"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads train-vanilla gen-infer --seeds 1-10

For every workload and end-to-end metric it prints the median over the
runs, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json, with a
flag where the spread exceeds a third of the bound. Runs are sequential,
one process at a time; all results are also saved to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench-out" / "spread.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    saved = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in args.seeds:
            result, wall = run_once(spec["command"], workload, seed, args.seconds, 0)
            walls.append(wall)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = {"seeds": args.seeds, "wall_s": walls, "values": values}
        print(f"{workload}: {len(args.seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            flag = "  WIDE" if spread > bounds[name] / 3 else ""
            print(f"  {name:14s} {units[name]:4s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(saved, indent=1))


if __name__ == "__main__":
    main()
