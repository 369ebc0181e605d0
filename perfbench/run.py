"""The odnet benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-vanilla --seed 1 --seconds 20 --trace 0

Workloads: train-vanilla, train-ensemble, gen-infer (see bench.py and
BENCHMARK.json for what each runs and why). ``--trace 0`` reports the
end-to-end metrics with no wrapper installed; ``--trace 1`` first measures
half the time untraced, then wraps the odnet modules (tracing.py) for the
other half and reports the per-layer metrics and the tracing overhead.

The program is imported from ``src/`` of the same checkout. The last
line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it is a report with the environment, the check counts and the
tail percentile. Both, and the spans of a traced run, are also written
under ``.perfbench-out/``.

Exit codes: 0 all checks passed; 1 an output check or operation failed
(the result is printed with "correct": false); 2 the checkout is
incomplete (no result is printed).
"""

import os
import sys

# The BLAS thread count is part of the workload definition: it changes
# floating-point results of the ensemble config, and one thread keeps the
# timings clear of the second core's other load. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"


def incomplete(message):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def load_odnet():
    """Import odnet from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "odnet" / "__init__.py").is_file():
        incomplete(f"no odnet sources under {src}")
    sys.path.insert(0, str(src))
    odnet = importlib.import_module("odnet")
    if Path(odnet.__file__).resolve().parent != (src / "odnet").resolve():
        incomplete(f"imported odnet from {odnet.__file__}, not {src}")
    for name in ("errors", "autodiff", "data", "runconfig", "training",
                 "evaluation", "checkpoint"):
        importlib.import_module(f"odnet.{name}")
    return odnet


def main(argv=None):
    import bench
    import tracing

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = bench.WORKLOADS[args.workload]
    config_path = ROOT / "configs" / workload.config
    if not config_path.is_file():
        incomplete(f"missing config {config_path}")
    odnet = load_odnet()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        runner = bench.Runner(odnet, workload, args.seed, config_path, workdir)
        runner.prepare()
        runner.warm_up()
        if args.trace:
            untraced = runner.phase(args.seconds / 2, 1)
            runner.tracer = tracing.Tracer()
            runner.tracer.install(odnet)
            try:
                traced = runner.phase(args.seconds / 2, 1)
            finally:
                runner.tracer.uninstall()
            metrics = bench.per_layer(runner.tracer, untraced, traced, workload)
            runner.tracer.write(OUT_DIR / f"trace-{tag}.json.gz")
        else:
            samples = runner.phase(args.seconds, workload.min_rounds)
            metrics = bench.end_to_end(samples, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = runner.ledger
    attempted, failed = ledger.total_attempted, ledger.total_failed
    report = {
        "environment": bench.environment(workload, args.seed, args.seconds, BLAS_THREADS),
        "attempted_by_kind": ledger.attempted,
        "failed_by_kind": ledger.failed,
        "failures": ledger.failures,
        "failed_frac": failed / attempted,
    }
    if args.trace:
        report["computed"] = [n for n, (_, unit) in metrics.items()
                              if unit in ("count", "flop", "B") or n == "trunks.pou.embed_fill"]
    else:
        report["step_samples"] = len(samples.step_ms)
        report["setup_samples"] = len(samples.setup_s)
        report["tail"] = f"step_ms.tail is p{workload.tail_percentile:g} of {len(samples.step_ms)} steps"
        report["test_rel_l2_pct"] = bench.percentile(samples.rel_l2_pct, 50.0)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
