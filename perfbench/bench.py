"""Workloads, output checks and metrics of the odnet benchmark.

Every workload is a closed loop with one caller: each step starts when
the previous one has returned. A run repeats *rounds* until the measuring
time is used up (and at least ``min_rounds`` times). A round is one
set-up followed by a fixed amount of work:

* ``train-*``: set-up reads the ODN1 file written before timing starts,
  builds the model and creates the optimizer; the work is
  ``steps_per_round`` full-batch training epochs, then one evaluation on
  the held-out functions. A step is one epoch.
* ``gen-infer``: set-up generates the rd2d dataset, writes and reads it
  as ODN1, builds the model (which computes the POD) and saves and loads
  the ODM1 checkpoint; the work is ``steps_per_round`` forward-only
  ``evaluate_model`` calls on the held-out batch. A step is one call.

Every round repeats the same seeded work, so its outputs must repeat
bit for bit; the checks below count each operation and each failure.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import sys
import time
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import tracing

# The training length is part of the workload definition: the held-out
# error after this many epochs is deterministic per seed and thread count.
EPOCHS_PER_ROUND = 100
INFER_CALLS_PER_ROUND = 100

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The exact affine structure of the rd2d data is checked to this absolute
# error per unit of the largest output value (2e-15 is typical).
ORACLE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "gen-infer"
    config: str  # file under configs/
    steps_per_round: int
    min_rounds: int
    # Ceiling on the held-out relative l2 error (percent) after training;
    # None where the workload does not train.
    rel_l2_ceiling_pct: float | None

    @property
    def min_steps(self):
        return self.steps_per_round * self.min_rounds

    @property
    def tail_percentile(self):
        """The highest ladder percentile with at least ten samples beyond
        it at the smallest step count a run can make. Fixed per workload,
        so a faster build (more steps) reports the same percentile."""
        for p in TAIL_LADDER:
            if self.min_steps * (100.0 - p) / 100.0 >= 10.0:
                return p
        raise ValueError(f"{self.name}: fewer than 20 steps per run")


# Ceilings sit well above the held-out errors measured after 100 epochs
# (vanilla: 10.4-19.2% over 20 seeds, ensemble: 7.8-10.7% over 12) and far
# below an untrained model (about 100%), so only broken numerics trip them.
WORKLOADS = {
    w.name: w for w in (
        Workload("train-vanilla", "train", "rd2d-vanilla.ini",
                 EPOCHS_PER_ROUND, 3, 30.0),
        Workload("train-ensemble", "train", "rd2d-vanilla-pod-pou.ini",
                 EPOCHS_PER_ROUND, 3, 20.0),
        Workload("gen-infer", "gen-infer", "rd2d-vanilla-pod-pou.ini",
                 INFER_CALLS_PER_ROUND, 2, None),
    )
}


class Ledger:
    """Attempted and failed operations: epochs, inference calls, generated
    samples, file round trips and output checks."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.failures = []

    def add(self, kind, attempted, failed=0, detail=""):
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        if failed:
            self.failed[kind] = self.failed.get(kind, 0) + failed
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {detail}")

    def check(self, name, ok, detail=""):
        self.add(f"check.{name}", 1, 0 if ok else 1, detail)
        return ok

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())


@dataclasses.dataclass
class Samples:
    """What one phase of a run measured."""

    setup_s: list = dataclasses.field(default_factory=list)
    step_ms: list = dataclasses.field(default_factory=list)
    # Function values trained on (train-*) or generated (gen-infer), and
    # the wall time that work took, summed over rounds.
    points: float = 0.0
    points_s: float = 0.0
    rel_l2_pct: list = dataclasses.field(default_factory=list)


class Runner:
    """Runs one workload for one seed inside a scratch directory."""

    def __init__(self, odnet, workload: Workload, seed: int, config_path, workdir):
        self.odnet = odnet
        self.w = workload
        self.seed = int(seed)
        self.cfg = odnet.runconfig.parse_config(Path(config_path).read_text())
        self.data_spec = dataclasses.replace(self.cfg.data, seed=self.seed)
        self.odn_path = os.path.join(workdir, "data.odn")
        self.odm_path = os.path.join(workdir, "model.odm")
        self.ledger = Ledger()
        self.tracer = None
        # First-round outputs that later rounds must repeat exactly.
        self.ref = {}

    def region(self, name):
        return self.tracer.region(name) if self.tracer else nullcontext()

    # -- checks ------------------------------------------------------------

    def check_rd2d_oracle(self, ds):
        """V_i = A + c0_i B holds exactly: the explicit scheme is affine in
        the constant initial state c0 and the forcing does not depend on it."""
        c0 = ds.U[:, 0]
        lo, hi = int(np.argmin(c0)), int(np.argmax(c0))
        b = (ds.V[hi] - ds.V[lo]) / (c0[hi] - c0[lo])
        a = ds.V[lo] - c0[lo] * b
        err = np.abs(ds.V - (a[None, :] + c0[:, None] * b[None, :])).max(axis=1)
        tol = ORACLE_TOL * max(1.0, float(np.abs(ds.V).max()))
        constant_u = np.all(ds.U == c0[:, None], axis=1)
        bad = int(np.count_nonzero((err > tol) | ~constant_u))
        self.ledger.add("generated_samples", ds.n_samples, bad,
                        f"{bad} samples off the affine oracle (max error {err.max():.3g})")

    def check_odn1_roundtrip(self, ds, back):
        same = all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((ds.X, back.X), (ds.Y, back.Y), (ds.U, back.U), (ds.V, back.V))
        ) and ds.name == back.name
        self.ledger.add("odn1_roundtrips", 1, 0 if same else 1, "ODN1 read differs from write")

    def check_odm1_roundtrip(self, model, loaded, u, y):
        before = model.predict(u, y).data
        after = loaded.predict(u, y).data
        same = before.tobytes() == after.tobytes()
        self.ledger.add("odm1_roundtrips", 1, 0 if same else 1,
                        "predictions after ODM1 save and load differ")

    def check_repeat(self, key, value, what):
        """The first round's value is the reference for later rounds."""
        if key not in self.ref:
            self.ref[key] = value
            return True
        return self.ledger.check(key, self.ref[key] == value, f"{what} differs between rounds")

    # -- workloads ---------------------------------------------------------

    def prepare(self):
        """Untimed: the train workloads read a pre-generated ODN1 file."""
        if self.w.kind != "train":
            return
        ds = self.odnet.runconfig.generate_dataset(self.data_spec)
        self.check_rd2d_oracle(ds)
        self.odnet.data.write_dataset(ds, self.odn_path)
        self.check_odn1_roundtrip(ds, self.odnet.data.read_dataset(self.odn_path))

    def split(self, ds):
        ev = self.cfg.eval
        return self.odnet.runconfig.split_indices(ds.n_samples, ev.test_count, ev.split_seed)

    def round(self, samples: Samples, steps: int):
        if self.w.kind == "train":
            self._train_round(samples, steps)
        else:
            self._gen_infer_round(samples, steps)

    def _train_round(self, samples, epochs):
        od = self.odnet
        tcfg = dataclasses.replace(self.cfg.train, epochs=epochs, seed=self.seed)
        with self.region(tracing.SETUP_ROOT):
            start = time.perf_counter()
            ds = od.data.read_dataset(self.odn_path)
            train_idx, test_idx = self.split(ds)
            model = od.runconfig.build_model(self.cfg, ds, train_idx, self.seed)
            od.training.make_optimizer(model, tcfg)
            samples.setup_s.append(time.perf_counter() - start)
        with self.region(tracing.CHECK_ROOT):
            self.check_repeat("setup_parameter_hash", model.parameter_hash(),
                              "parameter hash after set-up")
        u, v, y = ds.U[train_idx], ds.V[train_idx], ds.Y
        start = time.perf_counter()
        try:
            report = od.training.train(model, u, v, y, tcfg)
        except od.errors.NumericError as exc:
            done = len(exc.report.losses)
            self.ledger.add("epochs", epochs, epochs - done, str(exc))
            return
        elapsed = time.perf_counter() - start
        finite = bool(np.all(np.isfinite(report.losses)))
        self.ledger.add("epochs", epochs, 0 if finite else epochs, "non-finite loss")
        samples.step_ms.extend(1e3 * s for s in report.epoch_seconds)
        samples.points += len(train_idx) * ds.n_y * epochs
        samples.points_s += elapsed

        ev = od.evaluation.evaluate_model(model, ds.U[test_idx], ds.V[test_idx], y)
        self.ledger.add("inference_calls", 1)
        rel = ev.mean_percent
        samples.rel_l2_pct.append(rel)
        with self.region(tracing.CHECK_ROOT):
            if epochs == self.w.steps_per_round:  # the ceiling holds at this length
                self.ledger.check("rel_l2_ceiling", rel <= self.w.rel_l2_ceiling_pct,
                                  f"held-out error {rel:.4g}% above {self.w.rel_l2_ceiling_pct}%")
            self.check_repeat(f"trained_parameter_hash.{epochs}", model.parameter_hash(),
                              "parameter hash after training")
            if "odm1" not in self.ref:
                self.ref["odm1"] = True
                od.checkpoint.save_checkpoint(model, self.cfg.text, self.odm_path, self.seed)
                loaded, _, _ = od.checkpoint.load_checkpoint(self.odm_path, ds)
                self.check_odm1_roundtrip(model, loaded, ds.U[test_idx], y)

    def _gen_infer_round(self, samples, calls):
        od = self.odnet
        with self.region(tracing.SETUP_ROOT):
            start = time.perf_counter()
            ds = od.runconfig.generate_dataset(self.data_spec)
            gen_s = time.perf_counter() - start
            od.data.write_dataset(ds, self.odn_path)
            back = od.data.read_dataset(self.odn_path)
            train_idx, test_idx = self.split(back)
            model = od.runconfig.build_model(self.cfg, back, train_idx, self.seed)
            od.checkpoint.save_checkpoint(model, self.cfg.text, self.odm_path, self.seed)
            served, _, _ = od.checkpoint.load_checkpoint(self.odm_path, back)
            samples.setup_s.append(time.perf_counter() - start)
        samples.points += ds.n_samples * ds.n_y
        samples.points_s += gen_s
        u, v, y = back.U[test_idx], back.V[test_idx], back.Y
        with self.region(tracing.CHECK_ROOT):
            self.check_rd2d_oracle(ds)
            self.check_odn1_roundtrip(ds, back)
            self.check_repeat("dataset_crc", zlib.crc32(ds.V.tobytes()), "generated data")
            self.check_repeat("setup_parameter_hash", model.parameter_hash(),
                              "parameter hash after set-up")
            self.check_odm1_roundtrip(model, served, u, y)

        evaluate = od.evaluation.evaluate_model
        for _ in range(calls):
            start = time.perf_counter()
            ev = evaluate(served, u, v, y)
            samples.step_ms.append(1e3 * (time.perf_counter() - start))
            errs = ev.per_function.tobytes()
            ok = self.ref.setdefault("inference", errs) == errs
            self.ledger.add("inference_calls", 1, 0 if ok else 1,
                            "inference output differs from the first call")
        samples.rel_l2_pct.append(ev.mean_percent)

    def phase(self, seconds, min_rounds):
        """Rounds until ``seconds`` have passed and ``min_rounds`` are done."""
        samples = Samples()
        start = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            self.round(samples, self.w.steps_per_round)
            rounds += 1
        return samples

    def warm_up(self):
        """One short round so lazy allocation and caches settle first."""
        self.round(Samples(), 3)


# -- metrics -----------------------------------------------------------------


def percentile(values, q):
    """Percentile, or 0.0 when failed operations left no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(samples: Samples, workload: Workload):
    return {
        "setup_s": (percentile(samples.setup_s, 50.0), "s"),
        "step_ms.p50": (percentile(samples.step_ms, 50.0), "ms"),
        "step_ms.tail": (percentile(samples.step_ms, workload.tail_percentile), "ms"),
        "points_per_s": (samples.points / samples.points_s if samples.points_s else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Op kinds the tape records today; each gets a backward time and a count.
OPS = (
    "matmul", "add_bias", "relu", "sub", "mul", "mean_all", "transpose",
    "concat_columns", "scale_rows", "embed_rows", "add", "add_scalar", "add_row_const",
)


def per_layer(tracer, untraced: Samples, traced: Samples, workload: Workload):
    """Per-layer metrics from the spans of the traced phase.

    Step metrics are medians over steps (epochs or inference calls);
    set-up metrics are medians over the set-ups that did that work.
    """
    T = tracing
    idx = T.TraceIndex(tracer.spans, tracer.trace_roots)
    step_root = T.STEP_ROOT if workload.kind == "train" else T.EVAL_ROOT
    steps = idx.rooted_at(step_root)
    evals = idx.rooted_at(T.EVAL_ROOT)
    setups = idx.rooted_at(T.SETUP_ROOT)

    def per_step(fn):
        return T.median_over(steps, fn)

    def where(name, fn):
        return T.median_over([sp for sp in setups if T.n_spans(sp, name)], fn)

    pou = "trunks.PoUTrunk.forward"
    predict = "trunks.EnsembleModel.predict"
    m = {}
    m["autodiff.backward_ms"] = (per_step(lambda sp: T.total_ms(sp, "autodiff.Tape.backward")), "ms")
    for op in OPS:
        m[f"autodiff.bwd.{op}_ms"] = (per_step(lambda sp, op=op: T.total_ms(sp, f"autodiff.bwd.{op}")), "ms")
    m["autodiff.tape_records"] = (per_step(lambda sp: T.count_sum(sp, "records", "autodiff.Tape.backward")), "count")
    for op in OPS:
        m[f"autodiff.op_count.{op}"] = (per_step(lambda sp, op=op: T.n_spans(sp, f"autodiff.{op}")), "count")
    m["autodiff.matmul_flops"] = (per_step(lambda sp: T.count_sum(sp, "flops", "autodiff.matmul")
                                           + T.count_sum(sp, "flops", "autodiff.bwd.matmul")), "flop")
    m["autodiff.op_bytes"] = (per_step(lambda sp: T.count_sum(sp, "bytes", prefix="autodiff.")), "B")
    m["networks.branch_fwd_ms"] = (per_step(lambda sp: T.total_ms(sp, "networks.MLP.forward", predict, idx)), "ms")
    m["trunks.vanilla.fwd_ms"] = (per_step(lambda sp: T.total_ms(sp, "trunks.VanillaTrunk.forward")), "ms")
    m["trunks.pou.fwd_ms"] = (per_step(lambda sp: T.total_ms(sp, pou)), "ms")
    m["trunks.pou.experts_ms"] = (per_step(lambda sp: T.total_ms(sp, "networks.MLP.forward", pou, idx)), "ms")
    m["trunks.pou.blend_ms"] = (per_step(lambda sp: T.total_ms(sp, None, pou, idx, prefix="autodiff.")), "ms")
    m["trunks.pou.point_evals"] = (per_step(lambda sp: T.count_sum(sp, "rows", "networks.MLP.forward", pou, idx)), "count")

    def embed_fill(sp):
        dense = T.count_sum(sp, "dense_rows", "autodiff.embed_rows", pou, idx)
        return T.count_sum(sp, "useful_rows", "autodiff.embed_rows", pou, idx) / dense if dense else 0.0

    m["trunks.pou.embed_fill"] = (per_step(embed_fill), "ratio")
    m["trunks.pod.fwd_ms"] = (per_step(lambda sp: T.total_ms(sp, "trunks.PODTrunk.forward")), "ms")
    m["trunks.concat_ms"] = (per_step(lambda sp: T.total_ms(sp, "autodiff.concat_columns",
                                                           "trunks.EnsembleModel.trunk_forward", idx)), "ms")
    m["trunks.product_ms"] = (per_step(lambda sp: T.total_ms(sp, None, predict, idx, prefix="autodiff.")), "ms")
    m["partition.weights_ms"] = (per_step(lambda sp: T.total_ms(sp, "partition.pou_weight_matrix")), "ms")
    m["partition.weights_calls_per_epoch"] = (per_step(lambda sp: T.n_spans(sp, "partition.pou_weight_matrix")), "count")
    m["pod.compute_ms"] = (where("pod.compute_pod", lambda sp: T.total_ms(sp, "pod.compute_pod")), "ms")
    m["training.loss_ms"] = (per_step(lambda sp: T.total_ms(sp, "training.mse_loss")), "ms")
    m["training.optim_ms"] = (per_step(lambda sp: T.total_ms(sp, "training.Adam.step")), "ms")
    m["training.step_ms"] = (per_step(lambda sp: T.total_ms(sp, T.STEP_ROOT)), "ms")

    def attributed(sp):
        root = next((s for s in sp if s[0] == T.STEP_ROOT), None)
        if root is None:
            return 0.0
        return idx.children_time.get(root[3], 0.0) / (root[2] - root[1])

    m["training.step_attributed_frac"] = (per_step(attributed), "ratio")
    gen = "data.gen_reaction_diffusion_2d"

    def gen_per_sample(sp):
        return T.total_ms(sp, gen) / max(1, T.count_sum(sp, "samples", gen))

    m["data.gen_ms_per_sample"] = (where(gen, gen_per_sample), "ms")
    m["data.simulate_calls"] = (where(gen, lambda sp: T.n_spans(sp, "data.simulate_rd")), "count")
    m["data.write_ms"] = (where("data.write_dataset", lambda sp: T.total_ms(sp, "data.write_dataset")), "ms")
    m["data.read_ms"] = (where("data.read_dataset", lambda sp: T.total_ms(sp, "data.read_dataset")), "ms")
    m["data.bytes"] = (where("data.read_dataset", lambda sp: T.count_sum(sp, "bytes", "data.read_dataset")), "B")
    save, load = "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"
    m["checkpoint.save_ms"] = (where(save, lambda sp: T.total_ms(sp, save)), "ms")
    m["checkpoint.load_ms"] = (where(load, lambda sp: T.total_ms(sp, load)), "ms")
    m["checkpoint.bytes"] = (where(save, lambda sp: T.count_sum(sp, "bytes", save)), "B")
    m["evaluation.predict_ms"] = (T.median_over(evals, lambda sp: T.total_ms(sp, predict, T.EVAL_ROOT, idx)), "ms")
    m["evaluation.metrics_ms"] = (T.median_over(evals, lambda sp: T.total_ms(
        sp, "evaluation.per_function_relative_l2", T.EVAL_ROOT, idx)
        + T.total_ms(sp, "evaluation.spatial_mse", T.EVAL_ROOT, idx)), "ms")
    m["evaluation.test_rel_l2_pct"] = (percentile(traced.rel_l2_pct, 50.0), "%")
    m["runconfig.build_model_ms"] = (where("runconfig.build_model", lambda sp: T.total_ms(sp, "runconfig.build_model")), "ms")
    for layer in T.LAYERS:
        m[f"self.{layer}_ms"] = (per_step(lambda sp, layer=layer: 1e3 * sum(
            idx.self_time(s) for s in sp if s[0].split(".", 1)[0] == layer)), "ms")
    m["trace.overhead_ms"] = (percentile(traced.step_ms, 50.0) - percentile(untraced.step_ms, 50.0), "ms")
    m["trace.spans_per_step"] = (per_step(len), "count")
    return m


def environment(workload: Workload, seed: int, seconds: float, blas_threads: int):
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "workload": {
            "name": workload.name,
            "config": f"configs/{workload.config}",
            "steps_per_round": workload.steps_per_round,
            "step": "training epoch" if workload.kind == "train" else "evaluate_model call",
            "min_rounds": workload.min_rounds,
            "seconds": seconds,
            "tail_percentile": workload.tail_percentile,
        },
        "argv": sys.argv[1:],
    }
