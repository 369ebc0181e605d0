"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
The two training criteria share one desk-scale reaction-diffusion dataset
and one set of training runs (session fixtures below).
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.checkpoint import load_checkpoint, save_checkpoint
from odnet.data import RDParams, read_dataset, simulate_rd, write_dataset
from odnet.errors import DataError
from odnet.evaluation import evaluate_model
from odnet.networks import MLPConfig, init_mlp
from odnet.partition import (
    Patch,
    PatchSet,
    coverage_check,
    pou_weight_matrix,
    wendland_c2,
)
from odnet.pod import compute_pod, standardize_snapshots
from odnet.runconfig import build_model, generate_dataset, parse_config, split_indices
from odnet.training import mse_loss, train
from odnet.trunks import EnsembleModel, VanillaTrunk

pytestmark = pytest.mark.acceptance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def rd_dataset():
    cfg = parse_config((CONFIG_DIR / "rd2d-vanilla.ini").read_text())
    return generate_dataset(cfg.data), cfg


@pytest.fixture(scope="session")
def rd_runs(rd_dataset):
    """Three-seed training runs for the vanilla baseline and the POD-PoU
    ensemble, driven by the bundled configs."""
    ds, base_cfg = rd_dataset
    results = {}
    started = time.perf_counter()
    for label in ("rd2d-vanilla", "rd2d-pod-pou"):
        cfg = parse_config((CONFIG_DIR / f"{label}.ini").read_text())
        assert cfg.data == base_cfg.data, "bundled configs must share one dataset"
        train_idx, test_idx = split_indices(
            ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed
        )
        errors, epoch_seconds = [], []
        for seed in cfg.seeds:
            model = build_model(cfg, ds, train_idx, seed)
            run_cfg = dataclasses.replace(cfg.train, seed=seed)
            rep = train(model, ds.U[train_idx], ds.V[train_idx], ds.Y, run_cfg)
            ev = evaluate_model(model, ds.U[test_idx], ds.V[test_idx], ds.Y)
            errors.append(ev.mean_percent)
            epoch_seconds.append(rep.mean_epoch_seconds())
        results[label] = {
            "errors": errors,
            "mean_error": float(np.mean(errors)),
            "epoch_seconds": float(np.mean(epoch_seconds)),
        }
    results["wall_seconds"] = time.perf_counter() - started
    return results


# ---------------------------------------------------------------- criteria

def test_partition_of_unity_invariant():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for trial in range(10):
        d = 2 if trial % 2 == 0 else 3
        n_patches = int(rng.integers(2, 8))
        centers = rng.uniform(-1.0, 1.0, size=(n_patches, d))
        radii = rng.uniform(0.4, 1.6, size=n_patches)
        ps = PatchSet([Patch(c, r) for c, r in zip(centers, radii)])
        pts = rng.uniform(-1.3, 1.3, size=(300, d))
        uncovered = set(coverage_check(ps, pts))
        covered = np.array([i for i in range(300) if i not in uncovered])
        if covered.size == 0:
            continue
        w = pou_weight_matrix(ps, pts[covered])
        worst = max(worst, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        checked += covered.size
    elapsed = time.perf_counter() - start
    _report(
        "partition-of-unity invariant",
        checked >= 1000 and worst < 1e-12 and elapsed < 1.0,
        f"(points={checked}, worst |sum-1|={worst:.2e}, {elapsed:.2f}s)",
    )


def test_wendland_kernel_values_and_smoothness():
    start = time.perf_counter()
    exact = (
        wendland_c2(0.0) == 1.0
        and wendland_c2(1.0) == 0.0
        and wendland_c2(1.5) == 0.0
        and wendland_c2(2.7) == 0.0
    )
    h = 1e-4
    d1 = abs((wendland_c2(1 + h) - wendland_c2(1 - h)) / (2 * h))
    d2 = abs((wendland_c2(1 + h) - 2 * wendland_c2(1.0) + wendland_c2(1 - h)) / h**2)
    elapsed = time.perf_counter() - start
    _report(
        "wendland kernel exactness and C2 boundary",
        exact and d1 < 1e-6 and d2 < 1e-6 and elapsed < 1.0,
        f"(psi'(1)={d1:.2e}, psi''(1)={d2:.2e}, {elapsed:.2f}s)",
    )


def test_autodiff_gradient_check():
    rng = np.random.default_rng(99)
    activations = ("relu", "leaky_relu", "tanh")
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        depth = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 17)) for _ in range(depth))
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 4))
        act = activations[trial % 3]
        net = init_mlp(MLPConfig(d_in, hidden, d_out, act, activate_last=bool(trial % 2)),
                       seed=int(rng.integers(0, 2**31)))
        x = rng.uniform(-1.0, 1.0, size=(3, d_in))
        target = rng.uniform(-1.0, 1.0, size=(3, d_out))

        def loss_value():
            return float(mse_loss(net.forward(x), target).data)

        tape = ad.Tape()
        loss = mse_loss(net.forward(x, tape), target, tape)
        tape.backward(loss)
        h = 1e-6
        for p in net.parameters():
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(gflat[i]), 1e-3)
                worst = max(worst, abs(fd - gflat[i]) / scale)
    elapsed = time.perf_counter() - start
    _report(
        "autodiff matches central finite differences",
        worst < 1e-5 and elapsed < 30.0,
        f"(20 MLPs, worst rel err={worst:.2e}, {elapsed:.1f}s)",
    )


def test_pod_correctness():
    rng = np.random.default_rng(17)
    start = time.perf_counter()
    v = rng.normal(size=(10, 50))
    basis = compute_pod(v, 10)
    gram_err = float(np.max(np.abs(basis.modes.T @ basis.modes - np.eye(10))))
    descending = bool(np.all(np.diff(basis.eigenvalues) <= 1e-12))
    vs = standardize_snapshots(v)
    recon_err = float(np.linalg.norm((vs @ basis.modes) @ basis.modes.T - vs))
    elapsed = time.perf_counter() - start
    _report(
        "pod orthonormality, ordering, reconstruction",
        gram_err < 1e-10 and descending and recon_err < 1e-8 and elapsed < 1.0,
        f"(gram={gram_err:.2e}, recon={recon_err:.2e}, {elapsed:.2f}s)",
    )


def test_ensemble_of_one_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    trunk_mlp = init_mlp(MLPConfig(2, (16, 16), 8, "tanh", True), 5)
    branch = init_mlp(MLPConfig(12, (16,), 8, "tanh", False), 6)
    bias = ad.Tensor(np.array(0.11), requires_grad=True)
    model = EnsembleModel([VanillaTrunk(trunk_mlp)], branch, bias)
    u = rng.uniform(-1, 1, size=(9, 12))
    y = rng.uniform(-1, 1, size=(20, 2))
    ensemble_pred = model.predict(u, y).data
    standalone = branch.forward(u).data @ trunk_mlp.forward(y).data.T + 0.11
    diff = float(np.max(np.abs(ensemble_pred - standalone)))
    elapsed = time.perf_counter() - start
    _report(
        "ensemble-of-one equals standalone DeepONet",
        diff < 1e-14 and elapsed < 1.0,
        f"(max diff={diff:.2e}, {elapsed:.2f}s)",
    )


def test_pou_locality_of_perturbations():
    start = time.perf_counter()
    rng = np.random.default_rng(47)
    ps = PatchSet([Patch([-0.6, 0.0], 1.2), Patch([0.6, 0.0], 1.2)], delta=0.1)
    experts = [init_mlp(MLPConfig(2, (12, 12), 6, "tanh", True), k) for k in range(2)]
    from odnet.trunks import PoUTrunk

    trunk = PoUTrunk(ps, experts, 6)
    branch = init_mlp(MLPConfig(5, (12,), 6, "tanh", False), 9)
    model = EnsembleModel([trunk], branch, ad.Tensor(np.zeros(()), requires_grad=True))
    u = rng.uniform(-1, 1, size=(4, 5))
    y = rng.uniform(-1.5, 1.5, size=(300, 2))
    w = pou_weight_matrix(ps, y, strict=False)
    y = y[w.sum(axis=1) > 0]
    w = pou_weight_matrix(ps, y)
    before = model.predict(u, y).data.copy()
    experts[1].weights[-1].data += 0.05
    after = model.predict(u, y).data
    inactive = w[:, 1] == 0.0
    ok_zero = bool(np.array_equal(before[:, inactive], after[:, inactive]))
    ok_changed = bool(np.all(
        np.abs(before[:, ~inactive] - after[:, ~inactive]).max(axis=0) > 0.0
    ))
    elapsed = time.perf_counter() - start
    _report(
        "pou locality: perturbation confined to the expert's support",
        ok_zero and ok_changed and inactive.sum() > 0 and elapsed < 5.0,
        f"(untouched points={int(inactive.sum())}, {elapsed:.2f}s)",
    )


def test_antiderivative_end_to_end():
    start = time.perf_counter()
    cfg = parse_config((CONFIG_DIR / "antiderivative-vanilla.ini").read_text())
    assert cfg.members[0].hidden == (64, 64, 64)
    assert cfg.members[0].p == 32
    assert cfg.train.epochs == 2000
    assert cfg.train.optimizer == "adam" and cfg.train.lr0 == 1e-3
    ds = generate_dataset(cfg.data)
    train_idx, test_idx = split_indices(ds.n_samples, cfg.eval.test_count,
                                        cfg.eval.split_seed)
    assert len(train_idx) == 200 and len(test_idx) == 40
    model = build_model(cfg, ds, train_idx, seed=cfg.seeds[0])
    train(model, ds.U[train_idx], ds.V[train_idx], ds.Y, cfg.train)
    ev = evaluate_model(model, ds.U[test_idx], ds.V[test_idx], ds.Y)
    elapsed = time.perf_counter() - start
    _report(
        "antiderivative end-to-end smoke bound",
        ev.mean_percent < 5.0 and elapsed < 300.0,
        f"(mean rel l2={ev.mean_percent:.2f}%, {elapsed:.0f}s)",
    )


def test_rd_ensemble_error_ordering(rd_runs):
    vanilla = rd_runs["rd2d-vanilla"]
    podpou = rd_runs["rd2d-pod-pou"]
    ok = podpou["mean_error"] <= 0.9 * vanilla["mean_error"]
    _report(
        "2d reaction-diffusion ordering: POD-PoU <= 0.9 x vanilla",
        ok and rd_runs["wall_seconds"] < 2700.0,
        f"(POD-PoU={podpou['mean_error']:.3f}% vs vanilla={vanilla['mean_error']:.3f}%, "
        f"3 seeds, {rd_runs['wall_seconds']:.0f}s)",
    )


def test_training_cost_ordering(rd_runs):
    vanilla = rd_runs["rd2d-vanilla"]
    podpou = rd_runs["rd2d-pod-pou"]
    ok = podpou["epoch_seconds"] > vanilla["epoch_seconds"]
    _report(
        "per-epoch training cost: PoU-bearing ensemble exceeds vanilla",
        ok,
        f"({1e3 * podpou['epoch_seconds']:.1f}ms vs {1e3 * vanilla['epoch_seconds']:.1f}ms)",
    )


def test_file_format_roundtrips(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    from odnet.data import OperatorDataset

    ds = OperatorDataset(
        "fmt", rng.normal(size=(6, 1)), rng.normal(size=(9, 2)),
        rng.normal(size=(4, 6)), rng.normal(size=(4, 9)), {"k": "v"},
    )
    dpath = tmp_path / "ds.odn"
    write_dataset(ds, dpath)
    back = read_dataset(dpath)
    data_ok = all(
        a.tobytes() == b.tobytes()
        for a, b in ((ds.X, back.X), (ds.Y, back.Y), (ds.U, back.U), (ds.V, back.V))
    )

    cfg = parse_config((CONFIG_DIR / "antiderivative-vanilla.ini").read_text())
    anti = generate_dataset(cfg.data)
    train_idx, _ = split_indices(anti.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, anti, train_idx, seed=0)
    pred_before = model.predict(anti.U[:3], anti.Y).data
    mpath = tmp_path / "m.odm"
    save_checkpoint(model, cfg.text, mpath, seed=0)
    loaded, _, _ = load_checkpoint(mpath, anti)
    model_ok = pred_before.tobytes() == loaded.predict(anti.U[:3], anti.Y).data.tobytes()

    corrupt_ok = True
    for path in (dpath, mpath):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xA5
        bad = tmp_path / (path.name + ".bad")
        bad.write_bytes(bytes(blob))
        try:
            if path is dpath:
                read_dataset(bad)
            else:
                load_checkpoint(bad, anti)
            corrupt_ok = False
        except DataError:
            pass
    elapsed = time.perf_counter() - start
    _report(
        "ODN1/ODM1 round-trips bit-exact, corruption rejected",
        data_ok and model_ok and corrupt_ok and elapsed < 1.0,
        f"({elapsed:.2f}s)",
    )


def test_rd_solver_convergence_and_conservation():
    start = time.perf_counter()

    def restrict(f):
        n = f.shape[0]
        return f.reshape(n // 2, 2, n // 2, 2).mean(axis=(1, 3))

    sols = {n: simulate_rd(RDParams(n=n), 0.7) for n in (16, 32, 64)}
    e_coarse = float(np.sqrt(np.mean((sols[16] - restrict(sols[32])) ** 2)))
    e_fine = float(np.sqrt(np.mean((sols[32] - restrict(sols[64])) ** 2)))
    ratio = e_coarse / e_fine
    diffusion_only = RDParams(nu=0.1, k_on=0.0, k_off=0.0, n=32)
    c0 = 0.6
    drift = abs(float(simulate_rd(diffusion_only, c0).mean()) - c0)
    elapsed = time.perf_counter() - start
    _report(
        "rd solver second-order refinement and mass conservation",
        3.0 <= ratio <= 5.0 and drift < 1e-10 and elapsed < 60.0,
        f"(ratio={ratio:.2f}, mean drift={drift:.1e}, {elapsed:.1f}s)",
    )
