import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odnet
from odnet import autodiff as ad
from odnet.errors import NumericError, ShapeError
from odnet.networks import MLPConfig, init_mlp
from odnet.partition import PatchSet, pou_weight_matrix
from odnet.pod import compute_pod
from odnet.training import (
    Adam,
    TrainConfig,
    inverse_time_lr,
    make_optimizer,
    mse_loss,
    train,
)
from odnet.trunks import EnsembleModel, PODTrunk, PoUTrunk, VanillaTrunk


# --- mse ---

def test_mse_trivials():
    a = ad.Tensor(np.ones((3, 4)))
    assert float(mse_loss(a, np.ones((3, 4))).data) == 0.0
    b = ad.Tensor(np.full((2, 5), 3.0))
    assert float(mse_loss(b, np.ones((2, 5))).data) == 4.0


def test_mse_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(4, 6))
    t = rng.normal(size=(4, 6))
    total = 0.0
    for i in range(4):
        for j in range(6):
            total += (p[i, j] - t[i, j]) ** 2
    expected = total / 24.0
    assert abs(float(mse_loss(ad.Tensor(p), t).data) - expected) < 1e-14


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(ad.Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


# --- optimizers ---

def test_adam_zero_grad_leaves_params():
    w = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    w.grad = np.zeros(2)
    opt = Adam([w])
    opt.step(0.1)
    np.testing.assert_array_equal(w.data, [1.0, -2.0])


def test_adam_single_step_hand_value():
    # w=0, g=1, t=1: bias correction gives m_hat=1, v_hat=1,
    # so w <- -lr/(1+eps)
    w = ad.Tensor(np.array(0.0), requires_grad=True)
    w.grad = np.array(1.0)
    opt = Adam([w])
    opt.step(0.1)
    assert float(w.data) == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-15)


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(5)
        w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        opt = Adam([w])
        for step in range(20):
            w.grad = np.sin(w.data + step)
            opt.step(0.01)
        return w.data.copy()

    assert run().tobytes() == run().tobytes()


def test_adamw_reduces_to_adam_when_decay_zero():
    rng = np.random.default_rng(6)
    init = rng.normal(size=(2, 2))
    grads = [rng.normal(size=(2, 2)) for _ in range(10)]

    def run(flagged):
        w = ad.Tensor(init.copy(), requires_grad=True)
        opt = Adam([w], weight_decay=0.0) if flagged else Adam([w])
        for g in grads:
            w.grad = g.copy()
            opt.step(0.05)
        return w.data

    np.testing.assert_array_equal(run(False), run(True))


def test_adamw_decay_only_value():
    # g=0, w=1, lambda=0.01, lr=0.1, zero state -> w = 0.999
    w = ad.Tensor(np.array([[1.0]]), requires_grad=True)
    w.grad = np.array([[0.0]])
    opt = Adam([w], weight_decay=0.01)
    opt.step(0.1)
    assert float(w.data[0, 0]) == pytest.approx(0.999, abs=1e-15)


def test_adamw_random_step_matches_formula_oracle():
    rng = np.random.default_rng(7)
    w0 = rng.normal(size=(1, 5))
    g = rng.normal(size=(1, 5))
    lam, lr, b1, b2, eps = 0.02, 0.05, 0.9, 0.999, 1e-8
    w = ad.Tensor(w0.copy(), requires_grad=True)
    opt = Adam([w], weight_decay=lam)
    w.grad = g.copy()
    opt.step(lr)
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = w0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + lam * w0)
    np.testing.assert_allclose(w.data, expected, atol=1e-15)


def test_adamw_skips_bias_decay():
    # AdamW decays the 2-d parameters (weights), not a (1,) bias
    w = ad.Tensor(np.array([[1.0]]), requires_grad=True)
    b = ad.Tensor(np.array([1.0]), requires_grad=True)
    w.grad = np.array([[0.0]])
    b.grad = np.array([0.0])
    opt = Adam([w, b], weight_decay=0.01)
    opt.step(0.1)
    assert float(w.data[0, 0]) == pytest.approx(0.999, abs=1e-15)
    assert float(b.data[0]) == 1.0


# --- schedule ---

def test_inverse_time_lr_values():
    assert inverse_time_lr(1e-3, 0.5, 100, 0) == 1e-3
    assert inverse_time_lr(2.0, 1.0, 1, 1) == 1.0
    lrs = [inverse_time_lr(1.0, 0.7, 10, s) for s in range(100)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


# --- training loop ---

def _vanilla_model(n_x=4, p=3, d=1, seed=0, activation="tanh"):
    trunk = VanillaTrunk(init_mlp(MLPConfig(d, (8,), p, activation, True), seed))
    branch = init_mlp(MLPConfig(n_x, (8,), p, activation, False), seed + 1)
    return EnsembleModel([trunk], branch, ad.Tensor(np.zeros(()), requires_grad=True))


def _toy_problem(rng, n=12, n_x=4, n_y=6):
    u = rng.uniform(-1, 1, size=(n, n_x))
    y = rng.uniform(-1, 1, size=(n_y, 1))
    v = (u.sum(axis=1, keepdims=True) * y[:, 0][None, :]) * 0.3
    return u, v, y


def test_zero_lr_keeps_loss_constant():
    rng = np.random.default_rng(1)
    u, v, y = _toy_problem(rng)
    model = _vanilla_model()
    cfg = TrainConfig(epochs=5, lr0=0.0, optimizer="adam", seed=0)
    report = train(model, u, v, y, cfg)
    assert len(set(report.losses)) == 1


class _OneParamLinear:
    """pred_ij = w * u_i (constant over y); exactly solvable least squares."""

    def __init__(self, w0=0.0):
        self.w = ad.Tensor(np.array([[w0]]), requires_grad=True)

    def predict(self, u, y, tape=None):
        # all this model needs of the locations: a (n_y, 1) column of ones
        ones = ad.Tensor(np.ones((np.asarray(y).shape[0], 1)))
        coef = ad.linear(ad.as_tensor(u), self.w, ad.Tensor(np.zeros(1)), tape)  # (n, 1)
        return ad.matmul_nt(coef, ones, tape)  # coef @ ones^T

    def parameters(self):
        return [self.w]

    def parameter_hash(self):
        return self.w.data.tobytes().hex()


def test_one_parameter_linear_model_converges():
    rng = np.random.default_rng(2)
    u = rng.uniform(0.5, 1.5, size=(10, 1))
    y = np.zeros((4, 1))
    v = 3.0 * np.tile(u, (1, 4))  # exactly solvable: w* = 3
    model = _OneParamLinear()
    cfg = TrainConfig(epochs=3000, lr0=0.05, gamma=0.5, optimizer="adam", seed=0)
    report = train(model, u, v, y, cfg)
    assert report.losses[-1] < 1e-10
    assert float(model.w.data[0, 0]) == pytest.approx(3.0, abs=1e-5)
    assert report.param_hash == model.parameter_hash()
    # monotone decrease after burn-in
    tail = report.losses[500:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def test_training_is_reproducible_bit_exact():
    def run():
        rng = np.random.default_rng(3)
        u, v, y = _toy_problem(rng)
        model = _vanilla_model(seed=4)
        cfg = TrainConfig(epochs=40, lr0=1e-2, optimizer="adamw", seed=9)
        report = train(model, u, v, y, cfg)
        return report.losses[-1], model.parameter_hash()

    assert run() == run()


class _GoesNonFinite(_OneParamLinear):
    """Turns its parameter non-finite after a fixed number of steps."""

    def __init__(self, bad_after):
        super().__init__(w0=1.0)
        self.bad_after = bad_after
        self.calls = 0

    def predict(self, u, y, tape=None):
        self.calls += 1
        if self.calls > self.bad_after:
            self.w.data[:] = np.nan
        return super().predict(u, y, tape)


def test_nan_loss_aborts_with_epoch_index():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.5, 1.5, size=(12, 1))
    y = np.zeros((5, 1))
    v = 2.0 * np.tile(u, (1, 5))
    model = _GoesNonFinite(bad_after=3)
    cfg = TrainConfig(epochs=50, lr0=1e-3, optimizer="adam", seed=0)
    with pytest.raises(NumericError) as err:
        train(model, u, v, y, cfg)
    assert err.value.epoch == 3
    assert err.value.report.epochs_run == 3
    assert "epoch 3" in str(err.value)
    assert "first non-finite tensor is parameter 0 (shape (1, 1))" in str(err.value)


@pytest.mark.parametrize("batch_size", [0, 4])
def test_nan_loss_names_first_nonfinite_record(batch_size):
    # finite parameters, one infinite input: the first non-finite tensor is
    # the output of the first layer
    rng = np.random.default_rng(4)
    u = rng.uniform(0.5, 1.5, size=(12, 1))
    u[7, 0] = np.inf
    y = np.zeros((5, 1))
    v = 2.0 * np.tile(np.where(np.isfinite(u), u, 1.0), (1, 5))
    cfg = TrainConfig(epochs=5, lr0=1e-3, optimizer="adam", batch_size=batch_size, seed=0)
    with pytest.raises(NumericError) as err:
        train(_OneParamLinear(w0=1.0), u, v, y, cfg)
    rows = 12 if batch_size == 0 else 4
    assert err.value.epoch == 0
    assert f"first non-finite tensor is the output of linear (shape ({rows}, 1))" in str(err.value)


def test_pod_member_parameters_frozen_by_training():
    rng = np.random.default_rng(5)
    n, n_x, n_y = 10, 4, 8
    u = rng.uniform(-1, 1, size=(n, n_x))
    y = rng.uniform(-1, 1, size=(n_y, 2))
    v = rng.normal(size=(n, n_y)) + 2.0
    basis = compute_pod(v, 3, y_locations=y)
    member = PODTrunk(basis, 3, modified=True)
    branch = init_mlp(MLPConfig(n_x, (8,), 3, "tanh", False), 0)
    model = EnsembleModel([member], branch, ad.Tensor(np.zeros(()), requires_grad=True))
    before = (basis.mean_function.tobytes(), basis.modes.tobytes())
    cfg = TrainConfig(epochs=30, lr0=1e-2, optimizer="adamw", seed=0)
    train(model, u, v, y, cfg)
    assert (basis.mean_function.tobytes(), basis.modes.tobytes()) == before


def test_gradient_flow_completeness_on_pou():
    # one patch covers every training point, a second patch covers none:
    # after a step, only the populated expert moved
    ps = PatchSet([[0.0, 0.0], [10.0, 10.0]], [2.0, 0.5])
    cfg_e = MLPConfig(2, (6,), 3, "tanh", True)
    experts = [init_mlp(cfg_e, k) for k in range(2)]
    trunk = PoUTrunk(ps, experts, 3)
    branch = init_mlp(MLPConfig(4, (6,), 3, "tanh", False), 7)
    model = EnsembleModel([trunk], branch, ad.Tensor(np.zeros(()), requires_grad=True))
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, size=(5, 4))
    y = rng.uniform(-0.9, 0.9, size=(7, 2))
    v = rng.normal(size=(5, 7))
    assert np.all(pou_weight_matrix(ps, y)[:, 1] == 0.0)
    before = [([w.data.copy() for w in e.weights]) for e in experts]
    train(model, u, v, y, TrainConfig(epochs=3, lr0=1e-2, optimizer="adam", seed=0))
    moved0 = any(
        not np.array_equal(w.data, b) for w, b in zip(experts[0].weights, before[0])
    )
    moved1 = any(
        not np.array_equal(w.data, b) for w, b in zip(experts[1].weights, before[1])
    )
    assert moved0 and not moved1


@pytest.mark.parametrize("batch_size", [0, 4])
def test_pou_weights_computed_once_per_train(monkeypatch, batch_size):
    # Y is fixed for the run, so its PoU weights and index sets are worked
    # out once, on the first step, not once per epoch or batch
    import odnet.trunks

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pou_weight_matrix(*args, **kwargs)

    monkeypatch.setattr(odnet.trunks, "pou_weight_matrix", counting)
    ps = PatchSet([[-0.5], [0.5]], [1.0, 1.0])
    experts = [init_mlp(MLPConfig(1, (6,), 3, "tanh", True), k) for k in range(2)]
    branch = init_mlp(MLPConfig(4, (6,), 3, "tanh", False), 7)
    model = EnsembleModel([PoUTrunk(ps, experts, 3)], branch, None)
    u, v, y = _toy_problem(np.random.default_rng(10))
    cfg = TrainConfig(epochs=5, lr0=1e-2, optimizer="adam", batch_size=batch_size, seed=0)
    report = train(model, u, v, y, cfg)
    assert report.epochs_run == 5
    assert len(calls) == 1


def test_loss_decreases_on_builtin_generators():
    from odnet.data import RDParams, gen_antiderivative, gen_reaction_diffusion_2d

    anti = gen_antiderivative(16, grid=16, seed=0)
    rd = gen_reaction_diffusion_2d(RDParams(n=8, branch_grid=4), 12, seed=0)
    for ds, d in ((anti, 1), (rd, 2)):
        trunk = VanillaTrunk(init_mlp(MLPConfig(d, (16,), 8, "tanh", True), 1))
        branch = init_mlp(MLPConfig(ds.n_x, (16,), 8, "tanh", False), 2)
        model = EnsembleModel([trunk], branch, ad.Tensor(np.zeros(()), requires_grad=True))
        cfg = TrainConfig(epochs=100, lr0=1e-2, optimizer="adam", seed=0)
        report = train(model, ds.U, ds.scalar_targets(), ds.Y, cfg)
        assert report.losses[-1] < report.losses[0]


def test_minibatch_history_length_and_progress():
    rng = np.random.default_rng(8)
    u, v, y = _toy_problem(rng, n=16)
    model = _vanilla_model(seed=10)
    cfg = TrainConfig(epochs=30, lr0=1e-2, optimizer="adam", batch_size=4, seed=0)
    report = train(model, u, v, y, cfg)
    assert report.epochs_run == 30
    assert report.losses[-1] < report.losses[0]


class _Recording:
    """Trains like ``model`` and keeps each taped batch's inputs and
    predictions, copied when they are made."""

    def __init__(self, model):
        self.model = model
        self.batches = []

    def predict(self, u, y, tape=None):
        pred = self.model.predict(u, y, tape)
        if tape is not None:
            self.batches.append((u.data.copy(), pred.data.copy()))
        return pred

    def parameters(self):
        return self.model.parameters()

    def parameter_hash(self):
        return self.model.parameter_hash()


def test_a_batch_of_at_least_n_is_the_full_batch():
    u, v, y = _toy_problem(np.random.default_rng(12), n=10)
    runs = []
    for batch_size in (0, 10, 13):
        model = _vanilla_model(seed=12)
        cfg = TrainConfig(epochs=6, lr0=1e-2, optimizer="adamw", batch_size=batch_size, seed=1)
        runs.append((train(model, u, v, y, cfg).losses, model.parameter_hash()))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _minibatch_run(seed, epochs=4):
    u, v, y = _toy_problem(np.random.default_rng(13), n=10)
    model = _Recording(_vanilla_model(seed=13))
    cfg = TrainConfig(epochs=epochs, lr0=1e-2, optimizer="adamw", batch_size=4, seed=seed)
    return u, v, model, train(model, u, v, y, cfg)


def test_minibatches_of_four_over_ten_functions():
    epochs = 4
    u, v, model, report = _minibatch_run(seed=3, epochs=epochs)
    assert [len(b) for b, _ in model.batches] == [4, 4, 2] * epochs  # 3 taped steps per epoch
    for e in range(epochs):
        epoch = model.batches[3 * e: 3 * e + 3]
        rows = [int(np.flatnonzero((u == row).all(axis=1))[0]) for b, _ in epoch for row in b]
        assert sorted(rows) == list(range(10))  # one permutation of the functions
        # the epoch loss is the batch losses weighted by batch size
        weighted, at = 0.0, 0
        for b, pred in epoch:
            weighted += len(b) * np.mean((pred - v[rows[at: at + len(b)]]) ** 2)
            at += len(b)
        assert report.losses[e] == pytest.approx(weighted / 10, rel=1e-12)
    _, _, again, repeat = _minibatch_run(seed=3, epochs=epochs)
    assert repeat.losses == report.losses and repeat.param_hash == report.param_hash
    assert [p.tobytes() for _, p in again.batches] == [p.tobytes() for _, p in model.batches]


def test_minibatch_order_follows_the_seed():
    assert _minibatch_run(seed=3)[3].param_hash != _minibatch_run(seed=4)[3].param_hash


def test_report_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    u, v, y = _toy_problem(rng)
    model = _vanilla_model(seed=11)
    report = train(model, u, v, y, TrainConfig(epochs=5, lr0=1e-3, seed=0))
    path = tmp_path / "loss.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,lr,seconds"
    assert len(lines) == 6


# --- training bits of the bundled configs ---

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# 20-epoch parameter_hash() at seed 0, on each config's full data, with one
# BLAS thread. An op that moves rounding anywhere in training moves these.
PINNED_HASHES = {
    "antiderivative-vanilla.ini": "d752f630",
    "rd2d-modified-pod.ini": "ebcc0a6c",
    "rd2d-p-plus-1-vanilla.ini": "e6f2d801",
    "rd2d-pod-pou.ini": "e9dfb16a",
    "rd2d-pod.ini": "cd16bf77",
    "rd2d-vanilla-pod-pou.ini": "bc424e21",
    "rd2d-vanilla-pod.ini": "ce62aa21",
    "rd2d-vanilla-pou.ini": "acdcb58a",
    "rd2d-vanilla.ini": "84ae420d",
}

_HASH_SCRIPT = """
import dataclasses, sys
from odnet import build_model, generate_dataset, parse_config, split_indices, train
for path in sys.argv[1:]:
    cfg = parse_config(open(path).read())
    ds = generate_dataset(cfg.data)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, 0)
    targets = ds.scalar_targets()
    train(model, ds.U[train_idx], targets[train_idx], ds.Y,
          dataclasses.replace(cfg.train, epochs=20))
    print(model.parameter_hash())
"""


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_adamw_decays_exactly_the_weight_matrices(name):
    # every parameter at 1 with a zero gradient: a step moves only what
    # AdamW decays, to 1 - lr * weight_decay
    from test_trunks import _bundled

    cfg, _, model = _bundled(name)
    optimizer = make_optimizer(model, dataclasses.replace(cfg.train, optimizer="adamw",
                                                          weight_decay=0.5))
    for p in model.parameters():
        p.data[...] = 1.0
        p.grad = np.zeros_like(p.data)
    optimizer.step(1.0)
    moved = [p for p in model.parameters() if not np.all(p.data == 1.0)]
    assert all(np.all(p.data == 0.5) for p in moved)
    nets = [model.branch]
    for m in model.members:
        nets.extend([m.mlp] if isinstance(m, VanillaTrunk) else getattr(m, "experts", []))
    weights = [w for net in nets for w in net.weights]
    assert {id(p) for p in moved} == {id(w) for w in weights} and len(moved) == len(weights)


def test_twenty_epoch_hashes_of_bundled_configs_are_pinned():
    # a fresh process, so the thread count is set before numpy loads
    assert sorted(p.name for p in CONFIG_DIR.glob("*.ini")) == sorted(PINNED_HASHES)
    src = str(Path(odnet.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=src)
    names = sorted(PINNED_HASHES)
    out = subprocess.run([sys.executable, "-c", _HASH_SCRIPT, *(str(CONFIG_DIR / n) for n in names)],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    assert dict(zip(names, out.stdout.split())) == PINNED_HASHES
