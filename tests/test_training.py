import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.errors import NumericError, ShapeError
from odnet.networks import MLPConfig, init_mlp
from odnet.partition import Patch, PatchSet, pou_weight_matrix
from odnet.pod import compute_pod
from odnet.training import (
    Adam,
    TrainConfig,
    inverse_time_lr,
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
    init = rng.normal(size=(4,))
    grads = [rng.normal(size=(4,)) for _ in range(10)]

    def run(flagged):
        w = ad.Tensor(init.copy(), requires_grad=True)
        opt = Adam([w], weight_decay=0.0, decay_params=[w]) if flagged else Adam([w])
        for g in grads:
            w.grad = g.copy()
            opt.step(0.05)
        return w.data

    np.testing.assert_array_equal(run(False), run(True))


def test_adamw_decay_only_value():
    # g=0, w=1, lambda=0.01, lr=0.1, zero state -> w = 0.999
    w = ad.Tensor(np.array(1.0), requires_grad=True)
    w.grad = np.array(0.0)
    opt = Adam([w], weight_decay=0.01, decay_params=[w])
    opt.step(0.1)
    assert float(w.data) == pytest.approx(0.999, abs=1e-15)


def test_adamw_random_step_matches_formula_oracle():
    rng = np.random.default_rng(7)
    w0 = rng.normal(size=(5,))
    g = rng.normal(size=(5,))
    lam, lr, b1, b2, eps = 0.02, 0.05, 0.9, 0.999, 1e-8
    w = ad.Tensor(w0.copy(), requires_grad=True)
    opt = Adam([w], weight_decay=lam, decay_params=[w])
    w.grad = g.copy()
    opt.step(lr)
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = w0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + lam * w0)
    np.testing.assert_allclose(w.data, expected, atol=1e-15)


def test_adamw_skips_bias_decay():
    w = ad.Tensor(np.array(1.0), requires_grad=True)
    b = ad.Tensor(np.array(1.0), requires_grad=True)
    w.grad = np.array(0.0)
    b.grad = np.array(0.0)
    opt = Adam([w, b], weight_decay=0.01, decay_params=[w])
    opt.step(0.1)
    assert float(w.data) == pytest.approx(0.999, abs=1e-15)
    assert float(b.data) == 1.0


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

    def bind(self, y):
        # all this model needs of the locations: a (n_y, 1) column of ones
        return ad.Tensor(np.ones((np.asarray(y).shape[0], 1)))

    def predict(self, u, y, tape=None):
        ones = y if isinstance(y, ad.Tensor) else self.bind(y)
        coef = ad.linear(ad.as_tensor(u), self.w, ad.Tensor(np.zeros(1)), tape)  # (n, 1)
        return ad.matmul_nt(coef, ones, tape)  # coef @ ones^T

    def parameters(self):
        return [self.w]

    def weight_tensors(self):
        return [self.w]

    def zero_grad(self):
        self.w.zero_grad()

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
    ps = PatchSet([Patch([0.0, 0.0], 2.0), Patch([10.0, 10.0], 0.5)])
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
    # out once by model.bind, not once per epoch or batch
    import odnet.trunks

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pou_weight_matrix(*args, **kwargs)

    monkeypatch.setattr(odnet.trunks, "pou_weight_matrix", counting)
    ps = PatchSet([Patch([-0.5], 1.0), Patch([0.5], 1.0)])
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
