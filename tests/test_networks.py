import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.errors import ShapeError
from odnet.networks import MLP, MLPConfig, init_mlp


def test_parameter_count_arithmetic():
    cfg = MLPConfig(2, (4, 4), 3)
    # (2+1)*4 + (4+1)*4 + (4+1)*3
    assert cfg.parameter_count == 47


def test_same_seed_bit_identical():
    cfg = MLPConfig(3, (8, 8), 2, activation="relu")
    a = init_mlp(cfg, 42)
    b = init_mlp(cfg, 42)
    for ta, tb in zip(a.parameters(), b.parameters()):
        assert ta.data.tobytes() == tb.data.tobytes()


def test_glorot_bounds():
    cfg = MLPConfig(5, (16, 16), 7, activation="tanh")
    net = init_mlp(cfg, 1)
    dims = cfg.layer_dims
    for (fan_in, fan_out), w in zip(zip(dims[:-1], dims[1:]), net.weights):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w.data) <= limit)
    for b in net.biases:
        assert np.all(b.data == 0.0)


def test_zero_weight_relu_net_gives_zero():
    cfg = MLPConfig(3, (4,), 2, activation="relu", activate_last=True)
    net = init_mlp(cfg, 0)
    for w in net.weights:
        w.data[:] = 0.0
    out = net.forward(np.ones((5, 3)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_hand_set_forward_oracle():
    # 1 hidden layer, weights set by hand; compare with a manual pass
    cfg = MLPConfig(2, (2,), 1, activation="tanh", activate_last=False)
    net = init_mlp(cfg, 0)
    net.weights[0].data[:] = [[1.0, 0.5], [-1.0, 2.0]]
    net.biases[0].data[:] = [0.1, -0.2]
    net.weights[1].data[:] = [[2.0], [-3.0]]
    net.biases[1].data[:] = [0.25]
    x = np.array([[0.3, -0.7]])
    h = np.tanh(x @ net.weights[0].data + net.biases[0].data)
    expected = h @ net.weights[1].data + net.biases[1].data
    out = net.forward(x)
    np.testing.assert_allclose(out.data, expected, atol=1e-15)


def test_batch_equals_stacked_single_rows():
    cfg = MLPConfig(3, (6, 6), 4, activation="leaky_relu", activate_last=True)
    net = init_mlp(cfg, 5)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(7, 3))
    batch = net.forward(x).data
    singles = np.vstack([net.forward(x[i: i + 1]).data for i in range(7)])
    # BLAS may reassociate differently for one-row products
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)


def test_forward_is_pure():
    cfg = MLPConfig(2, (4,), 2, activation="tanh", activate_last=True)
    net = init_mlp(cfg, 9)
    before = [t.data.copy() for t in net.parameters()]
    x = np.random.default_rng(0).uniform(-1, 1, size=(4, 2))
    o1 = net.forward(x).data
    o2 = net.forward(x).data
    assert o1.tobytes() == o2.tobytes()
    for t, b in zip(net.parameters(), before):
        assert t.data.tobytes() == b.tobytes()


def test_forward_input_dim_mismatch():
    net = init_mlp(MLPConfig(3, (4,), 2), 0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((5, 2)))


def test_config_validation():
    with pytest.raises(ValueError):
        MLPConfig(2, (), 3)
    with pytest.raises(ValueError):
        MLPConfig(0, (4,), 3)
    with pytest.raises(ValueError):
        MLPConfig(2, (4,), 3, activation="sigmoid")


def test_last_layer_activation_flag():
    # identical weights, flag on/off: trunk-style output is the activated
    # branch-style output
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(6, 2))
    base = init_mlp(MLPConfig(2, (5,), 3, activation="tanh", activate_last=False), 4)
    trunk = MLP(
        MLPConfig(2, (5,), 3, activation="tanh", activate_last=True),
        [ad.Tensor(w.data.copy(), requires_grad=True) for w in base.weights],
        [ad.Tensor(b.data.copy(), requires_grad=True) for b in base.biases],
    )
    np.testing.assert_allclose(
        trunk.forward(x).data, np.tanh(base.forward(x).data), atol=1e-15
    )
