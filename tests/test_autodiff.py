import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.errors import ShapeError


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def _zeros(*shape):
    return ad.Tensor(np.zeros(shape))


def _products(a, b):
    """a @ b through both product ops: linear with a zero bias, and
    matmul_nt against b transposed."""
    return (
        ad.linear(ad.Tensor(a), ad.Tensor(b), _zeros(b.shape[1])).data,
        ad.matmul_nt(ad.Tensor(a), ad.Tensor(b.T)).data,
    )


def _unit_loss(t, tape):
    """A 0-d loss whose gradient is exactly 1 with respect to a (1, 1)
    tensor t: the squared distance to the constant t - 1/2."""
    return ad.mse(t, ad.Tensor(t.data - 0.5), tape)


def _as_2d(s, tape):
    """A 0-d tensor s as (1, 1): the zero product 0 0^T with bias s."""
    return ad.matmul_nt(_zeros(1, 1), _zeros(1, 1), tape, bias=s)


def _total(t, tape):
    """Sum of every entry of a 2-d tensor, as (1, 1): ones^T t ones."""
    rows, cols = t.data.shape
    col_sums = ad.linear(ad.Tensor(np.ones((1, rows))), t, _zeros(cols), tape)
    return ad.linear(col_sums, ad.Tensor(np.ones((cols, 1))), _zeros(1), tape)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    for out in _products(np.eye(3), m):
        np.testing.assert_array_equal(out, m)


def test_matmul_direct_arithmetic():
    for out in _products(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]])):
        np.testing.assert_array_equal(out, [[2.0], [4.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    for out in _products(a, b):
        assert np.max(np.abs(out - triple_loop_matmul(a, b))) < 1e-14


def test_matmul_shape_mismatch():
    # linear: non-2-d input or weight, inner mismatch, bias not (n,) for an
    # (m, n) weight
    for x, w, b in (
        (_zeros(2, 3), _zeros(2, 3), _zeros(3)),
        (_zeros(3), _zeros(3, 2), _zeros(2)),
        (_zeros(4, 3), _zeros(3), _zeros(3)),
        (_zeros(4, 3), _zeros(3, 2), _zeros(3)),
        (_zeros(4, 3), _zeros(3, 2), _zeros(1, 2)),
    ):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, w, b)
    # matmul_nt: non-2-d operands, or column counts that differ
    for a, b in ((_zeros(2, 3), _zeros(3, 2)), (_zeros(3), _zeros(2, 3)), (_zeros(2, 3), _zeros(3))):
        with pytest.raises(ShapeError, match="matmul_nt"):
            ad.matmul_nt(a, b)
    # matmul_nt: a bias that is not 0-d, an offset that is not one row of
    # the (2, 4) product
    for bias in (_zeros(1), _zeros(1, 1)):
        with pytest.raises(ShapeError, match="matmul_nt: bias"):
            ad.matmul_nt(_zeros(2, 3), _zeros(4, 3), bias=bias)
    for offset in (np.zeros(3), np.zeros((1, 4)), np.zeros(())):
        with pytest.raises(ShapeError, match="matmul_nt: offset"):
            ad.matmul_nt(_zeros(2, 3), _zeros(4, 3), offset=offset)


def test_linear_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(21)
    x = ad.Tensor(rng.normal(size=(7, 5)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=4), requires_grad=True)
    target = rng.normal(size=(7, 4))
    tape = ad.Tape()
    out = ad.linear(x, w, b, tape)
    assert out.data.tobytes() == (x.data @ w.data + b.data[None, :]).tobytes()
    tape.backward(ad.mse(out, ad.Tensor(target), tape))
    g = (out.data - target) * (2.0 / out.size)
    np.testing.assert_array_equal(x.grad, g @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ g)
    np.testing.assert_array_equal(b.grad, g.sum(axis=0))


_NUMPY_ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda a: a > 0.0),
    "leaky_relu": (lambda a: a * np.where(a > 0.0, 1.0, 0.01),
                   lambda a: np.where(a > 0.0, 1.0, 0.01)),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) * np.tanh(a)),
}


def test_every_activation_has_a_numpy_reference():
    # the oracles below cover exactly the activations linear accepts
    assert sorted(_NUMPY_ACTIVATIONS) == sorted(ad.ACTIVATIONS)


@pytest.mark.parametrize("activation", sorted(_NUMPY_ACTIVATIONS))
def test_fused_activation_matches_numpy_bit_for_bit(activation):
    # act(x @ w + b) as separate numpy ops, forward untaped and taped, and
    # the gradients from the derivative at the pre-activation; row 0 of x
    # is zero, so its pre-activation is the bias, which holds an exact 0
    act, derivative = _NUMPY_ACTIVATIONS[activation]
    rng = np.random.default_rng(25)
    x_data = rng.normal(size=(7, 5))
    x_data[0] = 0.0
    x = ad.Tensor(x_data, requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = ad.Tensor(np.array([0.0, -0.5, 0.25, 1.5]), requires_grad=True)
    target = rng.normal(size=(7, 4))
    pre = x.data @ w.data + b.data[None, :]
    assert pre[0, 0] == 0.0
    assert ad.linear(x, w, b, activation=activation).data.tobytes() == act(pre).tobytes()
    tape = ad.Tape()
    out = ad.linear(x, w, b, tape, activation=activation)
    assert out.data.tobytes() == act(pre).tobytes()
    assert len(tape) == 1
    tape.backward(ad.mse(out, ad.Tensor(target), tape))
    g = ((out.data - target) * (2.0 / out.size)) * derivative(pre)
    np.testing.assert_array_equal(x.grad, g @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ g)
    np.testing.assert_array_equal(b.grad, g.sum(axis=0))


@pytest.mark.parametrize("activation", sorted(_NUMPY_ACTIVATIONS))
def test_fused_activation_matches_finite_differences(activation):
    rng = np.random.default_rng(26)
    x = ad.Tensor(rng.uniform(-1, 1, size=(6, 3)), requires_grad=True)
    w = ad.Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
    params = [x, w, b]

    def loss(tape=None):
        out = ad.linear(x, w, b, tape, activation=activation)
        return ad.mse(out, _zeros(6, 4), tape)

    tape = ad.Tape()
    tape.backward(loss(tape))
    for p, g in zip(params, central_difference_grads(loss, params)):
        assert relative_gradient_error(p.grad, g) < 1e-5


def _out_of_place_grad(activation, out, g):
    """Reference: g times the activation's derivative in a new array."""
    if activation == "relu":
        return g * (out > 0.0)
    if activation == "leaky_relu":
        return g * np.where(out > 0.0, 1.0, ad.LEAKY_SLOPE)
    return g * (1.0 - out * out)


@pytest.mark.parametrize("activation", ad.ACTIVATIONS)
def test_a_second_backward_doubles_the_gradients_bit_for_bit(activation):
    # each rule writes the derivative into the adjoint it receives; a
    # write that reached a tensor or another rule's array would change
    # the second pass
    rng = np.random.default_rng(27)
    (w1, b1, w2, b2), x = _random_two_layer(rng)
    tape = ad.Tape()
    h = ad.linear(ad.Tensor(x), w1, b1, tape, activation=activation)
    out = ad.linear(h, w2, b2, tape, activation=activation)
    loss = ad.mse(out, ad.Tensor(rng.uniform(-1, 1, size=(5, 2))), tape)
    kept = h.data.copy(), out.data.copy()
    tape.backward(loss)
    first = [p.grad.copy() for p in (w1, b1, w2, b2)]
    tape.backward(loss)
    for p, g in zip((w1, b1, w2, b2), first):
        assert p.grad.tobytes() == (2.0 * g).tobytes()
    assert (h.data.tobytes(), out.data.tobytes()) == (kept[0].tobytes(), kept[1].tobytes())


@pytest.mark.parametrize("activation", ad.ACTIVATIONS)
def test_stacked_members_get_the_out_of_place_gradients(activation):
    # concat_columns hands each activated member a column view of one
    # adjoint; scaling the views in place must give the bytes of scaling
    # copies of them
    rng = np.random.default_rng(28)
    x = rng.normal(size=(37, 3))
    ws = [ad.Tensor(rng.normal(size=(3, k)), requires_grad=True) for k in (5, 4)]
    bs = [ad.Tensor(rng.normal(size=k), requires_grad=True) for k in (5, 4)]
    a = rng.normal(size=(6, 9))
    target = rng.normal(size=(6, 37))
    tape = ad.Tape()
    hs = [ad.linear(ad.Tensor(x), w, b, tape, activation=activation) for w, b in zip(ws, bs)]
    pred = ad.matmul_nt(ad.Tensor(a), ad.concat_columns(hs, tape), tape)
    tape.backward(ad.mse(pred, ad.Tensor(target), tape))
    g_cat = ((pred.data - target) * (1.0 * (2.0 / pred.data.size))).T @ a
    for h, w, b, (lo, hi) in zip(hs, ws, bs, ((0, 5), (5, 9))):
        g = _out_of_place_grad(activation, h.data, g_cat[:, lo:hi])
        assert w.grad.tobytes() == (x.T @ g).tobytes()
        assert b.grad.tobytes() == g.sum(axis=0).tobytes()


def test_matmul_nt_matches_numpy_bit_for_bit():
    # the bias and the offset row are added in place after the product, in
    # that order, with the bits of two separate numpy adds
    rng = np.random.default_rng(22)
    a = ad.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(9, 5)), requires_grad=True)
    s = ad.Tensor(np.array(rng.normal()), requires_grad=True)
    v = rng.normal(size=9)
    target = rng.normal(size=(6, 9))
    product = a.data @ b.data.T
    for bias, offset, reference in ((None, None, product),
                                    (s, None, product + s.data),
                                    (None, v, product + v[None, :]),
                                    (s, v, (product + s.data) + v[None, :])):
        for t in (a, b, s):
            t.grad = None
        tape = ad.Tape()
        out = ad.matmul_nt(a, b, tape, bias=bias, offset=offset)
        assert out.data.tobytes() == reference.tobytes()
        tape.backward(ad.mse(out, ad.Tensor(target), tape))
        g = (out.data - target) * (2.0 / out.size)
        np.testing.assert_array_equal(a.grad, g @ b.data)
        np.testing.assert_array_equal(b.grad, g.T @ a.data)
        if bias is None:
            assert s.grad is None
        else:
            assert s.grad.shape == ()
            assert s.grad.tobytes() == np.asarray(g.sum()).tobytes()


def test_mse_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(23)
    p = ad.Tensor(rng.normal(size=(8, 11)), requires_grad=True)
    t = ad.Tensor(rng.normal(size=(8, 11)), requires_grad=True)
    tape = ad.Tape()
    loss = ad.mse(p, t, tape)
    r = p.data - t.data
    assert loss.data.tobytes() == (r * r).mean().tobytes()
    tape.backward(loss)
    # mean(r * r) differentiated op by op: two adjoints r * (1/n), summed
    inv = 1.0 / r.size
    assert p.grad.tobytes() == ((r * inv) + (r * inv)).tobytes()
    assert p.grad.tobytes() == (r * (2.0 / r.size)).tobytes()
    np.testing.assert_array_equal(t.grad, -p.grad)


def _old_scatter_chain(arrays, idxs, ws, n_rows):
    """The op chain scatter_add_rows replaces: scale each part's rows, place
    them in zeros, and add the placed arrays left to right."""
    acc = None
    for a, idx, w in zip(arrays, idxs, ws):
        placed = np.zeros((n_rows, a.shape[1]))
        placed[idx] = a * w[:, None]
        acc = placed if acc is None else acc + placed
    return acc


def test_scatter_add_rows_matches_old_chain_bit_for_bit():
    # random normal entries hold no -0.0, the one value where a sum started
    # from zeros and the chain can differ (0.0 + -0.0 is +0.0)
    rng = np.random.default_rng(24)
    n_rows = 9
    idxs = [np.array([0, 2, 3, 7]), np.array([3, 4, 8]), np.array([7, 1, 0, 5, 6])]
    arrays = [rng.normal(size=(i.size, 4)) for i in idxs]
    ws = [rng.uniform(0.0, 1.0, size=i.size) for i in idxs]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    target = rng.normal(size=(n_rows, 4))
    tape = ad.Tape()
    out = ad.scatter_add_rows(list(zip(tensors, idxs, ws)), n_rows, tape)
    assert out.data.tobytes() == _old_scatter_chain(arrays, idxs, ws, n_rows).tobytes()
    tape.backward(ad.mse(out, ad.Tensor(target), tape))
    g = (out.data - target) * (2.0 / out.size)
    for t, idx, w in zip(tensors, idxs, ws):
        # embed_rows then scale_rows backward: g[idx], then times w
        assert t.grad.tobytes() == (g[idx] * w[:, None]).tobytes()


def test_scatter_add_rows_shape_errors():
    ones = np.ones(2)
    for parts in (
        [],                                                        # no parts
        [(_zeros(2), [0, 1], ones)],                               # not 2-d
        [(_zeros(2, 3), [0, 1], ones), (_zeros(2, 2), [2, 3], ones)],  # columns
        [(_zeros(2, 3), [0, 1, 2], ones)],                         # idx length
        [(_zeros(2, 3), [0, 1], np.ones(3))],                      # w length
    ):
        with pytest.raises(ShapeError, match="scatter_add_rows"):
            ad.scatter_add_rows(parts, 4)


def test_tape_names_first_nonfinite_record():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    x = np.ones((3, 2))
    tape = ad.Tape()
    h = ad.linear(ad.Tensor(x), w, _zeros(2), tape, activation="tanh")
    ad.mse(h, _zeros(3, 2), tape)
    assert tape.first_nonfinite() is None
    x[1, 0] = np.inf
    tape = ad.Tape()
    with np.errstate(invalid="ignore"):
        # relu keeps the infinity, where tanh would map it to 1
        h = ad.linear(ad.Tensor(x), w, _zeros(2), tape, activation="relu")
        ad.matmul_nt(h, ad.Tensor(np.full((4, 2), np.nan)), tape)
    assert tape.first_nonfinite() == ("linear", (3, 2))


def _activated(v, activation):
    """act(v) through linear: v * 1 + 0 is v exactly."""
    out = ad.linear(ad.Tensor([[v]]), ad.Tensor([[1.0]]), _zeros(1), activation=activation)
    return float(out.data[0, 0])


def test_elementwise_values():
    assert _activated(-1.5, "relu") == 0.0
    assert _activated(2.0, "relu") == 2.0
    assert _activated(0.0, "tanh") == 0.0
    assert _activated(-2.0, "leaky_relu") == pytest.approx(-0.02, abs=1e-15)
    with pytest.raises(ValueError, match="linear: unknown activation"):
        _activated(1.0, "sigmoid")


def test_elementwise_shape_mismatch():
    # summing a (2, 2) and a (2, 3) tensor
    with pytest.raises(ShapeError):
        ad.scatter_add_rows([(_zeros(2, 2), [0, 1], np.ones(2)),
                             (_zeros(2, 3), [0, 1], np.ones(2))], 2)
    # mse: any shape difference, including a transposed target
    for p, t in ((_zeros(3), _zeros(4)), (_zeros(2, 3), _zeros(3, 2)), (_zeros(1, 1), _zeros())):
        with pytest.raises(ShapeError, match="mse"):
            ad.mse(p, t)


def test_backward_sum_gives_ones():
    w = ad.Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    tape = ad.Tape()
    loss = _unit_loss(_total(w, tape), tape)
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, np.ones((1, 3)))


def test_backward_quadratic():
    # mean of w^2: gradient 2w/n
    w = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    tape = ad.Tape()
    loss = ad.mse(w, _zeros(2), tape)
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, [1.0, 2.0], atol=1e-15)


def test_backward_requires_scalar_loss():
    w = ad.Tensor(np.ones((1, 3)), requires_grad=True)
    tape = ad.Tape()
    out = ad.linear(ad.Tensor(np.eye(1)), w, _zeros(3), tape, activation="tanh")
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_backward_detached_graph():
    tape = ad.Tape()
    loss = ad.Tensor(np.array(1.0))
    with pytest.raises(ValueError):
        tape.backward(loss)


def test_backward_refuses_a_loss_recorded_on_another_tape():
    w = ad.Tensor(np.ones((1, 1)), requires_grad=True)
    elsewhere = _unit_loss(w, ad.Tape())
    tape = ad.Tape()
    _unit_loss(w, tape)
    with pytest.raises(ValueError, match="detached"):
        tape.backward(elsewhere)
    assert w.grad is None


class _RuleTape(ad.Tape):
    """A tape that keeps the last backward rule recorded on it."""

    def record(self, out, inputs, backward_fn):
        super().record(out, inputs, backward_fn)
        self.rule = backward_fn


# each op: the shapes of its differentiable inputs, and a call on them
_OPS = {
    "linear": ([(2, 3), (3, 4), (4,)],
               lambda t, tape: ad.linear(*t, tape, activation="tanh")),
    "matmul_nt": ([(2, 3), (4, 3), ()],
                  lambda t, tape: ad.matmul_nt(t[0], t[1], tape, bias=t[2], offset=np.ones(4))),
    "mse": ([(2, 3), (2, 3)], lambda t, tape: ad.mse(*t, tape)),
    "scatter_add_rows": ([(2, 3), (3, 3)], lambda t, tape: ad.scatter_add_rows(
        [(t[0], [0, 2], [0.5, 1.0]), (t[1], [1, 2, 3], [1.0, 2.0, 3.0])], 4, tape)),
    "concat_columns": ([(2, 1), (2, 3), (2, 2)], lambda t, tape: ad.concat_columns(t, tape)),
}


@pytest.mark.parametrize("op", sorted(_OPS))
def test_an_op_returns_no_gradient_for_an_untracked_input(op):
    shapes, call = _OPS[op]
    rng = np.random.default_rng(4)
    for tracked in range(len(shapes)):
        inputs = [ad.Tensor(rng.normal(size=shape), requires_grad=i == tracked)
                  for i, shape in enumerate(shapes)]
        tape = _RuleTape()
        out = call(inputs, tape)
        grads = tape.rule(np.ones(out.data.shape))
        assert [g is None for g in grads] == [i != tracked for i in range(len(shapes))]


def test_backward_accumulates_without_reset():
    w = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    tape = ad.Tape()
    loss = _unit_loss(_total(w, tape), tape)
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, 2.0 * np.ones((1, 2)))


def test_first_gradient_is_an_owned_row_major_copy():
    # concat_columns hands each part a column slice of its adjoint; a
    # gradient kept as that view would alias the adjoint and not be
    # row-major
    w = ad.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    tape = ad.Tape()
    cat = ad.concat_columns([w, ad.Tensor(np.zeros((1, 3)))], tape)
    tape.backward(ad.mse(cat, _zeros(1, 5), tape))
    assert w.grad.flags.owndata and w.grad.flags.c_contiguous
    np.testing.assert_array_equal(w.grad, [[0.4, -0.8]])


def _random_two_layer(rng):
    w1 = ad.Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
    b1 = ad.Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
    w2 = ad.Tensor(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)
    b2 = ad.Tensor(rng.uniform(-1, 1, size=2), requires_grad=True)
    x = rng.uniform(-1, 1, size=(5, 3))
    return (w1, b1, w2, b2), x


def _mlp_loss(params, x, tape=None):
    w1, b1, w2, b2 = params
    h = ad.linear(ad.Tensor(x), w1, b1, tape, activation="tanh")
    out = ad.linear(h, w2, b2, tape)
    return ad.mse(out, _zeros(*out.shape), tape)


def central_difference_grads(loss_fn, params, h=1e-6):
    """Independent oracle: central differences over every parameter entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_gradient_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return np.max(np.abs(analytic - numeric) / scale)


def test_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    params, x = _random_two_layer(rng)
    tape = ad.Tape()
    loss = _mlp_loss(params, x, tape)
    tape.backward(loss)
    fd = central_difference_grads(lambda: _mlp_loss(params, x), params)
    for p, g in zip(params, fd):
        assert relative_gradient_error(p.grad, g) < 1e-5


def test_backward_linearity():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
    x = ad.Tensor(rng.uniform(-1, 1, size=(4, 4)))
    a, b = 0.7, -1.3

    def losses(tape):
        prod = ad.linear(x, w, _zeros(4), tape)
        l1 = ad.mse(prod, _zeros(4, 4), tape)  # 0-d
        l2 = _total(ad.linear(x, w, _zeros(4), tape, activation="tanh"), tape)  # (1, 1)
        return l1, l2

    tape = ad.Tape()
    l1, _ = losses(tape)
    tape.backward(l1)
    g1 = w.grad.copy()

    w.grad = None
    tape = ad.Tape()
    _, l2 = losses(tape)
    tape.backward(_unit_loss(l2, tape))
    g2 = w.grad.copy()

    w.grad = None
    tape = ad.Tape()
    l1, l2 = losses(tape)
    both = ad.concat_columns([_as_2d(l1, tape), l2], tape)
    combined = ad.linear(both, ad.Tensor([[a], [b]]), _zeros(1), tape)
    tape.backward(_unit_loss(combined, tape))
    np.testing.assert_allclose(w.grad, a * g1 + b * g2, atol=1e-12)


def test_backward_visits_each_node_once():
    # a node consumed by two ops gets its backward rule applied exactly once,
    # after both consumers contributed their adjoints
    w = ad.Tensor(np.array([[0.5, -0.25]]), requires_grad=True)
    tape = ad.Tape()
    shared = ad.linear(ad.Tensor(np.eye(1)), w, _zeros(2), tape, activation="tanh")  # tanh(w)
    a = ad.mse(shared, _zeros(1, 2), tape)  # sum of squares / 2
    b = _total(ad.scatter_add_rows([(shared, [0], [1.0]), (shared, [0], [1.0])], 1, tape), tape)
    both = ad.concat_columns([_as_2d(a, tape), b], tape)
    loss = ad.linear(both, ad.Tensor([[2.0], [1.0]]), _zeros(1), tape)
    tape.backward(_unit_loss(loss, tape))
    t = np.tanh(w.data)
    expected = (2.0 * t + 2.0) * (1.0 - t * t)
    np.testing.assert_allclose(w.grad, expected, atol=1e-15)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        w = ad.Tensor(rng.uniform(-1, 1, size=(6, 6)), requires_grad=True)
        x = ad.Tensor(rng.uniform(-1, 1, size=(3, 6)))
        tape = ad.Tape()
        out = ad.linear(x, w, _zeros(6), tape, activation="tanh")
        loss = ad.mse(out, _zeros(3, 6), tape)
        tape.backward(loss)
        return loss.data.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_structural_ops_match_finite_differences():
    # exercises scatter_add_rows (one input in two overlapping parts),
    # concat_columns, and the fused linear, matmul_nt (with a bias) and mse
    # with every input tracked
    rng = np.random.default_rng(5)
    a = ad.Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    s = ad.Tensor(np.array(0.3), requires_grad=True)
    m = ad.Tensor(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)
    c = ad.Tensor(rng.uniform(-1, 1, size=2), requires_grad=True)
    q = ad.Tensor(rng.uniform(-1, 1, size=(4, 5)), requires_grad=True)
    target = ad.Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)
    w = rng.uniform(0.1, 1.0, size=2)
    idx = np.array([1, 3])
    w2 = rng.uniform(0.1, 1.0, size=2)
    idx2 = np.array([3, 0])
    params = [a, s, m, c, q, target]

    def forward(tape=None):
        act = ad.linear(ad.Tensor(np.eye(2)), a, _zeros(3), tape, activation="tanh")  # tanh(a)
        placed = ad.scatter_add_rows([(act, idx, w), (act, idx2, w2)], 5, tape)  # (5, 3)
        right = ad.linear(placed, m, c, tape)                              # (5, 2)
        cat = ad.concat_columns([placed, right], tape)                     # (5, 5)
        t = ad.matmul_nt(cat, q, tape, bias=s)                             # (5, 4)
        return ad.mse(t, target, tape)

    tape = ad.Tape()
    loss = forward(tape)
    tape.backward(loss)
    fd = central_difference_grads(forward, params)
    for p, g in zip(params, fd):
        assert relative_gradient_error(np.asarray(p.grad), g) < 1e-5


def test_add_bias_and_row_const_backward():
    rng = np.random.default_rng(9)
    a = ad.Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)
    v = rng.uniform(-1, 1, size=3)

    def forward(tape=None):
        # a @ I and a @ I^T are exact, so this is (a + b) + v: linear's bias
        # add, then matmul_nt's constant offset row
        eye = ad.Tensor(np.eye(3))
        out = ad.matmul_nt(ad.linear(a, eye, b, tape), eye, tape, offset=v)
        return ad.mse(out, _zeros(4, 3), tape)

    tape = ad.Tape()
    loss = forward(tape)
    tape.backward(loss)
    fd = central_difference_grads(forward, [a, b])
    assert relative_gradient_error(a.grad, fd[0]) < 1e-5
    assert relative_gradient_error(b.grad, fd[1]) < 1e-5
