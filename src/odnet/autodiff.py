"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is deliberately small and shaped by the DeepONet hot path.
It has five ops:

- ``linear`` (a dense layer, ``act(x @ w + b)``, with the bias and an
  optional activation, ``"relu"``, ``"leaky_relu"`` or ``"tanh"``,
  applied in place on the product),
- ``matmul_nt`` (the ``branch @ trunk^T`` product, without a transpose,
  with the model's scalar bias and constant offset row added in place),
- ``mse`` (the training loss, from one residual),
- ``scatter_add_rows`` (PoU blending) and ``concat_columns`` (trunk
  stacking).

Each backward rule is short enough to audit by hand.

Ops take an optional ``tape``. With ``tape=None`` they evaluate forward
only; with a tape they append a backward rule in execution order, so the
record list is automatically in topological order and ``Tape.backward``
is a single reverse sweep that touches each node exactly once. Graph
membership is the tensor's flag, set on ``requires_grad`` leaves and by
``Tape.record``: an op records only if an input has it, and its rule
returns None for each input that lacks it. An activated layer puts one
record and one array on the tape: its backward rule takes the
activation's derivative from the output it already holds.

Everything is 64-bit and row-major. There is no broadcasting beyond the
explicit bias, scalar and row adds of ``linear`` and ``matmul_nt``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ShapeError


class Tensor:
    """A dense, row-major float64 array, optionally tracked for gradients.

    ``grad`` is set on first accumulation, with the shape of ``data``: a
    copy, or its slice of a gradient vector (``_grad_slot``) once
    ``_flat_parameters`` has laid it out, at element offset ``_at`` of its
    vector. Tensors that never participate in a recorded computation are
    plain immutable value carriers.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tracked", "_grad_slot", "_at")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote 0-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        # True once this tensor can influence a loss recorded on some tape.
        self._tracked = self.requires_grad
        self._grad_slot = self._at = None

    def __getstate__(self):
        """A copied or unpickled tensor owns its data and lies in no vector
        until ``_flat_parameters`` lays it out again."""
        state = {name: getattr(self, name) for name in self.__slots__}
        return None, {**state, "_grad_slot": None, "_at": None}

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    """Wrap ``x`` as an untracked constant Tensor (no-op if already one)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is not None:
        t.grad += g
    elif t._grad_slot is None:
        t.grad = np.array(g)  # a copy: g may be an adjoint or a view of one
    else:
        t._grad_slot[...] = g
        t.grad = t._grad_slot


def _flat_parameters(tensors):
    """(values, gradients): two float64 vectors holding ``tensors`` end to
    end, in order; each ``data`` and ``_grad_slot`` is a view into them.
    Tensors already laid out so, in this order, are adopted, so every
    holder sees one buffer; others are copied in, and this is the only
    place that rebinds ``data``. A tensor listed twice, or one that lies in
    a buffer out of this order, is a ValueError."""
    tensors = list(tensors)
    if len({id(t) for t in tensors}) != len(tensors):
        raise ValueError("a parameter tensor is listed more than once")
    bounds = list(itertools.accumulate((t.data.size for t in tensors), initial=0))
    laid_out = [t._grad_slot is not None for t in tensors]
    if tensors and all(laid_out):
        values, grads, at0 = tensors[0].data.base, tensors[0]._grad_slot.base, tensors[0]._at
        if all(t.data.base is values and t._at == at0 + lo for t, lo in zip(tensors, bounds)):
            return values[at0:at0 + bounds[-1]], grads[at0:at0 + bounds[-1]]
    if any(laid_out):
        raise ValueError("parameter tensors already lie in a buffer, but not in this order")
    values = np.concatenate([t.data.ravel() for t in tensors] or [np.zeros(0)])
    grads = np.zeros_like(values)
    for t, lo, hi in zip(tensors, bounds, bounds[1:]):
        t.data = values[lo:hi].reshape(t.data.shape)
        t._grad_slot = grads[lo:hi].reshape(t.data.shape)
        t._at = lo
    return values, grads


class Tape:
    """Execution-ordered record of differentiable operations.

    Ops append records during the forward pass, so every node's inputs
    precede it and the backward pass is one reverse sweep. A node is a
    tensor with the graph flag; the tape keeps no registry of them.
    Adjoints of intermediates live in a scratch dict keyed by identity;
    only ``requires_grad`` tensors receive (and accumulate) ``.grad``.
    Calling ``backward`` twice without resetting grads accumulates.

    A rule owns the adjoint it receives and may overwrite it: every rule
    returns fresh arrays or disjoint column views of its own adjoint, and
    ``backward`` pops each adjoint before its rule runs, so no other
    holder sees the write.
    """

    def __init__(self):
        self._records = []  # (out, inputs, backward_fn)

    def __len__(self):
        return len(self._records)

    def record(self, out: Tensor, inputs, backward_fn):
        out._tracked = True
        self._records.append((out, inputs, backward_fn))

    def first_nonfinite(self):
        """(op name, shape) of the first record whose output holds a NaN
        or an infinity, or None. Meant for diagnosing a failed step; the
        op name is the function that recorded the backward rule."""
        for out, _, backward_fn in self._records:
            if not np.isfinite(out.data).all():
                return backward_fn.__qualname__.partition(".")[0], out.data.shape
        return None

    def backward(self, loss: Tensor):
        """Populate ``.grad`` of every ``requires_grad`` tensor reachable
        from ``loss``, the output of one of this tape's records."""
        if loss.data.ndim != 0:
            raise ShapeError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        if not any(out is loss for out, _, _ in self._records):
            raise ValueError("loss tensor is not attached to this tape (detached graph)")
        adjoint = {id(loss): np.ones((), dtype=np.float64)}
        for out, inputs, backward_fn in reversed(self._records):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None:
                    continue
                if t.requires_grad:
                    _accumulate(t, gi)
                else:
                    key = id(t)
                    adjoint[key] = adjoint[key] + gi if key in adjoint else gi


def _check_2d(t: Tensor, op: str):
    if t.data.ndim != 2:
        raise ShapeError(f"{op}: expected a 2-d tensor, got shape {t.data.shape}")


LEAKY_SLOPE = 0.01  # leaky_relu's slope on the negative side

# name -> (forward, in place on the product; derivative, read off the output): out > 0
# exactly where the input was > 0 (leaky_relu's slope being positive); tanh' = 1 - tanh^2.
_ACTIVATION = {
    "relu": (lambda a: np.maximum(a, 0.0, out=a), lambda out: out > 0.0),
    "leaky_relu": (lambda a: np.multiply(a, LEAKY_SLOPE, out=a, where=~(a > 0.0)),
                   lambda out: np.where(out > 0.0, 1.0, LEAKY_SLOPE)),
    "tanh": (lambda a: np.tanh(a, out=a), lambda out: 1.0 - out * out),
}
ACTIVATIONS = tuple(_ACTIVATION)


def linear(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None, *,
           activation: str | None = None) -> Tensor:
    """Dense layer act(x @ w + b): the (n,) bias is added to every row and
    the activation (None, or one of ``ACTIVATIONS``) applied, both in
    place on the product. Each step rounds as a separate op would.

    Backward, with g_a = g * act'(out): grad_x = g_a wT, grad_w = xT g_a,
    grad_b = column sums of g_a. act' is taken from the output, so the
    tape keeps no mask, slope or pre-activation array.
    """
    _check_2d(x, "linear")
    _check_2d(w, "linear")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(
            f"linear: inner dimensions disagree ({x.data.shape[1]} vs {w.data.shape[0]})"
        )
    if b.data.ndim != 1 or b.data.shape[0] != w.data.shape[1]:
        raise ShapeError(
            f"linear: bias shape {b.data.shape} does not match columns of {w.data.shape}"
        )
    if activation is not None and activation not in _ACTIVATION:
        raise ValueError(f"linear: unknown activation {activation!r}")
    forward, derivative = _ACTIVATION.get(activation, (None, None))
    data = x.data @ w.data
    data += b.data
    if forward is not None:
        forward(data)
    out = Tensor(data)
    if tape is not None and (x._tracked or w._tracked or b._tracked):
        xdata, wdata = x.data, w.data
        need_x, need_w, need_b = x._tracked, w._tracked, b._tracked

        def backward_fn(g):
            if derivative is not None:  # in place in the adjoint g (see ``Tape``)
                np.multiply(g, derivative(data), out=g)
            gx = g @ wdata.T if need_x else None
            gw = xdata.T @ g if need_w else None
            gb = g.sum(axis=0) if need_b else None
            return gx, gw, gb

        tape.record(out, (x, w, b), backward_fn)
    return out


def matmul_nt(a: Tensor, b: Tensor, tape: Tape | None = None, *,
              bias: Tensor | None = None, offset=None) -> Tensor:
    """a @ b^T without a transposed copy of b: (m, k) x (n, k) -> (m, n),
    then, in place and in this order, an optional 0-d ``bias`` added to
    every entry and an optional constant (n,) ``offset`` row added to every
    row (no gradient to it). Each add rounds as a separate ``+`` would.

    Backward: grad_a = g b, grad_b = gT a, grad_bias = sum of g.
    """
    _check_2d(a, "matmul_nt")
    _check_2d(b, "matmul_nt")
    if a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(
            f"matmul_nt: inner dimensions disagree ({a.data.shape[1]} vs {b.data.shape[1]})"
        )
    if bias is not None and bias.data.ndim != 0:
        raise ShapeError(f"matmul_nt: bias must be 0-d, got shape {bias.data.shape}")
    if offset is not None:
        offset = np.asarray(offset, dtype=np.float64)
        if offset.shape != (b.data.shape[0],):
            raise ShapeError(
                f"matmul_nt: offset shape {offset.shape} does not match the "
                f"{b.data.shape[0]} columns of the product"
            )
    data = a.data @ b.data.T
    if bias is not None:
        data += bias.data
    if offset is not None:
        data += offset
    out = Tensor(data)
    need_s = bias is not None and bias._tracked
    if tape is not None and (a._tracked or b._tracked or need_s):
        adata, bdata = a.data, b.data
        need_a, need_b = a._tracked, b._tracked

        def backward_fn(g):
            ga = g @ bdata if need_a else None
            gb = g.T @ adata if need_b else None
            gs = np.asarray(g.sum()) if need_s else None
            return ga, gb, gs

        tape.record(out, (a, b, bias), backward_fn)
    return out


def mse(pred: Tensor, target: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean over all entries of (pred - target)^2, from one residual r.

    Backward: grad_pred = r * (g * 2/n) and grad_target = its negation.
    Scaling by 2 is exact, so this equals 2 * (r * (1/n)) bit for bit.
    """
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: shapes {pred.data.shape} and {target.data.shape} differ")
    r = pred.data - target.data
    out = Tensor((r * r).mean())
    if tape is not None and (pred._tracked or target._tracked):
        need_p, need_t = pred._tracked, target._tracked
        two_over_n = 2.0 / r.size

        def backward_fn(g):
            gp = r * (float(g) * two_over_n)
            return (gp if need_p else None, -gp if need_t else None)

        tape.record(out, (pred, target), backward_fn)
    return out


def scatter_add_rows(parts, n_rows: int, tape: Tape | None = None) -> Tensor:
    """Weighted rows scattered into one (n_rows, cols) sum: starting from
    zeros, ``out[idx] += a * w[:, None]`` for each ``(a, idx, w)`` part, in
    the order given. ``idx`` must not repeat a row within one part.

    Backward: grad_a = g[idx] * w[:, None] for each part.
    """
    parts = [(a, np.asarray(idx, dtype=np.intp), np.asarray(w, dtype=np.float64))
             for a, idx, w in parts]
    if not parts:
        raise ShapeError("scatter_add_rows: need at least one part")
    for a, idx, w in parts:
        _check_2d(a, "scatter_add_rows")
        rows, cols = a.data.shape
        if cols != parts[0][0].data.shape[1]:
            raise ShapeError(
                f"scatter_add_rows: column counts differ "
                f"({parts[0][0].data.shape[1]} vs {cols})"
            )
        if idx.shape != (rows,) or w.shape != (rows,):
            raise ShapeError(
                f"scatter_add_rows: index shape {idx.shape} and weights shape "
                f"{w.shape} must both be ({rows},)"
            )
    data = np.zeros((int(n_rows), cols), dtype=np.float64)
    for a, idx, w in parts:
        data[idx] += a.data * w[:, None]
    out = Tensor(data)
    needs = [a._tracked for a, _, _ in parts]
    if tape is not None and any(needs):

        def backward_fn(g):
            return tuple(
                g[idx] * w[:, None] if need else None
                for (_, idx, w), need in zip(parts, needs)
            )

        tape.record(out, tuple(a for a, _, _ in parts), backward_fn)
    return out


def concat_columns(parts, tape: Tape | None = None) -> Tensor:
    """Column-wise concatenation of 2-d tensors with equal row counts."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_columns: need at least one tensor")
    rows = parts[0].data.shape[0]
    for p in parts:
        _check_2d(p, "concat_columns")
        if p.data.shape[0] != rows:
            raise ShapeError(
                f"concat_columns: row counts differ ({rows} vs {p.data.shape[0]})"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None and any(p._tracked for p in parts):
        widths = [p.data.shape[1] for p in parts]
        offsets = np.cumsum([0] + widths)
        needs = [p._tracked for p in parts]

        def backward_fn(g):
            return tuple(
                g[:, offsets[i]:offsets[i + 1]] if needs[i] else None
                for i in range(len(widths))
            )

        tape.record(out, tuple(parts), backward_fn)
    return out
