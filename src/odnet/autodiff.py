"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is deliberately small and shaped by the DeepONet hot path:

- ``linear`` (a dense layer, ``x @ w + b``),
- ``matmul_nt`` (the ``branch @ trunk^T`` product, without a transpose),
- ``mse`` (the training loss, from one residual),
- ``add``, ``add_scalar`` and ``add_row_const`` (sums and broadcasts),
- ``scale_rows``, ``embed_rows`` and ``concat_columns`` (PoU blending and
  trunk stacking),
- ``relu``, ``leaky_relu`` and ``tanh`` (activations).

Each backward rule is short enough to audit by hand.

Ops take an optional ``tape``. With ``tape=None`` they evaluate forward
only; with a tape they append a backward rule in execution order, so the
record list is automatically in topological order and ``Tape.backward``
is a single reverse sweep that touches each node exactly once.

Everything is 64-bit and row-major. There is no broadcasting beyond the
explicit bias/row/scalar ops below.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


class Tensor:
    """A dense, row-major float64 array, optionally tracked for gradients.

    ``grad`` is allocated lazily on first accumulation and has the same
    shape as ``data``. Tensors that never participate in a recorded
    computation are plain immutable value carriers.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote 0-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        # True once this tensor can influence a loss recorded on some tape.
        self._tracked = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    """Wrap ``x`` as an untracked constant Tensor (no-op if already one)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


class Tape:
    """Execution-ordered record of differentiable operations.

    Ops append records during the forward pass, so every node's inputs
    precede it and the backward pass is one reverse sweep. Adjoints of
    intermediates live in a scratch dict keyed by node identity; only
    tensors with ``requires_grad`` receive (and accumulate) ``.grad``.
    Calling ``backward`` twice without resetting grads accumulates.
    """

    def __init__(self):
        self._records = []  # (out, inputs, backward_fn)
        self._produced = set()  # id() of every op output on this tape

    def __len__(self):
        return len(self._records)

    def record(self, out: Tensor, inputs, backward_fn):
        out._tracked = True
        self._records.append((out, inputs, backward_fn))
        self._produced.add(id(out))

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
        from ``loss``."""
        if loss.data.ndim != 0:
            raise ShapeError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        if id(loss) not in self._produced:
            raise ValueError("loss tensor is not attached to this tape (detached graph)")
        adjoint = {id(loss): np.ones((), dtype=np.float64)}
        for out, inputs, backward_fn in reversed(self._records):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or not t._tracked:
                    continue
                if t.requires_grad:
                    _accumulate(t, gi)
                if id(t) in self._produced:
                    key = id(t)
                    if key in adjoint:
                        adjoint[key] = adjoint[key] + gi
                    else:
                        adjoint[key] = gi


def _check_2d(t: Tensor, op: str):
    if t.data.ndim != 2:
        raise ShapeError(f"{op}: expected a 2-d tensor, got shape {t.data.shape}")


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def linear(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Dense layer x @ w + b, with the (n,) bias added to every row in place.

    Backward: grad_x = g wT, grad_w = xT g, grad_b = column sums of g.
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
    data = x.data @ w.data
    data += b.data
    out = Tensor(data)
    if tape is not None and (x._tracked or w._tracked or b._tracked):
        xdata, wdata = x.data, w.data
        need_x, need_w, need_b = x._tracked, w._tracked, b._tracked

        def backward_fn(g):
            gx = g @ wdata.T if need_x else None
            gw = xdata.T @ g if need_w else None
            gb = g.sum(axis=0) if need_b else None
            return gx, gw, gb

        tape.record(out, (x, w, b), backward_fn)
    return out


def matmul_nt(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """a @ b^T without a transposed copy of b: (m, k) x (n, k) -> (m, n).

    Backward: grad_a = g b, grad_b = gT a.
    """
    _check_2d(a, "matmul_nt")
    _check_2d(b, "matmul_nt")
    if a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(
            f"matmul_nt: inner dimensions disagree ({a.data.shape[1]} vs {b.data.shape[1]})"
        )
    out = Tensor(a.data @ b.data.T)
    if tape is not None and (a._tracked or b._tracked):
        adata, bdata = a.data, b.data
        need_a, need_b = a._tracked, b._tracked

        def backward_fn(g):
            ga = g @ bdata if need_a else None
            gb = g.T @ adata if need_b else None
            return ga, gb

        tape.record(out, (a, b), backward_fn)
    return out


def mse(pred: Tensor, target: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean over all entries of (pred - target)^2, from one residual r.

    Backward: grad_pred = r * (g * 2/n) and grad_target = its negation.
    Scaling by 2 is exact, so this equals 2 * (r * (1/n)) bit for bit.
    """
    _check_same_shape(pred, target, "mse")
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


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    if tape is not None and (a._tracked or b._tracked):
        need_a, need_b = a._tracked, b._tracked

        def backward_fn(g):
            return (g if need_a else None, g if need_b else None)

        tape.record(out, (a, b), backward_fn)
    return out


def add_scalar(a: Tensor, s: Tensor, tape: Tape | None = None) -> Tensor:
    """Broadcast-add a 0-d tensor (e.g. the trainable output bias)."""
    if s.data.ndim != 0:
        raise ShapeError(f"add_scalar: expected a 0-d tensor, got shape {s.data.shape}")
    out = Tensor(a.data + s.data)
    if tape is not None and (a._tracked or s._tracked):
        need_a, need_s = a._tracked, s._tracked

        def backward_fn(g):
            ga = g if need_a else None
            gs = np.asarray(g.sum()) if need_s else None
            return ga, gs

        tape.record(out, (a, s), backward_fn)
    return out


def add_row_const(a: Tensor, v: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Add a constant row vector to every row of ``a`` (no gradient to v)."""
    _check_2d(a, "add_row_const")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != a.data.shape[1]:
        raise ShapeError(
            f"add_row_const: vector shape {v.shape} does not match columns of {a.data.shape}"
        )
    out = Tensor(a.data + v[None, :])
    if tape is not None and a._tracked:
        tape.record(out, (a,), lambda g: (g,))
    return out


def scale_rows(a: Tensor, w: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Scale row i of ``a`` by the constant weight w[i]."""
    _check_2d(a, "scale_rows")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != a.data.shape[0]:
        raise ShapeError(
            f"scale_rows: weights shape {w.shape} does not match rows of {a.data.shape}"
        )
    col = w[:, None]
    out = Tensor(a.data * col)
    if tape is not None and a._tracked:
        tape.record(out, (a,), lambda g: (g * col,))
    return out


def embed_rows(a: Tensor, idx: np.ndarray, n_rows: int, tape: Tape | None = None) -> Tensor:
    """Place the rows of ``a`` at positions ``idx`` of an otherwise-zero
    (n_rows, a.cols) tensor. ``idx`` must not contain duplicates."""
    _check_2d(a, "embed_rows")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(
            f"embed_rows: index shape {idx.shape} does not match rows of {a.data.shape}"
        )
    data = np.zeros((int(n_rows), a.data.shape[1]), dtype=np.float64)
    data[idx] = a.data
    out = Tensor(data)
    if tape is not None and a._tracked:
        tape.record(out, (a,), lambda g: (g[idx],))
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


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if tape is not None and a._tracked:
        mask = a.data > 0.0
        tape.record(out, (a,), lambda g: (g * mask,))
    return out


def leaky_relu(a: Tensor, alpha: float = 0.01, tape: Tape | None = None) -> Tensor:
    """Leaky ReLU with slope ``alpha`` on the negative side (default 0.01)."""
    slope = np.where(a.data > 0.0, 1.0, alpha)
    out = Tensor(a.data * slope)
    if tape is not None and a._tracked:
        tape.record(out, (a,), lambda g: (g * slope,))
    return out


def tanh(a: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.tanh(a.data))
    if tape is not None and a._tracked:
        odata = out.data
        tape.record(out, (a,), lambda g: (g * (1.0 - odata * odata),))
    return out
