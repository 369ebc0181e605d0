"""Trunk members (vanilla MLP, POD, modified POD, PoU mixture-of-experts)
and their column-wise stacking under a single wide branch.

The model prediction for an input-function batch U (B_u, N_x) and output
locations Y (B_y, d_v) is

    branch(U) @ trunk(Y)^T  [+ b0]  [+ mean-function offset]

where trunk(Y) stacks every member's columns in declaration order, the
scalar bias b0 is present unless the model is a standalone standard-POD
DeepONet, and the offset row appears when a standard (non-modified) POD
member is in the ensemble.

A model keeps one entry for the last locations it served, keyed by the
shape and bytes of Y, and taped and untaped predictions both go through
it. On a new Y each member's ``bind`` works out once what depends only on
the locations: Y itself for a vanilla member, a read-only view of the
key's bytes, so the entry holds Y once; the rows and constant columns for
a POD member; one ``(expert, idx, y[idx], w[idx])`` entry per active patch
for the PoU member; and the summed offset row. The parts hold experts, not
their outputs, so they stay valid while weights change: taped training
passes Y every step and re-runs the trunk on the same parts. PoU patches
are summed sequentially in declared order, so results are bit-reproducible.

At fixed locations trunk(Y) does not depend on the input function, so an
untaped call also keeps the trunk matrix (read-only) in the entry, with a
``uint64`` copy of the trunk members' parameters: every trainable tensor
is a view into one vector the model owns, in ``parameters()`` order, and
those are its prefix. One compare of bits decides reuse, so -0.0 over 0.0
or a new NaN payload counts as a change: an optimizer step or an in-place
edit evaluates the trunk again, and a new Y (or the same array changed in
place) replaces the entry. Rebinding a parameter's ``data`` is not
supported. The branch and one product, with the bias and the offset
added in place, run on every call, so outputs are the same bits either
way. POD columns are constants of the basis, and PoU patch arrays are
read-only, so neither is checked. The entry holds no reference to its
model, so a dead model is freed at once.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .networks import MLP
from .partition import PatchSet, pou_weight_matrix
from .pod import PODBasis


class VanillaTrunk:
    """A plain MLP trunk; the last layer is activated."""

    offset = None  # no additive mean-function row

    def __init__(self, mlp: MLP):
        if not mlp.config.activate_last:
            raise ValueError("trunk networks must activate their last layer")
        self.mlp = mlp

    @property
    def p(self):
        return self.mlp.config.output_dim

    @property
    def input_dim(self):
        return self.mlp.config.input_dim

    def bind(self, y) -> np.ndarray:
        """The locations, uncopied: a model passes the read-only Y of its entry."""
        return np.asarray(y, dtype=np.float64)

    def forward(self, y, tape=None) -> ad.Tensor:
        return self.mlp.forward(y, tape)

    def parameters(self):
        return self.mlp.parameters()

    def basis_columns(self, y, columns) -> np.ndarray:
        return self.forward(self.bind(y)).data[:, columns]


class PODRows(NamedTuple):
    """A POD member bound to Y: basis rows and the constant trunk columns."""

    rows: np.ndarray
    columns: ad.Tensor


class PODTrunk:
    """Data-driven constant trunk; no trainable parameters.

    Two flavours, after POD-DeepONet. The standard trunk's columns are the
    p modes, and the mean function phi0 is added to every prediction as
    an offset row. The modified trunk's columns are phi0 and the first p-1
    modes, with no offset. One unscaled table holds the columns: the
    trunk serves it divided by p, and ``basis_columns`` returns it as is.

    Columns are served at training output locations only: rows of Y are
    matched bit-exactly against the basis locations.
    """

    def __init__(self, basis: PODBasis, p: int, modified: bool):
        if basis.y_locations is None:
            raise ValueError("PODTrunk needs a basis with attached y_locations")
        if basis.n_modes != int(p):
            raise ValueError(f"POD trunk of width p={p} needs a basis of exactly p modes, "
                             f"not {basis.n_modes}")
        self.basis = basis
        self.p = int(p)
        if modified:
            self._table = np.column_stack([basis.mean_function, basis.modes[:, :self.p - 1]])
            self.offset = None
        else:
            self._table, self.offset = basis.modes, basis.mean_function
        self.columns = self._table / self.p

    @property
    def input_dim(self):
        return self.basis.y_locations.shape[1]

    def bind(self, y) -> PODRows:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.input_dim:
            raise ShapeError(
                f"POD trunk: locations shape {y.shape} does not match d_v {self.input_dim}"
            )
        # Exact-byte lookup: the last of equal basis rows wins, -1 marks a miss.
        index = {row.tobytes(): i for i, row in enumerate(self.basis.y_locations)}
        rows = np.array([index.get(row.tobytes(), -1) for row in y], dtype=np.intp)
        if np.any(rows < 0):
            raise IndexError("POD trunk evaluated off the training locations Y; "
                             "modes exist only at training sample locations")
        columns = self.columns[rows]
        columns.flags.writeable = False
        return PODRows(rows, ad.Tensor(columns))

    def forward(self, bound: PODRows, tape=None) -> ad.Tensor:
        """The constant columns at the bound locations."""
        return bound.columns

    def parameters(self):
        return []

    def basis_columns(self, y, columns) -> np.ndarray:
        """Unscaled basis function values (phi0 or an eigenmode)."""
        return self._table[np.ix_(self.bind(y).rows, columns)]


class PoUPatches(NamedTuple):
    """A PoU member bound to Y: its row count and active patches."""

    n_rows: int
    patches: tuple


class PoUTrunk:
    """Spatial mixture of expert MLPs blended by partition-of-unity weights.

    Only experts with nonzero weight at a point contribute there, and
    only those experts receive gradients from that point.
    """

    offset = None  # no additive mean-function row

    def __init__(self, patchset: PatchSet, experts, p: int):
        experts = list(experts)
        if len(experts) != len(patchset):
            raise ValueError("need exactly one expert per patch")
        for e in experts:
            if e.config.output_dim != int(p):
                raise ValueError("all experts must share the trunk output dim p")
            if not e.config.activate_last:
                raise ValueError("trunk networks must activate their last layer")
            if e.config.input_dim != patchset.dimension:
                raise ShapeError("expert input dim must equal the patch dimension")
        self.patchset = patchset
        self.experts = experts
        self.p = int(p)

    @property
    def input_dim(self):
        return self.patchset.dimension

    def bind(self, y, strict: bool = True) -> PoUPatches:
        """One (expert, idx, y[idx], w[idx]) entry per patch active in y, in
        declared order; strict=False lets uncovered points through."""
        y = np.asarray(y, dtype=np.float64)
        weights = pou_weight_matrix(self.patchset, y, strict=strict)
        patches = []
        for k, expert in enumerate(self.experts):
            wk = weights[:, k]
            idx = np.flatnonzero(wk > 0.0)
            if idx.size:
                patches.append((expert, idx, y[idx], wk[idx]))
        return PoUPatches(y.shape[0], tuple(patches))

    def forward(self, bound: PoUPatches, tape=None) -> ad.Tensor:
        """Active experts at their points, blended in declared patch order."""
        if not bound.patches:
            return ad.Tensor(np.zeros((bound.n_rows, self.p)))
        parts = [(expert.forward(y_k, tape), idx, w_k)
                 for expert, idx, y_k, w_k in bound.patches]
        return ad.scatter_add_rows(parts, bound.n_rows, tape)

    def parameters(self):
        return [t for e in self.experts for t in e.parameters()]

    def basis_columns(self, y, columns) -> np.ndarray:
        """Blended columns; exactly 0 at points outside every patch."""
        return self.forward(self.bind(y, strict=False)).data[:, columns]


class _Served(NamedTuple):
    """What a model keeps of the last locations it served."""

    key: tuple  # (shape, bytes) of Y
    parts: tuple  # one per member, what its forward takes
    offset: np.ndarray | None  # summed mean-function rows of standard POD members
    trunk: ad.Tensor | None = None  # the untaped trunk matrix, read-only
    state: np.ndarray | None = None  # the trunk parameters' bits it came from, as uint64


class EnsembleModel:
    """Trunk members stacked column-wise under one branch network."""

    def __init__(self, members, branch: MLP, bias: ad.Tensor | None):
        members = list(members)
        if not members:
            raise ValueError("need at least one trunk member")
        total_p = sum(m.p for m in members)
        if branch.config.output_dim != total_p:
            raise ShapeError(
                f"branch output dim {branch.config.output_dim} must equal the "
                f"total trunk width {total_p}"
            )
        if branch.config.activate_last:
            raise ValueError("branch networks must not activate their last layer")
        d = members[0].input_dim
        for m in members:
            if m.input_dim != d:
                raise ShapeError("all trunk members must share the location dimension")
        self.members = members
        self.branch = branch
        self.bias = bias
        self.total_p = total_p
        self._served = None
        self._lay_out()

    def _lay_out(self):
        self._values = ad._flat_parameters(self.parameters())[0]
        n_trunk = sum(t.data.size for m in self.members for t in m.parameters())
        self._trunk_bits = self._values[:n_trunk].view(np.uint64)

    def __setstate__(self, state):
        """A deep copy or an unpickled model gets its tensors as separate
        arrays: lay them out in one vector again."""
        self.__dict__.update(state)
        self._lay_out()

    @property
    def input_dim(self):
        return self.branch.config.input_dim

    @property
    def location_dim(self):
        return self.members[0].input_dim

    def trunk_forward(self, parts, tape=None) -> ad.Tensor:
        """Column-wise concatenation of member outputs, declaration order;
        ``parts`` holds what each member's ``bind`` made of the locations."""
        outs = [m.forward(part, tape) for m, part in zip(self.members, parts)]
        if len(outs) == 1:
            return outs[0]
        return ad.concat_columns(outs, tape)

    def _served_at(self, y) -> _Served:
        """The entry for the locations ``y``; a Y of another shape or other
        bytes than the last one served is bound anew and replaces it."""
        y = np.asarray(y, dtype=np.float64)
        key = (y.shape, y.tobytes())
        if self._served is None or self._served.key != key:
            y = np.frombuffer(key[1]).reshape(y.shape)  # read-only, over the key's bytes
            parts = tuple(m.bind(y) for m in self.members)
            offsets = [m.offset[part.rows] for m, part in zip(self.members, parts)
                       if m.offset is not None]
            self._served = _Served(key, parts, sum(offsets[1:], offsets[0]) if offsets else None)
        return self._served

    def predict(self, u, y, tape=None) -> ad.Tensor:
        """Prediction matrix of shape (B_u, B_y) at the locations ``y``.
        Untaped calls reuse the trunk matrix of the last locations while
        it is current (see the module docstring)."""
        u = ad.as_tensor(u)
        if u.data.ndim != 2 or u.data.shape[1] != self.input_dim:
            raise ShapeError(
                f"predict: input-function samples have N_x={u.data.shape[1] if u.data.ndim == 2 else u.data.shape}, "
                f"branch expects N_x={self.input_dim}"
            )
        branch_out = self.branch.forward(u, tape)
        entry = self._served_at(y)
        if tape is not None:
            trunk_out = self.trunk_forward(entry.parts, tape)
        else:
            if entry.state is None or not (entry.state == self._trunk_bits).all():
                trunk = self.trunk_forward(entry.parts)
                trunk.data.flags.writeable = False
                entry = self._served = entry._replace(trunk=trunk, state=self._trunk_bits.copy())
            trunk_out = entry.trunk
        return ad.matmul_nt(branch_out, trunk_out, tape, bias=self.bias, offset=entry.offset)

    def parameters(self):
        params = [t for m in self.members for t in m.parameters()]
        params.extend(self.branch.parameters())
        if self.bias is not None:
            params.append(self.bias)
        return params

    def parameter_hash(self) -> str:
        """CRC32 of every parameter's bytes in ``parameters()`` order."""
        return f"{zlib.crc32(self._values):08x}"


def export_basis(model: EnsembleModel, y, columns) -> np.ndarray:
    """Sample trunk columns over ``y`` for inspection/plotting: a
    (B_y, len(columns)) array in the order given. Each member that owns a
    requested column is bound to ``y`` once.

    POD columns are returned unscaled (the raw basis functions); PoU
    columns evaluate to exactly 0 at points no patch covers.
    """
    columns = np.array([int(c) for c in columns], dtype=np.intp)
    for c in columns:
        if c < 0 or c >= model.total_p:
            raise IndexError(f"column {c} out of range [0, {model.total_p})")
    y = np.asarray(y, dtype=np.float64)
    out = np.empty((y.shape[0], columns.size))
    offset = 0
    for m in model.members:
        mine = np.flatnonzero((columns >= offset) & (columns < offset + m.p))
        if mine.size:
            out[:, mine] = m.basis_columns(y, columns[mine] - offset)
        offset += m.p
    return out
