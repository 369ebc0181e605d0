"""Trunk members (vanilla MLP, POD, modified POD, PoU mixture-of-experts)
and their column-wise stacking under a single wide branch.

The model prediction for an input-function batch U (B_u, N_x) and output
locations Y (B_y, d_v) is

    branch(U) @ trunk(Y)^T  [+ b0]  [+ mean-function offset]

where trunk(Y) stacks every member's columns in declaration order, the
scalar bias b0 is present unless the model is a standalone standard-POD
DeepONet, and the offset row appears when a standard (non-modified) POD
member is in the ensemble.

Patch summation in the PoU member always runs sequentially in declared
patch order, so results are bit-reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .networks import MLP
from .partition import PatchSet, pou_weight_matrix
from .pod import PODBasis, trunk_matrix


class VanillaTrunk:
    """A plain MLP trunk; the last layer is activated."""

    kind = "vanilla"

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

    def forward(self, y, tape=None) -> ad.Tensor:
        return self.mlp.forward(y, tape)

    def parameters(self):
        return self.mlp.parameters()

    def weight_tensors(self):
        return self.mlp.weight_tensors()

    def basis_column(self, y, column: int) -> np.ndarray:
        return self.forward(y).data[:, column].copy()


class PODTrunk:
    """Data-driven constant trunk; no trainable parameters.

    Columns are served at training output locations only: rows of Y are
    matched bit-exactly against the basis locations.
    """

    def __init__(self, basis: PODBasis, p: int, modified: bool):
        if basis.y_locations is None:
            raise ValueError("PODTrunk needs a basis with attached y_locations")
        self.basis = basis
        self.modified = bool(modified)
        self._p = int(p)
        self.columns, self.offset = trunk_matrix(basis, p, modified)
        self._row_index = {
            basis.y_locations[i].tobytes(): i for i in range(basis.n_locations)
        }
        self._cache_key = None
        self._cache_rows = None

    @property
    def kind(self):
        return "pod_modified" if self.modified else "pod"

    @property
    def p(self):
        return self._p

    @property
    def input_dim(self):
        return self.basis.y_locations.shape[1]

    def row_indices(self, y) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.input_dim:
            raise ShapeError(
                f"POD trunk: locations shape {y.shape} does not match d_v {self.input_dim}"
            )
        key = y.tobytes()
        if key == self._cache_key:
            return self._cache_rows
        try:
            rows = np.array([self._row_index[y[i].tobytes()] for i in range(y.shape[0])])
        except KeyError:
            raise IndexError(
                "POD trunk evaluated off the training locations Y; "
                "modes exist only at training sample locations"
            ) from None
        self._cache_key = key
        self._cache_rows = rows
        return rows

    def forward(self, y, tape=None) -> ad.Tensor:
        rows = self.row_indices(np.asarray(y.data if isinstance(y, ad.Tensor) else y))
        return ad.Tensor(self.columns[rows])

    def offset_at(self, y):
        """Additive mean-function values (standard flavor only)."""
        if self.offset is None:
            return None
        rows = self.row_indices(np.asarray(y))
        return self.offset[rows]

    def parameters(self):
        return []

    def weight_tensors(self):
        return []

    def basis_column(self, y, column: int) -> np.ndarray:
        """Unscaled basis function values (phi0 or an eigenmode)."""
        rows = self.row_indices(np.asarray(y))
        if self.modified:
            if column == 0:
                return self.basis.mean_function[rows].copy()
            return self.basis.modes[rows, column - 1].copy()
        return self.basis.modes[rows, column].copy()


class PoUTrunk:
    """Spatial mixture of expert MLPs blended by partition-of-unity weights.

    Only experts with nonzero weight at a point contribute there, and
    only those experts receive gradients from that point.
    """

    kind = "pou"

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
        self._p = int(p)

    @property
    def p(self):
        return self._p

    @property
    def input_dim(self):
        return self.patchset.dimension

    def forward(self, y, tape=None) -> ad.Tensor:
        y = np.asarray(y.data if isinstance(y, ad.Tensor) else y, dtype=np.float64)
        weights = pou_weight_matrix(self.patchset, y, strict=True)
        n = y.shape[0]
        acc = None
        for k, expert in enumerate(self.experts):
            wk = weights[:, k]
            idx = np.flatnonzero(wk > 0.0)
            if idx.size == 0:
                continue
            out_k = expert.forward(y[idx], tape)
            out_k = ad.scale_rows(out_k, wk[idx], tape)
            placed = ad.embed_rows(out_k, idx, n, tape)
            acc = placed if acc is None else ad.add(acc, placed, tape)
        if acc is None:
            acc = ad.Tensor(np.zeros((n, self._p)))
        return acc

    def parameters(self):
        return [t for e in self.experts for t in e.parameters()]

    def weight_tensors(self):
        return [t for e in self.experts for t in e.weight_tensors()]

    def basis_column(self, y, column: int) -> np.ndarray:
        """One blended column; exactly 0 at points outside every patch."""
        y = np.asarray(y, dtype=np.float64)
        weights = pou_weight_matrix(self.patchset, y, strict=False)
        col = np.zeros(y.shape[0])
        for k, expert in enumerate(self.experts):
            idx = np.flatnonzero(weights[:, k] > 0.0)
            if idx.size == 0:
                continue
            col[idx] += weights[idx, k] * expert.forward(y[idx]).data[:, column]
        return col


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

    @property
    def input_dim(self):
        return self.branch.config.input_dim

    @property
    def location_dim(self):
        return self.members[0].input_dim

    def trunk_forward(self, y, tape=None) -> ad.Tensor:
        """Column-wise concatenation of member outputs, declaration order."""
        outs = [m.forward(y, tape) for m in self.members]
        if len(outs) == 1:
            return outs[0]
        return ad.concat_columns(outs, tape)

    def _offset_row(self, y):
        offsets = None
        for m in self.members:
            if isinstance(m, PODTrunk):
                o = m.offset_at(y)
                if o is not None:
                    offsets = o if offsets is None else offsets + o
        return offsets

    def predict(self, u, y, tape=None) -> ad.Tensor:
        """Prediction matrix of shape (B_u, B_y)."""
        u = ad.as_tensor(u)
        if u.data.ndim != 2 or u.data.shape[1] != self.input_dim:
            raise ShapeError(
                f"predict: input-function samples have N_x={u.data.shape[1] if u.data.ndim == 2 else u.data.shape}, "
                f"branch expects N_x={self.input_dim}"
            )
        y_arr = np.asarray(y.data if isinstance(y, ad.Tensor) else y, dtype=np.float64)
        branch_out = self.branch.forward(u, tape)
        trunk_out = self.trunk_forward(y_arr, tape)
        pred = ad.matmul_nt(branch_out, trunk_out, tape)
        if self.bias is not None:
            pred = ad.add_scalar(pred, self.bias, tape)
        offsets = self._offset_row(y_arr)
        if offsets is not None:
            pred = ad.add_row_const(pred, offsets, tape)
        return pred

    def parameters(self):
        params = [t for m in self.members for t in m.parameters()]
        params.extend(self.branch.parameters())
        if self.bias is not None:
            params.append(self.bias)
        return params

    def weight_tensors(self):
        ws = [t for m in self.members for t in m.weight_tensors()]
        ws.extend(self.branch.weight_tensors())
        return ws

    def zero_grad(self):
        for t in self.parameters():
            t.zero_grad()

    def parameter_hash(self) -> str:
        crc = 0
        for t in self.parameters():
            crc = zlib.crc32(np.ascontiguousarray(t.data).tobytes(), crc)
        return f"{crc:08x}"


def export_basis(model: EnsembleModel, y, column_index: int) -> np.ndarray:
    """Sample one trunk column over ``y`` for inspection/plotting.

    POD columns are returned unscaled (the raw basis functions); PoU
    columns evaluate to exactly 0 at points no patch covers.
    """
    column_index = int(column_index)
    if column_index < 0 or column_index >= model.total_p:
        raise IndexError(
            f"column {column_index} out of range [0, {model.total_p})"
        )
    offset = 0
    for m in model.members:
        if column_index < offset + m.p:
            return m.basis_column(np.asarray(y, dtype=np.float64), column_index - offset)
        offset += m.p
    raise AssertionError("unreachable")
