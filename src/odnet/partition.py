"""Overlapping ball patches, the Wendland C2 kernel, and partition-of-unity
weights for the mixture-of-experts trunk.

A point is covered by a patch only if it lies strictly inside (the kernel
vanishes on the boundary). Weights are normalized kernels, so they are
nonnegative and sum to one wherever at least one patch covers the point.
"""

from __future__ import annotations

import numpy as np

from .errors import CoverageError, ShapeError


def wendland_c2(r):
    """Compactly supported Wendland kernel (1 - r)^4 (4 r + 1) for r <= 1,
    exactly 0 beyond; C2 at the support boundary."""
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("wendland_c2: radial distance must be nonnegative (domain error)")
    inside = arr <= 1.0
    one_minus = np.where(inside, 1.0 - arr, 0.0)
    val = one_minus ** 4 * (4.0 * arr + 1.0) * inside
    if np.isscalar(r) or arr.ndim == 0:
        return float(val)
    return val


class Patch:
    """One ball: center point and positive radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius: float):
        self.center = np.ascontiguousarray(center, dtype=np.float64).reshape(-1)
        self.radius = float(radius)
        if self.radius <= 0.0:
            raise ValueError("patch radius must be positive")

    @property
    def dimension(self):
        return self.center.shape[0]

    def __repr__(self):
        return f"Patch(center={self.center.tolist()}, radius={self.radius})"


class PatchSet:
    """Immutable collection of P same-dimension patches plus the overlap
    parameter delta used when the set was constructed."""

    def __init__(self, patches, delta: float = 0.0):
        patches = list(patches)
        if not patches:
            raise ValueError("PatchSet needs at least one patch")
        d = patches[0].dimension
        for p in patches:
            if p.dimension != d:
                raise ShapeError("all patches must share one dimension")
        self.patches = tuple(patches)
        self.dimension = d
        self.delta = float(delta)
        self._centers = np.stack([p.center for p in patches])
        self._radii = np.array([p.radius for p in patches])

    def __len__(self):
        return len(self.patches)

    @property
    def centers(self):
        return self._centers

    @property
    def radii(self):
        return self._radii


def kernel_matrix(ps: PatchSet, points: np.ndarray) -> np.ndarray:
    """Kernel values of every point against every patch, shape (B, P)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != ps.dimension:
        raise ShapeError(
            f"kernel_matrix: points shape {points.shape} does not match dimension {ps.dimension}"
        )
    diff = points[:, None, :] - ps.centers[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return wendland_c2(dist / ps.radii[None, :])


def pou_weight_matrix(ps: PatchSet, points: np.ndarray, strict: bool = True) -> np.ndarray:
    """Row-normalized kernel matrix, shape (B, P).

    strict=True raises CoverageError on any uncovered row; strict=False
    leaves uncovered rows as all zeros (used for basis exports).
    """
    psi = kernel_matrix(ps, points)
    denom = psi.sum(axis=1)
    uncovered = denom <= 0.0
    if np.any(uncovered):
        if strict:
            idx = np.flatnonzero(uncovered)
            raise CoverageError(
                f"{idx.size} point(s) not covered by any patch (first index {idx[0]})"
            )
        denom = np.where(uncovered, 1.0, denom)
    return psi / denom[:, None]


def coverage_check(ps: PatchSet, points) -> list:
    """Indices of points that lie strictly inside no patch (empty = covered)."""
    psi = kernel_matrix(ps, np.asarray(points, dtype=np.float64))
    return [int(i) for i in np.flatnonzero(psi.max(axis=1) <= 0.0)]


def grid_patch_centers(lows, highs, counts, selected=None) -> np.ndarray:
    """Centers of selected nodes of a Cartesian grid spanning the box.

    Grid nodes are uniformly spaced per axis and include the box corners.
    ``selected`` indexes the row-major flattening of the grid; None takes
    every node.
    """
    lows = np.asarray(lows, dtype=np.float64).reshape(-1)
    highs = np.asarray(highs, dtype=np.float64).reshape(-1)
    counts = [int(c) for c in np.asarray(counts).reshape(-1)]
    if not (len(lows) == len(highs) == len(counts)):
        raise ShapeError("grid_patch_centers: bounds and counts must share one length")
    if any(c < 1 for c in counts):
        raise ValueError("grid_patch_centers: counts must be >= 1 per axis")
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(lows, highs, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    if selected is None:
        return nodes
    selected = [int(i) for i in selected]
    n = nodes.shape[0]
    for i in selected:
        if i < 0 or i >= n:
            raise IndexError(f"grid_patch_centers: index {i} out of range [0, {n})")
    return nodes[selected]


def uniform_radius(delta: float, spacing: float, d: int) -> float:
    """Shared patch radius (1 + delta) * 0.5 * H * sqrt(d) for grid-placed
    centers with spacing H between neighbors."""
    if spacing <= 0.0:
        raise ValueError("uniform_radius: spacing H must be positive")
    if d < 1:
        raise ValueError("uniform_radius: dimension must be >= 1")
    if delta < 0.0:
        raise ValueError("uniform_radius: overlap delta must be >= 0")
    return (1.0 + float(delta)) * 0.5 * float(spacing) * float(np.sqrt(d))
