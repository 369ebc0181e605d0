"""Overlapping ball patches, the Wendland C2 kernel, and partition-of-unity
weights for the mixture-of-experts trunk.

A patch set is two arrays, the ball centres (P, d) and radii (P,), held
read-only. A point is covered by a patch only if it lies strictly inside
(the kernel vanishes on the boundary). Weights are normalized kernels, so
they are nonnegative and sum to one wherever at least one patch covers
the point.
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


class PatchSet:
    """P balls of one dimension d: read-only float64 copies of the caller's
    ``centers`` (P, d) and ``radii`` (P,), so weights computed from a set
    stay valid for it, and the overlap ``delta`` the radii were sized with.
    Arrays of other shapes (ragged rows included) are a ShapeError; no
    patches, or a radius that is not > 0 (NaN included), a ValueError."""

    def __init__(self, centers, radii, delta: float = 0.0):
        try:
            centers = np.array(centers, dtype=np.float64)
            radii = np.array(radii, dtype=np.float64)
        except ValueError:  # ragged rows
            raise ShapeError("PatchSet: centers and radii must be (P, d) and (P,) arrays") from None
        if not radii.size:
            raise ValueError("PatchSet needs at least one patch")
        if centers.ndim != 2 or radii.shape != centers.shape[:1]:
            raise ShapeError(f"PatchSet: centers {centers.shape} and radii {radii.shape} "
                             "must be (P, d) and (P,)")
        if not (radii > 0.0).all():
            raise ValueError("patch radius must be positive")
        centers.flags.writeable = radii.flags.writeable = False
        self.centers, self.radii, self.delta = centers, radii, float(delta)
        self.dimension = centers.shape[1]

    def __len__(self):
        return len(self.radii)


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
    """Indices of points that lie strictly inside no patch (empty = covered):
    the rows ``pou_weight_matrix`` leaves without a nonzero weight."""
    weights = pou_weight_matrix(ps, points, strict=False)
    return [int(i) for i in np.flatnonzero(~weights.any(axis=1))]


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
