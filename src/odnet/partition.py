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
    clipped = np.minimum(arr, 1.0)  # 1 beyond the support, inf included: the kernel is 0
    val = (1.0 - clipped) ** 4 * (4.0 * clipped + 1.0)
    if np.isscalar(r) or arr.ndim == 0:
        return float(val)
    return val


class PatchSet:
    """P balls of one dimension d: read-only float64 copies of the caller's
    ``centers`` (P, d) and ``radii`` (P,), so weights computed from a set
    stay valid for it, and the overlap ``delta`` the radii were sized with.
    Arrays of other shapes (ragged rows or d = 0 included) are a
    ShapeError; no patches, or a radius outside (0, sqrt(max float / 2d)]
    (NaN and inf included), a ValueError. Within that bound, the squared
    distance of a covered point, at most d r^2, cannot overflow."""

    def __init__(self, centers, radii, delta: float = 0.0):
        try:
            centers = np.array(centers, dtype=np.float64)
            radii = np.array(radii, dtype=np.float64)
        except ValueError:  # ragged rows
            raise ShapeError("PatchSet: centers and radii must be (P, d) and (P,) arrays") from None
        if not radii.size:
            raise ValueError("PatchSet needs at least one patch")
        if centers.ndim != 2 or radii.shape != centers.shape[:1] or not centers.shape[1]:
            raise ShapeError(f"PatchSet: centers {centers.shape} and radii {radii.shape} "
                             "must be (P, d) and (P,), d >= 1")
        bound = np.sqrt(np.finfo(np.float64).max / (2 * centers.shape[1]))
        if not ((radii > 0.0) & (radii <= bound)).all():
            raise ValueError(f"patch radius must be positive and at most {bound:.2g}")
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
    with np.errstate(over="ignore"):  # a ratio past 1 is 0 however large
        ratio = np.sqrt((diff * diff).sum(axis=2)) / ps.radii[None, :]
    return wendland_c2(ratio)


def pou_weight_matrix(ps: PatchSet, points: np.ndarray, strict: bool = True) -> np.ndarray:
    """Row-normalized kernel matrix, shape (B, P).

    A row whose kernel sum is not > 0 (NaN included) is uncovered:
    strict=True raises CoverageError on any uncovered row; strict=False
    leaves uncovered rows as all zeros (used for basis exports).
    """
    psi = kernel_matrix(ps, points)
    denom = psi.sum(axis=1)
    uncovered = ~(denom > 0.0)
    if np.any(uncovered):
        if strict:
            idx = np.flatnonzero(uncovered)
            raise CoverageError(
                f"{idx.size} point(s) not covered by any patch (first index {idx[0]})"
            )
        psi[uncovered] = 0.0
        denom = np.where(uncovered, 1.0, denom)
    return psi / denom[:, None]


def coverage_check(ps: PatchSet, points) -> list:
    """Indices of points that lie strictly inside no patch (empty = covered):
    the rows ``pou_weight_matrix`` leaves without a nonzero weight."""
    weights = pou_weight_matrix(ps, points, strict=False)
    return [int(i) for i in np.flatnonzero(~weights.any(axis=1))]


def grid_patch_centers(lows, highs, counts, selected=None) -> np.ndarray:
    """Centers of selected nodes of a Cartesian grid spanning the box.

    Grid nodes are uniformly spaced per axis, whose hi - lo must be finite
    and > 0, and include the box corners. ``selected`` indexes the
    row-major flattening of the grid; None takes every node.
    """
    lows = np.asarray(lows, dtype=np.float64).reshape(-1)
    highs = np.asarray(highs, dtype=np.float64).reshape(-1)
    counts = [int(c) for c in np.asarray(counts).reshape(-1)]
    if not (len(lows) == len(highs) == len(counts)):
        raise ShapeError("grid_patch_centers: bounds and counts must share one length")
    if any(c < 1 for c in counts):
        raise ValueError("grid_patch_centers: counts must be >= 1 per axis")
    with np.errstate(over="ignore"):  # a span past the largest float is inf
        if not all(np.isfinite(span) and span > 0.0 for span in highs - lows):
            raise ValueError("grid_patch_centers: the box needs a finite hi - lo > 0 on every axis")
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(lows, highs, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    if selected is None:
        return nodes
    selected = [int(i) for i in selected]
    n = nodes.shape[0]
    for i in selected:
        if i < 0 or i >= n:
            raise IndexError(f"grid_patch_centers: selected index {i} out of range [0, {n})")
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
