"""Snapshot POD of output-function data.

Snapshots are standardized per function (spatial mean removed, divided by
the population spatial standard deviation). The modes are the leading
eigenvectors of the covariance surrogate T = (1/N) Vs^T Vs (N_y x N_y),
obtained by Sirovich's method of snapshots: the N x N Gram matrix
K = (1/N) Vs Vs^T shares T's nonzero eigenvalues, and an eigenpair
(lambda_j, w_j) of K back-projects to the unit mode Vs^T w_j / sqrt(N lambda_j).
The raw (unstandardized) pointwise mean of the training outputs is carried
alongside as the mean function phi0.

A mode is kept only if its eigenvalue exceeds ``_RANK_RTOL`` times the
largest. Past that numerical rank the eigenvectors are round-off, and
back-projecting them would divide noise by a near-zero sqrt(lambda), so
those basis columns are exact zeros with eigenvalue 0.0. The basis keeps
the requested width either way.

Mode signs are normalized (each column's first entry above 1e-12 in size
made positive) so results do not depend on the eigensolver's sign choices.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

# Relative threshold below which a snapshot's spatial stddev counts as zero.
_DEGENERATE_TOL = 1e-12
# Eigenvalues at or below this fraction of the largest are round-off; their
# modes are dropped. At 1e-6 kept modes stay orthonormal to ~1e-11.
_RANK_RTOL = 1e-6


class PODBasis:
    """Mean function, orthonormal spatial modes, and their eigenvalues,
    all sampled on the output locations Y."""

    def __init__(self, mean_function, modes, eigenvalues, y_locations=None):
        self.mean_function = np.ascontiguousarray(mean_function, dtype=np.float64)
        self.modes = np.ascontiguousarray(modes, dtype=np.float64)
        self.eigenvalues = np.ascontiguousarray(eigenvalues, dtype=np.float64)
        self.y_locations = (
            None if y_locations is None
            else np.ascontiguousarray(y_locations, dtype=np.float64)
        )
        n_y, k = self.mean_function.size, self.eigenvalues.size
        if (self.mean_function.ndim != 1 or self.eigenvalues.ndim != 1
                or self.modes.shape != (n_y, k)):
            raise DataError("POD needs a mean function (N_y,), modes (N_y, k) and k eigenvalues")
        if self.y_locations is not None and self.y_locations.shape[0] != n_y:
            raise DataError("POD basis and its locations Y differ in N_y")

    @property
    def n_modes(self):
        return self.modes.shape[1]


def compute_pod(v_snapshots: np.ndarray, p: int, y_locations=None) -> PODBasis:
    """POD basis with ``p`` modes from an (N, N_y) snapshot matrix.

    Columns past the numerical rank are exactly zero, as are their
    eigenvalues. Raises DataError for a constant snapshot (zero spatial
    stddev).
    """
    v = np.asarray(v_snapshots, dtype=np.float64)
    if v.ndim != 2:
        raise DataError(f"snapshot matrix must be 2-d, got shape {v.shape}")
    n, n_y = v.shape
    if n < 2:
        raise DataError("need at least 2 snapshots")
    p = int(p)
    if p < 1 or p > min(n, n_y):
        raise ValueError(f"p={p} out of range [1, {min(n, n_y)}]")

    v_std = standardize_snapshots(v)
    k = v_std @ v_std.T / n
    eigvals, eigvecs = np.linalg.eigh(k)  # ascending
    eigvals = eigvals[::-1][:p]
    rank = numerical_rank(eigvals)
    modes = np.zeros((n_y, p))
    modes[:, :rank] = v_std.T @ eigvecs[:, ::-1][:, :rank] / np.sqrt(n * eigvals[:rank])
    eigvals[rank:] = 0.0
    modes = _fix_signs(modes)
    phi0 = v.mean(axis=0)
    return PODBasis(phi0, modes, eigvals, y_locations)


def numerical_rank(eigenvalues) -> int:
    """How many eigenvalues exceed ``_RANK_RTOL`` times the largest."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    return int(np.count_nonzero(lam > _RANK_RTOL * lam.max(initial=0.0)))


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    big = np.abs(modes) > 1e-12
    first = modes[big.argmax(axis=0), np.arange(modes.shape[1])]
    modes *= np.where(big.any(axis=0) & (first < 0.0), -1.0, 1.0)
    return modes


def standardize_snapshots(v_snapshots: np.ndarray) -> np.ndarray:
    """Remove each snapshot's spatial mean and divide by its population
    spatial standard deviation. Raises DataError for a constant snapshot."""
    v = np.asarray(v_snapshots, dtype=np.float64)
    d = v - v.mean(axis=1, keepdims=True)
    sigma = np.sqrt((d * d).mean(axis=1))  # population convention (divide by N_y)
    floor = _DEGENERATE_TOL * np.maximum(1.0, np.abs(v).max(axis=1))
    degenerate = sigma <= floor
    if np.any(degenerate):
        i = int(np.flatnonzero(degenerate)[0])
        raise DataError(f"degenerate snapshot {i}: zero spatial standard deviation")
    return d / sigma[:, None]

