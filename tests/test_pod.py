import numpy as np
import pytest

from odnet.errors import DataError
from odnet.pod import (
    PODBasis,
    compute_pod,
    standardize_snapshots,
    trunk_matrix,
)


def test_opposite_standardized_snapshots_rank_one():
    # v2 is an affine (negative-slope) image of v1, so after per-snapshot
    # standardization the rows are s and -s: T = s s^T has a single
    # nonzero eigenvalue ||s||^2 with the mode parallel to s.
    v1 = np.array([1.0, 2.0, 3.0, 4.0])
    v2 = 10.0 - 2.0 * v1
    basis = compute_pod(np.stack([v1, v2]), p=2)
    s = standardize_snapshots(np.stack([v1, v2]))[0]
    assert basis.eigenvalues[0] == pytest.approx(float(s @ s), abs=1e-12)  # = 4
    assert basis.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    mode = basis.modes[:, 0]
    cos = abs(mode @ s) / np.linalg.norm(s)
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_identical_snapshots_degenerate():
    v = np.ones((3, 10)) * 2.5
    with pytest.raises(DataError):
        compute_pod(v, p=2)


def test_full_rank_reconstruction():
    rng = np.random.default_rng(10)
    v = rng.normal(size=(10, 50))
    basis = compute_pod(v, p=10)
    vs = standardize_snapshots(v)
    recon = (vs @ basis.modes) @ basis.modes.T
    assert np.linalg.norm(recon - vs) < 1e-8


def test_orthonormality_and_ordering():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(10, 50))
    basis = compute_pod(v, p=10)
    gram = basis.modes.T @ basis.modes
    assert np.max(np.abs(gram - np.eye(10))) < 1e-10
    assert np.all(np.diff(basis.eigenvalues) <= 1e-12)
    assert np.all(basis.eigenvalues >= 0.0)


def test_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(12)
    v = rng.normal(size=(6, 20))
    basis = compute_pod(v, p=5)
    for j in range(basis.n_modes):
        col = basis.modes[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0.0


def test_phi0_is_raw_mean():
    rng = np.random.default_rng(13)
    v = rng.normal(size=(5, 12)) + 3.0
    basis = compute_pod(v, p=3)
    np.testing.assert_allclose(basis.mean_function, v.mean(axis=0), atol=1e-15)


def test_p_out_of_range():
    rng = np.random.default_rng(14)
    v = rng.normal(size=(4, 9))
    with pytest.raises(ValueError):
        compute_pod(v, p=0)
    with pytest.raises(ValueError):
        compute_pod(v, p=5)  # > min(N, N_y) = 4


def test_hand_eigenproblem_three_points():
    # v1=[0,1,2], v2=[1,0,2] standardize to sqrt(3/2)*[-1,0,1] and
    # sqrt(3/2)*[0,-1,1]; T = 0.75*[[1,0,-1],[0,1,-1],[-1,-1,2]] has
    # eigenpairs (2.25, [1,1,-2]/sqrt6), (0.75, [1,-1,0]/sqrt2), (0, ...)
    v = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    basis = compute_pod(v, p=2)
    np.testing.assert_allclose(basis.eigenvalues, [2.25, 0.75], atol=1e-12)
    np.testing.assert_allclose(
        basis.modes[:, 0], np.array([1.0, 1.0, -2.0]) / np.sqrt(6), atol=1e-12
    )
    np.testing.assert_allclose(
        basis.modes[:, 1], np.array([1.0, -1.0, 0.0]) / np.sqrt(2), atol=1e-12
    )
    np.testing.assert_allclose(basis.mean_function, [0.5, 0.5, 2.0], atol=1e-15)


def test_trunk_eval_modified_row():
    v = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    basis = compute_pod(v, p=2)
    row = trunk_matrix(basis, 2, modified=True)[0][1]
    assert row.shape == (2,)
    np.testing.assert_allclose(
        row, np.array([0.5, 1.0 / np.sqrt(6)]) / 2.0, atol=1e-12
    )


def test_trunk_eval_standard_row_and_offset():
    v = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    basis = compute_pod(v, p=2)
    row = trunk_matrix(basis, 2, modified=False)[0][0]
    np.testing.assert_allclose(
        row, np.array([1.0 / np.sqrt(6), 1.0 / np.sqrt(2)]) / 2.0, atol=1e-12
    )
    cols, offset = trunk_matrix(basis, 2, modified=False)
    np.testing.assert_allclose(offset, basis.mean_function, atol=1e-15)
    cols_m, offset_m = trunk_matrix(basis, 2, modified=True)
    assert offset_m is None
    assert cols_m.shape == (3, 2)


def test_trunk_matrix_p_beyond_basis():
    v = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    basis = compute_pod(v, p=2)
    assert trunk_matrix(basis, 3, modified=True)[0].shape == (3, 3)
    with pytest.raises(ValueError, match="need 3"):
        trunk_matrix(basis, 3, modified=False)
    with pytest.raises(ValueError, match="need 3"):
        trunk_matrix(basis, 4, modified=True)


def test_basis_shape_validation():
    with pytest.raises(DataError):
        PODBasis(np.zeros(4), np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(DataError):
        PODBasis(np.zeros(5), np.zeros((5, 2)), np.zeros(3))
