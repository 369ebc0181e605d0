import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import odnet
from odnet.data import RDParams, gen_reaction_diffusion_2d
from odnet.errors import DataError
from odnet.pod import (
    PODBasis,
    compute_pod,
    numerical_rank,
    standardize_snapshots,
)
from odnet.trunks import PODTrunk


def _covariance_pod(v, p):
    """Reference: eigenpairs of the N_y x N_y covariance surrogate
    T = (1/N) Vs^T Vs, largest first."""
    vs = standardize_snapshots(v)
    eigvals, eigvecs = np.linalg.eigh(vs.T @ vs / vs.shape[0])
    return eigvals[::-1][:p], eigvecs[:, ::-1][:, :p]


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


def _three_point_basis():
    # eigenpairs (2.25, [1,1,-2]/sqrt6), (0.75, [1,-1,0]/sqrt2); phi0 = [0.5, 0.5, 2]
    v = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    return compute_pod(v, p=2, y_locations=np.arange(3.0)[:, None])


def test_trunk_eval_modified_row():
    row = PODTrunk(_three_point_basis(), 2, modified=True).columns[1]
    assert row.shape == (2,)
    np.testing.assert_allclose(
        row, np.array([0.5, 1.0 / np.sqrt(6)]) / 2.0, atol=1e-12
    )


def test_trunk_eval_standard_row_and_offset():
    basis = _three_point_basis()
    member = PODTrunk(basis, 2, modified=False)
    np.testing.assert_allclose(
        member.columns[0], np.array([1.0 / np.sqrt(6), 1.0 / np.sqrt(2)]) / 2.0, atol=1e-12
    )
    np.testing.assert_allclose(member.offset, basis.mean_function, atol=1e-15)
    modified = PODTrunk(basis, 2, modified=True)
    assert modified.offset is None
    assert modified.columns.shape == (3, 2)


def test_pod_trunk_p_beyond_basis():
    basis = _three_point_basis()
    for modified in (True, False):
        with pytest.raises(ValueError, match="p=3 needs a basis of exactly p modes, not 2"):
            PODTrunk(basis, 3, modified)
    # a basis of 3 modes, the last past the rank: the modified trunk takes
    # phi0 and the first two
    wide = PODBasis(basis.mean_function, np.column_stack([basis.modes, np.zeros(3)]),
                    [*basis.eigenvalues, 0.0], basis.y_locations)
    member = PODTrunk(wide, 3, modified=True)
    assert member.columns.shape == (3, 3)
    np.testing.assert_array_equal(
        member.columns, np.column_stack([basis.mean_function, basis.modes]) / 3)


@pytest.mark.parametrize("modified", [True, False], ids=["modified", "standard"])
def test_pod_trunk_columns_are_its_exported_basis_over_p(modified):
    # the served columns and the raw export come from one table
    basis = _three_point_basis()
    member = PODTrunk(basis, 2, modified)
    y = basis.y_locations[::-1]
    raw = member.basis_columns(y, [0, 1])
    table = np.column_stack([basis.mean_function, basis.modes[:, 0]]) if modified else basis.modes
    assert raw.tobytes() == table[::-1].tobytes()
    assert (raw / 2).tobytes() == member.forward(member.bind(y)).data.tobytes()


def test_basis_shape_validation():
    with pytest.raises(DataError):
        PODBasis(np.zeros(4), np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(DataError):
        PODBasis(np.zeros(5), np.zeros((5, 2)), np.zeros(3))


@pytest.mark.parametrize("shape", [(12, 40), (40, 24)], ids=["n<n_y", "n>n_y"])
def test_gram_form_matches_covariance_oracle(shape):
    # full-rank data (standardized rows span min(n, n_y - 1) dimensions):
    # the Gram eigenpairs back-projected equal the covariance eigenpairs
    n, n_y = shape
    p = min(n, n_y - 1)
    v = np.random.default_rng(20).normal(size=shape)
    basis = compute_pod(v, p)
    ref_vals, ref_modes = _covariance_pod(v, p)
    assert numerical_rank(basis.eigenvalues) == p
    np.testing.assert_allclose(basis.eigenvalues, ref_vals, rtol=1e-12, atol=0.0)
    cos = np.abs(np.sum(basis.modes * ref_modes, axis=0))
    assert np.max(np.abs(cos - 1.0)) < 1e-12


def _rd2d_affine_snapshots():
    # V_i = A + c0_i B (see test_rd_dataset_affine_oracle): after per-snapshot
    # standardization the rows span two dimensions
    return gen_reaction_diffusion_2d(RDParams(n=16, branch_grid=4), 40, seed=2).V


@pytest.mark.parametrize("v,rank", [
    (np.array([[1.0, 2.0, 3.0, 4.0], [8.0, 6.0, 4.0, 2.0]]), 1),
    (_rd2d_affine_snapshots(), 2),
], ids=["opposite", "rd2d-affine"])
def test_columns_past_rank_are_exact_zeros(v, rank):
    p = min(8, v.shape[0])
    basis = compute_pod(v, p)
    assert numerical_rank(basis.eigenvalues) == rank
    assert np.all(basis.eigenvalues[:rank] > 0.0)
    assert np.all(basis.eigenvalues[rank:] == 0.0)
    assert np.all(basis.modes[:, rank:] == 0.0)
    kept = basis.modes[:, :rank]
    assert np.max(np.abs(kept.T @ kept - np.eye(rank))) < 1e-10
    _, ref_modes = _covariance_pod(v, rank)
    cos = np.abs(np.sum(kept * ref_modes, axis=0))
    assert np.max(np.abs(cos - 1.0)) < 1e-10


def test_numerical_rank_relative_to_largest():
    assert numerical_rank([4.0, 5e-6, 3e-6, 0.0]) == 2
    assert numerical_rank(np.array([1e-300, 0.0])) == 1
    assert numerical_rank(np.zeros(3)) == 0
    assert numerical_rank(np.zeros(0)) == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), n_y=st.integers(4, 40),
       rank=st.integers(1, 6), extra=st.integers(0, 6))
def test_low_rank_snapshots_property(seed, n, n_y, rank, extra):
    # V = G B plus a constant per snapshot (removed by standardization) has
    # rank `rank`; modes past it must be exact zeros
    assume(rank <= min(n, n_y - 1))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n_y))
    v += rng.normal(size=(n, 1))
    vs = standardize_snapshots(v)
    sv = np.linalg.svd(vs, compute_uv=False)
    # well separated from round-off on both sides of the rank
    assume(sv[rank - 1] > 1e-2 * sv[0])
    assume(rank == len(sv) or sv[rank] < 1e-10 * sv[0])
    p = min(rank + extra, n, n_y)
    basis = compute_pod(v, p)
    assert numerical_rank(basis.eigenvalues) == rank
    kept = basis.modes[:, :rank]
    assert np.max(np.abs(kept.T @ kept - np.eye(rank))) < 1e-10
    recon = (vs @ kept) @ kept.T
    assert np.linalg.norm(recon - vs) <= 1e-8 * np.linalg.norm(vs)
    assert np.all(basis.modes[:, rank:] == 0.0)
    assert np.all(basis.eigenvalues[rank:] == 0.0)


_POD_BYTES_SCRIPT = """
import hashlib
from odnet.data import RDParams, gen_reaction_diffusion_2d
from odnet.pod import compute_pod
from odnet.runconfig import split_indices
ds = gen_reaction_diffusion_2d(RDParams(n=16, branch_grid=4), 48, seed=1)
train_idx, _ = split_indices(ds.n_samples, 8, 0)
basis = compute_pod(ds.V[train_idx], 8)
print(hashlib.sha256(basis.modes.tobytes()).hexdigest(),
      hashlib.sha256(basis.eigenvalues.tobytes()).hexdigest())
"""


def test_pod_bytes_independent_of_blas_threads():
    # the basis must not depend on how the BLAS splits its work
    src = str(Path(odnet.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _POD_BYTES_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]
