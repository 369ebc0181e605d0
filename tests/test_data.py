import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odnet.data import (
    RD_CHUNK_VALUES,
    OperatorDataset,
    RDParams,
    gen_antiderivative,
    gen_reaction_diffusion_2d,
    read_dataset,
    simulate_rd,
    write_dataset,
)
from odnet.errors import ConfigError, DataError, NumericError, ShapeError
from odnet.evaluation import vector_field_magnitude


# --- antiderivative generator ---

def test_single_mode_closed_form():
    ds = gen_antiderivative(1, n_modes=1, grid=33, seed=3)
    x = ds.X[:, 0]
    a1 = ds.U[0, np.argmax(np.sin(np.pi * x))]  # u at x=0.5 equals a1
    np.testing.assert_allclose(ds.U[0], a1 * np.sin(np.pi * x), atol=1e-12)
    np.testing.assert_allclose(ds.V[0], a1 * (1 - np.cos(np.pi * x)) / np.pi, atol=1e-12)
    # v(1) = 2 a1 / pi
    assert ds.V[0, -1] == pytest.approx(2.0 * a1 / np.pi, abs=1e-12)


def test_zero_input_zero_output():
    # the sampled pair (u, v) is linear in the mode coefficients, so a pair
    # scaled to zero coefficients is (0, 0); the generator preserves that
    ds = gen_antiderivative(2, n_modes=3, grid=16, seed=0)
    assert ds.U.shape == (2, 16) and ds.V.shape == (2, 16)
    np.testing.assert_array_equal(0.0 * ds.U[0], np.zeros(16))
    np.testing.assert_array_equal(0.0 * ds.V[0], np.zeros(16))
    # v(0) = 0 always holds for the antiderivative
    np.testing.assert_allclose(ds.V[:, 0], 0.0, atol=1e-15)


def test_antiderivative_matches_trapezoid_quadrature():
    ds = gen_antiderivative(3, n_modes=5, grid=64, seed=7)
    fine = np.linspace(0.0, 1.0, 10 * 64)
    for i in range(3):
        # recover coefficients by least squares on the fine grid
        k = np.arange(1, 6)
        design = np.sin(np.pi * np.outer(fine, k))
        coarse_design = np.sin(np.pi * np.outer(ds.X[:, 0], k))
        a, *_ = np.linalg.lstsq(coarse_design, ds.U[i], rcond=None)
        u_fine = design @ a
        v_quad = np.concatenate([[0.0], np.cumsum(
            0.5 * (u_fine[1:] + u_fine[:-1]) * np.diff(fine)
        )])
        v_at_coarse = np.interp(ds.X[:, 0], fine, v_quad)
        assert np.max(np.abs(v_at_coarse - ds.V[i])) < 1e-4


def test_generator_determinism_and_seed_disjointness():
    a = gen_antiderivative(4, seed=11)
    b = gen_antiderivative(4, seed=11)
    c = gen_antiderivative(4, seed=12)
    assert a.U.tobytes() == b.U.tobytes() and a.V.tobytes() == b.V.tobytes()
    assert a.U.tobytes() != c.U.tobytes()


def test_min_grid_size():
    with pytest.raises(ConfigError):
        gen_antiderivative(1, grid=4)


# --- reaction-diffusion generator ---

def test_rd_no_dynamics_is_identity():
    params = RDParams(nu=0.0, k_on=0.0, k_off=0.0, n=16)
    c = simulate_rd(params, 0.42)
    np.testing.assert_array_equal(c, np.full((16, 16), 0.42))


def test_rd_diffusion_conserves_mean():
    # one step from a non-constant state: the total changes by the
    # reaction alone, so the diffusion fluxes across cell edges balance.
    # The reaction is on everywhere and the ambient's cosines span no whole
    # period on [0.1, 1.8], so a wrong flux at any one edge shows in the sum
    params = RDParams(n=24, dt=0.01, lo=0.1, hi=1.8, switch=2.0)
    c1 = simulate_rd(dataclasses.replace(params, t_final=params.dt), 0.6)
    c2 = simulate_rd(dataclasses.replace(params, t_final=2 * params.dt), 0.6)
    centers = params.cell_centers_1d()
    y1, y2 = np.meshgrid(centers, centers, indexing="ij")
    amb = (1.0 + np.cos(2 * np.pi * y1) * np.cos(2 * np.pi * y2)) * np.exp(-np.pi * params.dt)
    # the reaction at t = dt, switched off where y1 > switch
    reaction = params.k_on * (params.reaction_cap - c1) * amb - params.k_off * c1
    reaction[y1 > params.switch] = 0.0
    # c1 is not a fixed point of diffusion: it moves the cells by 0.57 in total
    assert np.abs((c2 - c1) - params.dt * reaction).sum() > 0.1
    assert abs(c2.sum() - c1.sum() - params.dt * reaction.sum()) < 1e-12


def test_rd_second_order_refinement():
    def restrict(f):
        n = f.shape[0]
        return f.reshape(n // 2, 2, n // 2, 2).mean(axis=(1, 3))

    sols = {n: simulate_rd(RDParams(n=n), 0.7) for n in (16, 32, 64)}
    e_coarse = np.sqrt(np.mean((sols[16] - restrict(sols[32])) ** 2))
    e_fine = np.sqrt(np.mean((sols[32] - restrict(sols[64])) ** 2))
    ratio = e_coarse / e_fine
    assert 3.0 <= ratio <= 5.0  # ~4 for a second-order scheme


def test_rd_solution_envelope():
    params = RDParams(n=24)
    for c0 in (0.05, 0.5, 0.95):
        c = simulate_rd(params, c0)
        assert c.min() >= 0.0
        assert c.max() <= params.reaction_cap + 1.0  # R + max IC


def test_rd_blowup_detected():
    # an absurd binding rate overshoots the cap within one step
    params = RDParams(nu=0.0, k_on=1e6, n=8)
    with pytest.raises(NumericError, match="blew up"):
        simulate_rd(params, 0.5)


def test_rd_batched_blowup_names_first_sample():
    # without dynamics c stays c0, so exactly the samples above 10 * cap blow
    # up; both lie past the first solver chunk, so the index is global
    params = RDParams(nu=0.0, k_on=0.0, k_off=0.0, n=8)
    chunk = RD_CHUNK_VALUES // (8 * 8)
    c0 = np.full(chunk + 44, 0.5)
    c0[[chunk + 24, chunk + 34]] = (25.0, 30.0)
    with pytest.raises(NumericError, match=rf"step 1 .*first sample {chunk + 24} with c0=25\.0"):
        simulate_rd(params, c0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c0", [np.inf, -np.inf, np.nan])
def test_rd_nonfinite_state_is_a_blowup(c0):
    # |nan| > blow is False, so the check must reject what is not <= blow;
    # the error comes without a RuntimeWarning ahead of it
    with pytest.raises(NumericError, match="blew up at step 1"):
        simulate_rd(RDParams(n=8), c0)


@pytest.mark.filterwarnings("error")
def test_rd_nonfinite_blowup_names_first_sample():
    with pytest.raises(NumericError, match=r"blew up at step 1 .*first sample 1 with c0=inf"):
        simulate_rd(RDParams(n=8), np.array([0.5, np.inf, np.nan]))


def test_rd_stability_bound_rejected():
    with pytest.raises(ConfigError):
        RDParams(n=32, dt=1.0)
    # a compliant dt is accepted
    p = RDParams(n=32)
    RDParams(n=32, dt=0.5 * p.stability_bound())


def test_rd_dataset_shapes_and_inputs():
    params = RDParams(n=8, branch_grid=4)
    ds = gen_reaction_diffusion_2d(params, 3, seed=5)
    assert ds.U.shape == (3, 16)
    assert ds.V.shape == (3, 64)
    assert ds.X.shape == (16, 2)
    assert ds.Y.shape == (64, 2)
    # inputs are spatially constant
    assert np.all(ds.U == ds.U[:, :1])
    # determinism
    ds2 = gen_reaction_diffusion_2d(params, 3, seed=5)
    assert ds.V.tobytes() == ds2.V.tobytes()
    # the solver grid size is `grid`, as in the config; `[data] n` is the
    # sample count, so no metadata key `n` may suggest otherwise
    assert ds.metadata["grid"] == "8" and "n" not in ds.metadata


def test_rd_dataset_affine_oracle():
    # the explicit scheme is affine in the constant IC and its forcing does
    # not depend on c, so V_i = A + c0_i B with A, B fixed by two samples
    ds = gen_reaction_diffusion_2d(RDParams(n=16, branch_grid=4), 40, seed=2)
    c0 = ds.U[:, 0]
    lo, hi = int(np.argmin(c0)), int(np.argmax(c0))
    b = (ds.V[hi] - ds.V[lo]) / (c0[hi] - c0[lo])
    a = ds.V[lo] - c0[lo] * b
    affine = a[None, :] + c0[:, None] * b[None, :]
    assert np.max(np.abs(ds.V - affine)) <= 1e-12 * np.max(np.abs(ds.V))


def test_rd_batched_solve_equals_scalar_solves():
    params = RDParams(n=12)
    c0 = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    batched = simulate_rd(params, c0)
    assert batched.shape == (5, 12, 12)
    stacked = np.stack([simulate_rd(params, float(c)) for c in c0])
    assert batched.tobytes() == stacked.tobytes()
    assert simulate_rd(params, c0[:0]).shape == (0, 12, 12)
    with pytest.raises(ShapeError):
        simulate_rd(params, c0.reshape(5, 1))


def _reference_rd(params, c0):
    """The whole batch at once through an np.pad ghost-cell stencil that
    allocates every intermediate: the operand order the solver must keep."""
    n = params.n
    c = np.repeat(c0, n * n).reshape(c0.size, n, n)
    centers = params.cell_centers_1d()
    y1, y2 = np.meshgrid(centers, centers, indexing="ij")
    on_field = np.where(y1 <= params.switch, params.k_on, 0.0)
    off_field = np.where(y1 <= params.switch, params.k_off, 0.0)
    dt = params.step_size()
    steps = int(np.ceil(params.t_final / dt - 1e-12))
    inv_h2 = 1.0 / (params.h * params.h)
    cap = params.reaction_cap
    t = 0.0
    for _ in range(steps):
        dt_k = min(dt, params.t_final - t)
        amb = (1.0 + np.cos(2.0 * np.pi * y1) * np.cos(2.0 * np.pi * y2)) * np.exp(-np.pi * t)
        padded = np.pad(c, ((0, 0), (1, 1), (1, 1)), mode="edge")
        lap = (
            padded[:, :-2, 1:-1] + padded[:, 2:, 1:-1]
            + padded[:, 1:-1, :-2] + padded[:, 1:-1, 2:]
            - 4.0 * c
        ) * inv_h2
        c = c + dt_k * (on_field * (cap - c) * amb - off_field * c + params.nu * lap)
        t += dt_k
    return c


def _assert_matches_reference(params, n_samples, seed=0):
    c0 = np.random.default_rng(seed).uniform(0.0, 1.0, n_samples)
    got = simulate_rd(params, c0)
    assert got.shape == (n_samples, params.n, params.n)
    assert got.tobytes() == _reference_rd(params, c0).tobytes()


@pytest.mark.parametrize("params", [
    *(RDParams(n=n) for n in (4, 5, 9, 12, 16, 64)),
    RDParams(n=8, dt=0.003, t_final=0.37),  # truncated last step
    RDParams(n=8, nu=0.0),
    RDParams(n=8, switch=-1.0),
    RDParams(n=8, switch=5.0),
    RDParams(n=8, k_on=1.7, k_off=0.3, reaction_cap=1.9),  # x 2.0 is exact: k_on = 2 hides order
], ids=["n4", "n5", "n9", "n12", "n16", "n64", "truncated", "nu0",
        "switch-below", "switch-above", "rates"])
@pytest.mark.parametrize("n_samples", [0, 1, 31, 32, 33, 67])
def test_rd_solver_bytes_match_pad_stencil(params, n_samples):
    _assert_matches_reference(params, n_samples)


@pytest.mark.parametrize("n", [8, 32])
def test_rd_solver_bytes_match_pad_stencil_at_chunk_edges(n):
    chunk = RD_CHUNK_VALUES // (n * n)
    for n_samples in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        _assert_matches_reference(RDParams(n=n), n_samples, seed=n_samples)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), nu=st.sampled_from([0.0, 0.01, 0.05, 0.1]),
       t_final=st.floats(0.01, 0.6), dt_frac=st.one_of(st.none(), st.floats(0.5, 1.0)),
       k_on=st.floats(0.0, 3.0), switch=st.floats(-0.5, 2.5),
       n_samples=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
def test_rd_solver_bytes_match_pad_stencil_property(n, nu, t_final, dt_frac, k_on, switch,
                                                    n_samples, seed):
    # from n = 21 on a chunk holds fewer than 80 samples, so counts cross chunks
    base = RDParams(n=n, nu=nu, t_final=t_final)
    dt = None if dt_frac is None else dt_frac * min(base.stability_bound(), t_final)
    params = RDParams(n=n, nu=nu, t_final=t_final, dt=dt, k_on=k_on, switch=switch)
    _assert_matches_reference(params, n_samples, seed)


# ICs where the solver skips work: signed zeros, values above the cap, and
# values above a cap drawn below them. Where the reaction is off the solver
# adds +0.0 in its place, which matters for a -0.0 cell only.
SPECIAL_C0 = np.array([0.0, -0.0, 0.5, 1.0, 2.5, 3.9])


@pytest.mark.parametrize("params", [
    RDParams(n=8),
    RDParams(n=8, nu=0.0),
    RDParams(n=8, nu=-0.0),  # nu * lap is -0.0 at a -0.0 cell: the +0.0 added matters
    RDParams(n=8, nu=0.0, dt=0.1, k_off=15.0),  # reacting rows overshoot below 0
    RDParams(n=8, k_off=0.7, reaction_cap=0.4),  # cap below most ICs
    RDParams(n=8, switch=0.375),  # on the centre of row 1: <= keeps it reacting
    RDParams(n=32, k_on=1.3, switch=1.03125),  # on the centre of row 16
    RDParams(n=9, switch=-1.0),
    RDParams(n=9, switch=5.0),
], ids=["default", "nu0", "nu-0", "overshoot", "cap-below", "switch-centre-n8",
        "switch-centre-n32", "switch-below", "switch-above"])
def test_rd_solver_bytes_match_pad_stencil_at_special_ics(params):
    got = simulate_rd(params, SPECIAL_C0)
    assert got.tobytes() == _reference_rd(params, SPECIAL_C0).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), nu=st.sampled_from([0.0, -0.0, 0.01, 0.1]),
       t_final=st.floats(0.01, 0.6), dt_frac=st.floats(0.5, 1.0),
       k_on=st.floats(0.0, 3.0), k_off=st.floats(0.0, 3.0),
       cap=st.floats(0.25, 3.0), switch_row=st.integers(-1, 40),
       c0=st.lists(st.sampled_from([0.0, -0.0, 0.3, 1.0, 2.0, 3.0]), max_size=40),
       scale=st.floats(0.0, 1.0))
def test_rd_solver_bytes_match_pad_stencil_rates_and_ics_property(
        n, nu, t_final, dt_frac, k_on, k_off, cap, switch_row, c0, scale):
    # the switch lies on a cell centre (the last one turns every row on)
    # or below the grid. Every IC is in [0, 4.5 cap], and dt (2 k_on + k_off)
    # <= 0.1 keeps each update a positive combination of the old values and
    # the source, so no sample leaves [0, 4.5 cap] or blows up
    base = RDParams(n=n, nu=nu, t_final=t_final)
    centres = base.cell_centers_1d()
    switch = centres[min(switch_row, n - 1)] if switch_row >= 0 else -1.0
    dt = dt_frac * min(base.stability_bound(), t_final, 0.1 / (2.0 * k_on + k_off + 1e-9))
    params = dataclasses.replace(base, dt=dt, k_on=k_on, k_off=k_off, reaction_cap=cap,
                                 switch=switch)
    ics = np.array(c0) * cap * (0.5 + scale)
    assert simulate_rd(params, ics).tobytes() == _reference_rd(params, ics).tobytes()


@pytest.mark.parametrize("params,n_samples,seed,crc_v,crc_u,crc_x,crc_y", [
    (RDParams(n=8, branch_grid=4), 12, 0, 0x0B54C2AF, 0x1AB159FC, 0x7E648417, 0x4A702740),
    (RDParams(), 240, 1, 0x29DAACCC, 0x2E723E95, 0x4A702740, 0x579D0AD3),
], ids=["n8-12-seed0", "default-240-seed1"])
def test_rd_dataset_payload_pinned(params, n_samples, seed, crc_v, crc_u, crc_x, crc_y):
    # values written by the per-sample solver; the batched one must match.
    # X on an 8 x 8 branch grid is Y on an 8 x 8 solver grid: both are the
    # cell centres of the same square.
    ds = gen_reaction_diffusion_2d(params, n_samples, seed=seed)
    assert zlib.crc32(ds.V.tobytes()) == crc_v
    assert zlib.crc32(ds.U.tobytes()) == crc_u
    assert zlib.crc32(ds.X.tobytes()) == crc_x
    assert zlib.crc32(ds.Y.tobytes()) == crc_y


def test_scalar_targets_is_the_vector_field_magnitude():
    rng = np.random.default_rng(5)
    V = rng.normal(size=(3, 6, 3))
    ds = OperatorDataset("vec", rng.normal(size=(4, 2)), rng.normal(size=(6, 2)),
                         rng.normal(size=(3, 4)), V, {})
    assert ds.scalar_targets().tobytes() == vector_field_magnitude(V).tobytes()
    assert np.allclose(ds.scalar_targets(), np.linalg.norm(V, axis=2), rtol=1e-15)


# --- ODN1 round trip ---

def _tiny_dataset():
    rng = np.random.default_rng(1)
    return OperatorDataset(
        "tiny",
        rng.normal(size=(5, 1)),
        rng.normal(size=(7, 2)),
        rng.normal(size=(3, 5)),
        rng.normal(size=(3, 7)),
        {"generator": "test", "seed": "1"},
    )


def test_roundtrip_bit_exact(tmp_path):
    ds = _tiny_dataset()
    ds.metadata["note"] = "a\rb=c"  # other line breaks stay inside a value
    path = tmp_path / "tiny.odn"
    write_dataset(ds, path)
    back = read_dataset(path)
    for a, b in ((ds.X, back.X), (ds.Y, back.Y), (ds.U, back.U), (ds.V, back.V)):
        assert a.tobytes() == b.tobytes()
    assert back.metadata == ds.metadata
    assert back.name == "tiny"


def test_a_renamed_dataset_is_written_under_its_new_name(tmp_path):
    path = tmp_path / "tiny.odn"
    write_dataset(_tiny_dataset(), path)
    ds = read_dataset(path)
    ds.name = "renamed"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.name == "renamed" and "name" not in back.metadata


def test_vector_field_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    ds = OperatorDataset(
        "vec", rng.normal(size=(4, 2)), rng.normal(size=(6, 2)),
        rng.normal(size=(2, 4)), rng.normal(size=(2, 6, 3)), {},
    )
    path = tmp_path / "vec.odn"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.V.shape == (2, 6, 3)
    assert back.n_components == 3
    assert back.V.tobytes() == ds.V.tobytes()


def test_truncated_file_rejected(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "tiny.odn"
    write_dataset(ds, path)
    blob = path.read_bytes()
    for cut in (4, len(blob) // 2, len(blob) - 1):
        bad = tmp_path / f"cut{cut}.odn"
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            read_dataset(bad)


def test_corrupted_payload_rejected(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "tiny.odn"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    bad = tmp_path / "bad.odn"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="CRC32"):
        read_dataset(bad)


def test_bad_magic_and_version(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "tiny.odn"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    wrong = bytearray(blob)
    wrong[:8] = b"NOTODNST"
    bad = tmp_path / "magic.odn"
    bad.write_bytes(bytes(wrong))
    with pytest.raises(DataError, match="magic"):
        read_dataset(bad)
    import struct
    import zlib
    versioned = bytearray(blob[:-4])
    struct.pack_into("<I", versioned, 8, 9)
    versioned += struct.pack("<I", zlib.crc32(bytes(versioned)) & 0xFFFFFFFF)
    bad2 = tmp_path / "version.odn"
    bad2.write_bytes(bytes(versioned))
    with pytest.raises(DataError, match="version"):
        read_dataset(bad2)


def test_external_darcy_style_file_loads(tmp_path):
    # a conversion of the external Darcy release: 1900 training pairs,
    # boundary samples as inputs, triangle-interior pressures as outputs
    rng = np.random.default_rng(3)
    n = 1900
    ds = OperatorDataset(
        "darcy",
        rng.uniform(0, 1, size=(12, 2)),
        rng.uniform(0, 1, size=(20, 2)),
        rng.normal(size=(n, 12)),
        rng.normal(size=(n, 20)),
        {"generator": "external", "split": "train"},
    )
    path = tmp_path / "darcy-train.odn"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.n_samples == 1900
    assert back.name == "darcy"


def test_dataset_shape_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeError):
        OperatorDataset("x", rng.normal(size=(5, 1)), rng.normal(size=(7, 2)),
                        rng.normal(size=(3, 4)), rng.normal(size=(3, 7)), {})
    with pytest.raises(ShapeError):
        OperatorDataset("x", rng.normal(size=(5, 1)), rng.normal(size=(7, 2)),
                        rng.normal(size=(3, 5)), rng.normal(size=(2, 7)), {})
    bad = rng.normal(size=(3, 7))
    bad[1, 2] = np.nan
    with pytest.raises(DataError):
        OperatorDataset("x", rng.normal(size=(5, 1)), rng.normal(size=(7, 2)),
                        rng.normal(size=(3, 5)), bad, {})
