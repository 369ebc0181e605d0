import math

import numpy as np
import pytest

from odnet.errors import CoverageError, ShapeError
from odnet.partition import (
    PatchSet,
    coverage_check,
    grid_patch_centers,
    kernel_matrix,
    pou_weight_matrix,
    uniform_radius,
    wendland_c2,
)


def kernel_value(center, radius, y):
    """Kernel of one point against one patch through the batched path."""
    ps = PatchSet([center], [radius])
    return kernel_matrix(ps, np.asarray(y, dtype=np.float64)[None])[0, 0]


def pou_weights(ps, y):
    """Weights at one point through the batched path."""
    return pou_weight_matrix(ps, np.asarray(y, dtype=np.float64)[None])[0]


def scalar_wendland(r):
    # independent scalar re-implementation for oracle use
    if r > 1.0:
        return 0.0
    return (1.0 - r) ** 4 * (4.0 * r + 1.0)


def test_wendland_values():
    assert wendland_c2(0.0) == 1.0
    assert wendland_c2(1.0) == 0.0
    assert wendland_c2(1.7) == 0.0
    assert wendland_c2(0.5) == 0.1875  # (0.5)^4 * 3


def test_wendland_negative_domain_error():
    with pytest.raises(ValueError):
        wendland_c2(-0.1)
    with pytest.raises(ValueError):
        wendland_c2(np.array([0.2, -0.3]))


def test_wendland_boundary_smoothness():
    # central differences across the support boundary r = 1
    h = 1e-4
    d1 = (wendland_c2(1 + h) - wendland_c2(1 - h)) / (2 * h)
    d2 = (wendland_c2(1 + h) - 2 * wendland_c2(1.0) + wendland_c2(1 - h)) / h**2
    assert abs(d1) < 1e-6
    assert abs(d2) < 1e-6
    # interior slope matches the closed form psi'(r) = -20 r (1-r)^3
    r = 0.37
    d_interior = (wendland_c2(r + h) - wendland_c2(r - h)) / (2 * h)
    assert abs(d_interior - (-20 * r * (1 - r) ** 3)) < 1e-6


def test_kernel_value_cases():
    patch = ([1.0, 2.0], 2.0)
    assert kernel_value(*patch, [1.0, 2.0]) == 1.0
    assert kernel_value(*patch, [3.0, 2.0]) == 0.0  # distance == radius
    assert kernel_value(*patch, [2.0, 2.0]) == 0.1875  # distance == radius/2


def test_kernel_value_dimension_mismatch():
    with pytest.raises(ShapeError):
        kernel_value([0.0, 0.0], 1.0, [0.0, 0.0, 0.0])


def test_kernel_translation_and_scale_covariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.uniform(-3, 3, size=3)
        y = c + rng.uniform(-1, 1, size=3)
        rho = rng.uniform(0.5, 2.0)
        shift = rng.uniform(-5, 5, size=3)
        s = rng.uniform(0.1, 4.0)
        base = kernel_value(c, rho, y)
        shifted = kernel_value(c + shift, rho, y + shift)
        scaled = kernel_value(s * c, s * rho, s * y)
        assert shifted == pytest.approx(base, abs=1e-12)
        assert scaled == pytest.approx(base, abs=1e-12)


def test_pou_single_patch_weight_one():
    ps = PatchSet([[0.0, 0.0], [5.0, 5.0]], [1.0, 1.0])
    w = pou_weights(ps, [0.1, 0.0])
    np.testing.assert_allclose(w, [1.0, 0.0])


def test_pou_symmetric_point_half_half():
    ps = PatchSet([[-0.5, 0.0], [0.5, 0.0]], [1.0, 1.0])
    w = pou_weights(ps, [0.0, 0.0])
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_pou_three_patch_scalar_oracle():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    radii = [1.2, 1.0, 0.9]
    ps = PatchSet(centers, radii)
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 25:
        y = rng.uniform(-0.5, 1.5, size=2)
        psi = [scalar_wendland(np.linalg.norm(y - c) / r) for c, r in zip(centers, radii)]
        if sum(psi) <= 0.0:
            continue
        expected = np.array(psi) / sum(psi)
        np.testing.assert_allclose(pou_weights(ps, y), expected, atol=1e-14)
        checked += 1


def test_pou_uncovered_point_errors():
    ps = PatchSet([[0.0, 0.0]], [1.0])
    with pytest.raises(CoverageError):
        pou_weights(ps, [5.0, 5.0])
    # non-strict mode leaves the row zero instead
    w = pou_weight_matrix(ps, np.array([[5.0, 5.0]]), strict=False)
    np.testing.assert_array_equal(w, [[0.0]])


def test_partition_of_unity_property_2d_3d():
    rng = np.random.default_rng(123)
    total_points = 0
    for trial in range(8):
        d = 2 if trial % 2 == 0 else 3
        n_patches = rng.integers(2, 7)
        centers = rng.uniform(-1, 1, size=(n_patches, d))
        radii = rng.uniform(0.5, 1.5, size=n_patches)
        ps = PatchSet(centers, radii)
        pts = rng.uniform(-1.2, 1.2, size=(400, d))
        covered = [i for i in range(400) if i not in set(coverage_check(ps, pts))]
        w = pou_weight_matrix(ps, pts[covered])
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        total_points += len(covered)
    assert total_points >= 1000


def test_compact_support_weight_zero_outside():
    ps = PatchSet([[0.0, 0.0], [0.5, 0.0]], [1.0, 1.0])
    w = pou_weights(ps, [1.2, 0.0])  # outside patch 0, inside patch 1
    assert w[0] == 0.0
    assert w[1] == 1.0


def test_grid_centers_unit_square_corners():
    nodes = grid_patch_centers([0, 0], [1, 1], [2, 2])
    expected = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    np.testing.assert_array_equal(nodes, expected)


def test_grid_centers_select_index_zero():
    nodes = grid_patch_centers([0, 0], [2, 2], [3, 2], selected=[0])
    np.testing.assert_array_equal(nodes, [[0.0, 0.0]])


def test_grid_centers_3d_eight_patches():
    nodes = grid_patch_centers([0, 0, 0], [1, 1, 1], [2, 2, 2])
    assert nodes.shape == (8, 3)
    assert {tuple(n) for n in nodes} == {
        (a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)
    }


def test_grid_centers_out_of_range_index():
    with pytest.raises(IndexError, match=r"selected index 4 out of range \[0, 4\)"):
        grid_patch_centers([0, 0], [1, 1], [2, 2], selected=[4])


def test_uniform_radius_substitutions():
    assert uniform_radius(0.0, 1.0, 1) == 0.5
    assert uniform_radius(0.1, 1.0, 2) == pytest.approx(0.55 * math.sqrt(2), abs=1e-12)
    assert uniform_radius(0.0, 2.0, 4) == 2.0
    with pytest.raises(ValueError):
        uniform_radius(0.0, 0.0, 2)


def test_coverage_check_cases():
    ps = PatchSet([[0.0, 0.0]], [2.0])
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, -0.5]])
    assert coverage_check(ps, pts) == []
    # exactly on the boundary counts as uncovered
    ps2 = PatchSet([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    assert coverage_check(ps2, np.array([[1.0, 0.0]])) == [0]


def test_coverage_check_matches_brute_force():
    rng = np.random.default_rng(8)
    centers = rng.uniform(-1, 1, size=(4, 2))
    radii = rng.uniform(0.3, 0.9, size=4)
    ps = PatchSet(centers, radii)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    brute = [
        i for i, y in enumerate(pts)
        if all(np.linalg.norm(y - c) >= r for c, r in zip(centers, radii))
    ]
    assert coverage_check(ps, pts) == brute


def test_patchset_validation():
    with pytest.raises(ValueError):
        PatchSet(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        PatchSet([[0.0]], [-1.0])
    with pytest.raises(ValueError):  # a NaN radius would make every weight NaN
        PatchSet([[0.0], [1.0]], [1.0, np.nan])
    with pytest.raises(ShapeError):  # mixed dimensions: ragged rows
        PatchSet([[0.0], [0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ShapeError):  # three radii for two centres
        PatchSet([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 1.0])


def test_patchset_holds_read_only_copies():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    radii = np.array([1.0, 1.5])
    ps = PatchSet(centers, radii, delta=0.1)
    assert (len(ps), ps.dimension, ps.delta) == (2, 2, 0.1)
    centers[0, 0] = 9.0
    radii[1] = 9.0
    np.testing.assert_array_equal(ps.centers, [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(ps.radii, [1.0, 1.5])
    with pytest.raises(ValueError):
        ps.centers[0, 0] = 1.0
    with pytest.raises(ValueError):
        ps.radii[0] = 2.0


@pytest.mark.parametrize("lows,highs", [
    ([0.0, 1.0], [1.0, 0.0]),  # reversed on one axis
    ([0.0, 0.0], [1.0, 0.0]),  # a flat axis
    ([-1e308, -1e308], [1e308, 1e308]),  # a span past the largest float
])
def test_grid_centers_need_a_finite_positive_span(lows, highs):
    # under the suite's filter, an overflow warning would fail here too
    with pytest.raises(ValueError, match="finite hi - lo > 0"):
        grid_patch_centers(lows, highs, [3, 3])


def test_wendland_is_exactly_zero_at_infinity():
    assert wendland_c2(math.inf) == 0.0
    np.testing.assert_array_equal(wendland_c2(np.array([0.0, 2.0, np.inf])), [1.0, 0.0, 0.0])


def test_kernel_of_a_tiny_patch_is_zero_away_from_it():
    # the distance over a 1e-320 radius overflows to inf: the kernel is 0
    ps = PatchSet([[0.0, 0.0]], [1e-320])
    np.testing.assert_array_equal(kernel_matrix(ps, np.array([[0.0, 0.0], [0.5, 0.5]])),
                                  [[1.0], [0.0]])


def test_kernel_far_outside_a_huge_box_is_zero():
    # squared differences of 1e200 overflow to inf: every patch reads 0
    centers = grid_patch_centers([0.0, 0.0], [1.0, 1.0], [3, 3])
    ps = PatchSet(centers, np.full(9, uniform_radius(0.1, 0.5, 2)))
    points = np.array([[0.5, 0.5], [1e200, 1e200], [-1e200, 1e200]])
    psi = kernel_matrix(ps, points)
    assert psi[0].sum() > 0.0
    np.testing.assert_array_equal(psi[1:], 0.0)
    assert coverage_check(ps, points) == [1, 2]


_LARGEST_RADIUS_2D = math.sqrt(np.finfo(np.float64).max / 4)  # sqrt(max / (2 d)), d = 2


@pytest.mark.parametrize("radius", [math.inf, math.nan, 1e160, 2 * _LARGEST_RADIUS_2D])
def test_patchset_refuses_a_radius_whose_distances_could_overflow(radius):
    with pytest.raises(ValueError, match=r"^patch radius must be positive and at most 6.7e\+153$"):
        PatchSet([[0.0, 0.0], [1.0, 0.0]], [1.0, radius])


def test_patchset_refuses_a_dimension_of_0():
    with pytest.raises(ShapeError, match="d >= 1"):
        PatchSet(np.zeros((2, 0)), [1.0, 1.0])


def test_the_largest_radius_weights_a_point_it_covers():
    # d r^2 <= max / 2: the squared distance of a covered point is finite
    r = _LARGEST_RADIUS_2D
    ps = PatchSet([[0.0, 0.0]], [r])
    psi = kernel_matrix(ps, np.array([[0.5 * r, 0.0], [0.0, 0.99 * r], [0.7 * r, 0.7 * r]]))
    assert psi[0, 0] == 0.1875  # (1 - 1/2)^4 (4/2 + 1)
    assert psi[1, 0] > 0.0 and psi[2, 0] > 0.0


def test_a_nan_kernel_row_is_uncovered():
    ps = PatchSet([[0.0, 0.0], [1.0, 0.0]], [2.0, 2.0])
    points = np.array([[0.5, 0.0], [np.nan, 0.0]])
    with pytest.raises(CoverageError, match="first index 1"):
        pou_weight_matrix(ps, points)
    weights = pou_weight_matrix(ps, points, strict=False)
    np.testing.assert_array_equal(weights[1], [0.0, 0.0])
    assert weights[0].sum() == 1.0
    assert coverage_check(ps, points) == [1]
