import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odnet.errors import DataError, ShapeError
from odnet.evaluation import (
    EvalReport,
    evaluate_model,
    mean_relative_l2,
    per_function_relative_l2,
    relative_l2,
    spatial_mse,
    vector_field_magnitude,
    write_location_csv,
)
from odnet.networks import MLPConfig, init_mlp
from odnet.runconfig import split_indices
from odnet.trunks import EnsembleModel, VanillaTrunk
from test_trunks import CONFIG_DIR, _bundled


def test_relative_l2_trivials():
    t = np.array([1.0, 2.0, 2.0])
    assert relative_l2(t, t) == 0.0
    assert relative_l2(2.0 * t, t) == pytest.approx(1.0, abs=1e-15)


def test_relative_l2_degenerate_truth():
    with pytest.raises(DataError):
        relative_l2(np.ones(3), np.zeros(3))


def test_mean_relative_l2_trivials():
    t = np.array([[3.0, 4.0], [1.0, 1.0]])
    assert mean_relative_l2(t, t) == 0.0
    # rows with errors 0 and 1 average to 50%
    preds = np.array([[3.0, 4.0], [2.0, 2.0]])
    assert mean_relative_l2(preds, t) == pytest.approx(50.0, abs=1e-12)


def test_mean_relative_l2_matches_scalar_loop():
    rng = np.random.default_rng(0)
    truths = rng.normal(size=(6, 9)) + 0.5
    preds = truths + 0.1 * rng.normal(size=(6, 9))
    loop = 100.0 * np.mean(
        [np.linalg.norm(p - t) / np.linalg.norm(t) for p, t in zip(preds, truths)]
    )
    assert mean_relative_l2(preds, truths) == pytest.approx(loop, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), n_y=st.integers(1, 70),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e5, 1e150]),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_per_function_relative_l2_matches_norm_bytes(seed, n, n_y, scale, layout):
    # the row-dot path gives the bytes np.linalg.norm gives, row by row,
    # for any memory layout of the inputs
    rng = np.random.default_rng(seed)
    truths = scale * (rng.normal(size=(n, n_y)) + 0.5)
    preds = truths + scale * 0.1 * rng.normal(size=(n, n_y))
    if layout == "F":
        preds, truths = np.asfortranarray(preds), np.asfortranarray(truths)
    elif layout == "strided":
        preds, truths = np.repeat(preds, 2, axis=1)[:, ::2], np.repeat(truths, 2, axis=1)[:, ::2]
    reference = np.array([np.linalg.norm(p - t) / np.linalg.norm(t) for p, t in zip(preds, truths)])
    assert per_function_relative_l2(preds, truths).tobytes() == reference.tobytes()
    assert np.array([relative_l2(p, t) for p, t in zip(preds, truths)]).tobytes() == reference.tobytes()


def test_mean_relative_l2_names_degenerate_row():
    truths = np.ones((3, 4))
    truths[1] = 0.0
    with pytest.raises(DataError, match="function 1"):
        mean_relative_l2(truths.copy(), truths)


def test_vector_magnitude_cases():
    field = np.zeros((1, 1, 2))
    field[0, 0] = [3.0, 4.0]
    assert vector_field_magnitude(field)[0, 0] == 5.0
    assert np.all(vector_field_magnitude(np.zeros((2, 3, 2))) == 0.0)


def test_vector_magnitude_matches_loop_oracle():
    rng = np.random.default_rng(1)
    field = rng.normal(size=(3, 5, 4))
    mags = vector_field_magnitude(field)
    for i in range(3):
        for j in range(5):
            assert mags[i, j] == pytest.approx(np.linalg.norm(field[i, j]), abs=1e-14)


def test_vector_magnitude_c1_is_abs():
    rng = np.random.default_rng(2)
    field = rng.normal(size=(2, 6, 1))
    np.testing.assert_allclose(
        vector_field_magnitude(field), np.abs(field[:, :, 0]), atol=1e-15
    )


def test_spatial_mse_cases():
    exact = np.ones((4, 5))
    assert np.all(spatial_mse(exact, exact) == 0.0)
    single = np.zeros((1, 3))
    np.testing.assert_array_equal(spatial_mse(single + 3.0, single), [9.0, 9.0, 9.0])
    # N=2 hand average
    preds = np.array([[1.0, 0.0], [3.0, 2.0]])
    truths = np.array([[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(spatial_mse(preds, truths), [(1 + 4) / 2, 0.0], atol=1e-15)


def test_spatial_mse_consistent_with_total_mse():
    rng = np.random.default_rng(3)
    preds = rng.normal(size=(7, 11))
    truths = rng.normal(size=(7, 11))
    field = spatial_mse(preds, truths)
    total = ((preds - truths) ** 2).mean()
    assert field.sum() == pytest.approx(11 * total, rel=1e-12)


def test_scaling_invariance_of_relative_error():
    rng = np.random.default_rng(4)
    truths = rng.normal(size=(5, 8)) + 1.0
    preds = truths * (1.0 + 0.05 * rng.normal(size=(5, 8)))
    base = mean_relative_l2(preds, truths)
    scales = rng.uniform(0.5, 3.0, size=(5, 1))
    scaled = mean_relative_l2(preds * scales, truths * scales)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_shape_mismatch_errors():
    with pytest.raises(ShapeError):
        per_function_relative_l2(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        spatial_mse(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        vector_field_magnitude(np.zeros((2, 3)))


def test_report_summary_and_csv(tmp_path):
    report = EvalReport(
        dataset="toy",
        model="m",
        per_function=np.array([0.01, 0.03]),
        spatial_mse_field=np.array([0.5, 0.25]),
        inference_seconds=0.0123,
    )
    assert report.mean_percent == pytest.approx(2.0, abs=1e-12)
    line = report.summary_line()
    assert line.startswith("toy,m,2%") or line.startswith("toy,m,2.0")
    csv = tmp_path / "report.csv"
    report.to_csv(csv)
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "function,relative_l2"
    assert len(rows) == 3
    mse_csv = tmp_path / "mse.csv"
    report.spatial_mse_csv(mse_csv, np.array([[0.0, 0.0], [1.0, 1.0]]))
    rows = mse_csv.read_text().strip().splitlines()
    assert rows[0] == "y1,y2,mse"
    assert len(rows) == 3


@pytest.mark.parametrize("rows", [1, 3])
def test_spatial_mse_csv_rejects_a_location_count_mismatch(tmp_path, rows):
    report = EvalReport("toy", "m", np.array([0.01]), np.array([0.5, 0.25]), 0.0)
    path = tmp_path / "mse.csv"
    with pytest.raises(ShapeError, match=rf"\({rows}, 2\) for 2 spatial MSE values"):
        report.spatial_mse_csv(path, np.zeros((rows, 2)))
    assert not path.exists()


def test_location_csv_bytes(tmp_path):
    # the one writer of export-basis and spatial-MSE files: %.17g everywhere
    path = tmp_path / "basis.csv"
    y = np.array([[0.1, 2.0], [1.0 / 3.0, -0.0]])
    write_location_csv(path, y, ["col0", "col4"], np.array([[1e-300, 5.0], [np.pi, -2.5]]), "rows")
    assert path.read_text() == (
        "y1,y2,col0,col4\n"
        "0.10000000000000001,2,1e-300,5\n"
        "0.33333333333333331,-0,3.1415926535897931,-2.5\n"
    )


@pytest.mark.parametrize("rows", [1, 3])
def test_location_csv_rejects_a_row_count_mismatch(tmp_path, rows):
    path = tmp_path / "basis.csv"
    with pytest.raises(ShapeError, match=rf"\({rows}, 2\) for 2 rows of basis columns"):
        write_location_csv(path, np.zeros((rows, 2)), ["col0", "col1"], np.zeros((2, 2)),
                           "rows of basis columns")
    assert not path.exists()


def test_evaluate_model_rejects_vector_targets():
    # callers pass magnitudes (OperatorDataset.scalar_targets); a vector
    # field is a shape mismatch with the (N, N_y) predictions
    model = EnsembleModel([VanillaTrunk(init_mlp(MLPConfig(1, (4,), 2, "tanh", True), 0))],
                          init_mlp(MLPConfig(3, (4,), 2, "tanh", False), 1), None)
    u, y = np.ones((2, 3)), np.linspace(0, 1, 5)[:, None]
    with pytest.raises(ShapeError):
        evaluate_model(model, u, np.ones((2, 5, 2)), y)


# crc32 of (per_function, spatial_mse_field) for each bundled config at
# initialization (seed 0), on the held-out quarter of a small dataset of
# its generator: rd2d at n=8 with 16 samples, the antiderivative config's
# own data. The same at one and two BLAS threads.
GOLDEN_EVAL_CRCS = {
    "antiderivative-vanilla.ini": (0xd660d798, 0x8a5ce9e5),
    "rd2d-modified-pod.ini": (0x8542d141, 0x0d86ed7f),
    "rd2d-p-plus-1-vanilla.ini": (0x86682ef9, 0x164c1768),
    "rd2d-pod-pou.ini": (0x11d2a103, 0xa1ef7b2d),
    "rd2d-pod.ini": (0x35a06bbb, 0xc992f3bb),
    "rd2d-vanilla-pod-pou.ini": (0xa797e159, 0x21be31db),
    "rd2d-vanilla-pod.ini": (0x87765c1b, 0xbade073e),
    "rd2d-vanilla-pou.ini": (0x6ae1d650, 0x10a5376c),
    "rd2d-vanilla.ini": (0x9e1a190d, 0x9fcee224),
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_evaluate_model_golden_bytes(name):
    # the first call and the repeated one, which reuses the trunk matrix
    _, ds, model = _bundled(name)
    _, test_idx = split_indices(ds.n_samples, ds.n_samples // 4, 0)
    v = ds.scalar_targets()[test_idx]
    for _ in range(2):
        report = evaluate_model(model, ds.U[test_idx], v, ds.Y)
        crcs = (zlib.crc32(report.per_function.tobytes()),
                zlib.crc32(report.spatial_mse_field.tobytes()))
        assert crcs == GOLDEN_EVAL_CRCS[name]
