import numpy as np
import pytest

from odnet import autodiff as ad
from odnet.errors import DataError, ShapeError
from odnet.evaluation import (
    EvalReport,
    evaluate_model,
    mean_relative_l2,
    per_function_relative_l2,
    relative_l2,
    spatial_mse,
    vector_field_magnitude,
)
from odnet.networks import MLPConfig, init_mlp
from odnet.partition import Patch, PatchSet
from odnet.pod import compute_pod
from odnet.trunks import EnsembleModel, PODTrunk, PoUTrunk, VanillaTrunk


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


def test_evaluate_model_accepts_a_binding():
    # a binding made once gives the same bytes as passing the locations
    rng = np.random.default_rng(21)
    y = rng.uniform(-1, 1, size=(12, 2))
    snapshots = rng.normal(size=(8, 12)) + 2.0
    pou = PoUTrunk(
        PatchSet([Patch([-0.5, 0.0], 1.5), Patch([0.5, 0.0], 1.5)]),
        [init_mlp(MLPConfig(2, (6,), 3, "tanh", True), k) for k in range(2)], 3,
    )
    members = [
        VanillaTrunk(init_mlp(MLPConfig(2, (6,), 2, "tanh", True), 3)),
        PODTrunk(compute_pod(snapshots, 3, y_locations=y), 3, modified=False),
        pou,
    ]
    model = EnsembleModel(members, init_mlp(MLPConfig(5, (6,), 8, "tanh", False), 4),
                          ad.Tensor(np.array(0.2), requires_grad=True))
    u = rng.uniform(-1, 1, size=(7, 5))
    v = rng.normal(size=(7, 12)) + 3.0
    direct = evaluate_model(model, u, v, y)
    bound = evaluate_model(model, u, v, model.bind(y))
    assert bound.per_function.tobytes() == direct.per_function.tobytes()
    assert bound.spatial_mse_field.tobytes() == direct.spatial_mse_field.tobytes()


def test_evaluate_model_rejects_vector_targets():
    # callers pass magnitudes (OperatorDataset.scalar_targets); a vector
    # field is a shape mismatch with the (N, N_y) predictions
    model = EnsembleModel([VanillaTrunk(init_mlp(MLPConfig(1, (4,), 2, "tanh", True), 0))],
                          init_mlp(MLPConfig(3, (4,), 2, "tanh", False), 1), None)
    u, y = np.ones((2, 3)), np.linspace(0, 1, 5)[:, None]
    with pytest.raises(ShapeError):
        evaluate_model(model, u, np.ones((2, 5, 2)), y)
