"""Error metrics: per-function relative l2, its mean/std as percentages,
pointwise spatial MSE over functions, and vector-field magnitude handling."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError


def relative_l2(pred, truth) -> float:
    """||pred - truth||_2 / ||truth||_2 for one function."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if pred.shape != truth.shape:
        raise ShapeError(f"relative_l2: shapes {pred.shape} and {truth.shape} differ")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise DataError("relative_l2: degenerate truth vector with zero norm")
    return float(np.linalg.norm(pred - truth) / denom)


def mean_relative_l2(preds, truths) -> float:
    """100 x mean of per-row relative l2 errors."""
    return 100.0 * float(np.mean(per_function_relative_l2(preds, truths)))


def per_function_relative_l2(preds, truths) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape:
        raise ShapeError(f"shapes {preds.shape} and {truths.shape} differ")
    out = np.empty(preds.shape[0])
    for i in range(preds.shape[0]):
        try:
            out[i] = relative_l2(preds[i], truths[i])
        except DataError as exc:
            raise DataError(f"function {i}: {exc}") from None
    return out


def vector_field_magnitude(field) -> np.ndarray:
    """Pointwise Euclidean magnitude across the component axis.

    With a single component this reduces to the absolute value.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ShapeError(f"vector field must be (N, N_y, c), got {field.shape}")
    return np.sqrt((field * field).sum(axis=2))


def spatial_mse(preds, truths) -> np.ndarray:
    """Per-location squared error averaged over the N functions."""
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape:
        raise ShapeError(f"spatial_mse: shapes {preds.shape} and {truths.shape} differ")
    diff = preds - truths
    return (diff * diff).mean(axis=0)


@dataclass
class EvalReport:
    dataset: str
    model: str
    per_function: np.ndarray
    spatial_mse_field: np.ndarray
    inference_seconds: float

    @property
    def mean_percent(self):
        return 100.0 * float(np.mean(self.per_function))

    @property
    def std_percent(self):
        return 100.0 * float(np.std(self.per_function))

    def summary_line(self) -> str:
        return (
            f"{self.dataset},{self.model},{self.mean_percent:.3g}%,"
            f"{self.std_percent:.3g}%,{self.inference_seconds:.6g}"
        )

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("function,relative_l2\n")
            for i, e in enumerate(self.per_function):
                fh.write(f"{i},{e:.17g}\n")

    def spatial_mse_csv(self, path, y_locations):
        y = np.asarray(y_locations, dtype=np.float64)
        with open(path, "w") as fh:
            head = ",".join(f"y{j + 1}" for j in range(y.shape[1]))
            fh.write(f"{head},mse\n")
            for row, val in zip(y, self.spatial_mse_field):
                coords = ",".join(f"{c:.17g}" for c in row)
                fh.write(f"{coords},{val:.17g}\n")


def evaluate_model(model, u_samples, v_targets, y_locations,
                   dataset_name: str = "dataset", model_name: str = "model") -> EvalReport:
    """Timed prediction over a sample batch plus the full error protocol.

    ``y_locations`` is the locations or a binding of them made by
    ``model.bind``, so repeated calls at fixed locations can bind once.
    ``v_targets`` is (N, N_y): pass a vector field's magnitudes, as
    ``OperatorDataset.scalar_targets`` gives them.
    """
    v = np.asarray(v_targets, dtype=np.float64)
    start = time.perf_counter()
    preds = model.predict(u_samples, y_locations).data
    elapsed = time.perf_counter() - start
    return EvalReport(
        dataset=dataset_name,
        model=model_name,
        per_function=per_function_relative_l2(preds, v),
        spatial_mse_field=spatial_mse(preds, v),
        inference_seconds=elapsed,
    )
