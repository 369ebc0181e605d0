"""Error metrics: per-function relative l2, its mean/std as percentages,
pointwise spatial MSE over functions, and vector-field magnitude handling."""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError


def relative_l2(pred, truth) -> float:
    """||pred - truth||_2 / ||truth||_2 for one function."""
    return float(per_function_relative_l2(np.ravel(pred)[None], np.ravel(truth)[None])[0])


def mean_relative_l2(preds, truths) -> float:
    """100 x mean of per-row relative l2 errors."""
    return 100.0 * float(np.mean(per_function_relative_l2(preds, truths)))


def per_function_relative_l2(preds, truths) -> np.ndarray:
    """||pred - truth||_2 / ||truth||_2 of each row (``relative_l2`` is one
    row). A row's norm is ``sqrt(np.vecdot(r, r))``, one BLAS dot per row,
    the bits ``np.linalg.norm`` computes for a 1-d float array. The dots
    run over C-contiguous rows because ``np.linalg.norm`` ravels its
    argument into one contiguous vector, and a dot over strided rows may
    sum in another order."""
    return _relative_rows(*_residual(preds, truths))


def _residual(preds, truths, out=None):
    """(preds - truths, truths) as float64 arrays of one shape; the
    residual goes to ``out``, or else to a new array."""
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape:
        raise ShapeError(f"shapes {preds.shape} and {truths.shape} differ")
    return np.subtract(preds, truths, out=out), truths


def _relative_rows(residual: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Per row (axis 0) ||residual|| / ||truth||; a zero truth is a DataError."""
    rows = truths.shape[0]
    truths = np.ascontiguousarray(truths.reshape(rows, -1))
    residual = np.ascontiguousarray(residual.reshape(rows, -1))
    denom = np.sqrt(np.vecdot(truths, truths))
    if not denom.all():
        raise DataError(f"function {np.flatnonzero(denom == 0.0)[0]}: relative_l2: "
                        "degenerate truth vector with zero norm")
    return np.sqrt(np.vecdot(residual, residual)) / denom


def _mean_square(residual: np.ndarray) -> np.ndarray:
    """The mean over axis 0 of residual squared, squaring in place. As
    ``mean`` does it, a sum over the axis and then one division."""
    residual *= residual
    total = np.add.reduce(residual, axis=0)
    total /= residual.shape[0]
    return total


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
    return _mean_square(_residual(preds, truths)[0])


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
        rows = np.column_stack([np.arange(len(self.per_function)), self.per_function])
        with replacing(path) as fh:
            np.savetxt(fh, rows, "%d,%.17g", header="function,relative_l2", comments="")

    def spatial_mse_csv(self, path, y_locations):
        write_location_csv(path, y_locations, ["mse"], self.spatial_mse_field[:, None],
                           "spatial MSE values")


@contextlib.contextmanager
def replacing(path):
    """A binary handle on ``<path>.<pid>.part``, renamed over ``path`` when
    the block ends and removed if it raises: the one way odnet writes a
    file, so a run that dies mid-write leaves the old file whole."""
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def write_location_csv(path, y_locations, names, values, what: str):
    """A ``y1..yd,<names>`` header, then per location its coordinates and
    its row of ``values``, every number in ``%.17g`` so it reads back
    exactly. ``what`` names the values when the locations are not 2-d
    with one row per row of values (ShapeError; nothing is written)."""
    y = np.asarray(y_locations, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != len(values):
        raise ShapeError(f"locations of shape {y.shape} for {len(values)} {what}")
    with replacing(path) as fh:
        np.savetxt(fh, np.hstack([y, values]), "%.17g", ",", comments="",
                   header=",".join([*(f"y{j + 1}" for j in range(y.shape[1])), *names]))


def evaluate_model(model, u_samples, v_targets, y_locations,
                   dataset_name: str = "dataset", model_name: str = "model") -> EvalReport:
    """Timed prediction over a sample batch plus the full error protocol.

    The prediction at ``y_locations`` is untaped, so repeated calls at the
    same locations reuse the model's trunk matrix and run only the branch
    and the product. The matrix is computed again when a trunk parameter
    changes (an optimizer step, an in-place edit) or the locations do, so
    the report is the same bits as a first call's.
    ``v_targets`` is (N, N_y): pass a vector field's magnitudes, as
    ``OperatorDataset.scalar_targets`` gives them. The residual
    ``preds - v`` is formed once, over the prediction array (a new one
    per call): the relative errors are read off it first, then it is
    squared in place for the spatial MSE.
    """
    start = time.perf_counter()
    preds = model.predict(u_samples, y_locations).data
    elapsed = time.perf_counter() - start
    residual, v = _residual(preds, v_targets, out=preds)
    per_function = _relative_rows(residual, v)
    return EvalReport(
        dataset=dataset_name,
        model=model_name,
        per_function=per_function,
        spatial_mse_field=_mean_square(residual),
        inference_seconds=elapsed,
    )
