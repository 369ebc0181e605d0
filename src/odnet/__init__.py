"""Ensemble DeepONet toolkit.

Operator-learning models whose trunk stacks several basis-generating
members (plain MLP trunks, POD trunks, and a partition-of-unity
mixture-of-experts trunk) column-wise under a single wide branch, plus
desk-scale PDE dataset generation, deterministic training, and an
evaluation/CLI harness.
"""

__version__ = "0.1.0"

import ctypes

from .autodiff import Tape, Tensor
from .data import (
    OperatorDataset,
    RDParams,
    gen_antiderivative,
    gen_reaction_diffusion_2d,
    read_dataset,
    write_dataset,
)
from .errors import (
    ConfigError,
    CoverageError,
    DataError,
    NumericError,
    OdnetError,
    ShapeError,
)
from .evaluation import (
    EvalReport,
    evaluate_model,
    mean_relative_l2,
    relative_l2,
    spatial_mse,
    vector_field_magnitude,
)
from .networks import MLP, MLPConfig, init_mlp
from .partition import (
    PatchSet,
    coverage_check,
    grid_patch_centers,
    uniform_radius,
    wendland_c2,
)
from .pod import PODBasis, compute_pod
from .trunks import EnsembleModel, PODTrunk, PoUTrunk, VanillaTrunk, export_basis
from .training import Adam, TrainConfig, TrainReport, inverse_time_lr, mse_loss, train
from .checkpoint import load_checkpoint, save_checkpoint
from .runconfig import RunConfig, build_model, generate_dataset, parse_config, split_indices


def _pin_allocator():
    """Fix glibc's mmap and trim thresholds (32 MiB, 256 MiB) for the process.

    A training step's large temporaries (trunk activations, the product and
    its residual) are 128 KB to a few MB. Left to glibc's dynamic
    thresholds, whether they come from the settled heap or are mmapped,
    trimmed and faulted in again every step depends on the allocation
    history, even on the size of the environment; pinned, they are reused.
    A silent no-op where there is no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_pin_allocator()

__all__ = [
    "Adam",
    "ConfigError",
    "CoverageError",
    "DataError",
    "EnsembleModel",
    "EvalReport",
    "MLP",
    "MLPConfig",
    "NumericError",
    "OdnetError",
    "OperatorDataset",
    "PatchSet",
    "PODBasis",
    "PODTrunk",
    "PoUTrunk",
    "RDParams",
    "RunConfig",
    "ShapeError",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainReport",
    "VanillaTrunk",
    "build_model",
    "compute_pod",
    "coverage_check",
    "evaluate_model",
    "export_basis",
    "gen_antiderivative",
    "gen_reaction_diffusion_2d",
    "generate_dataset",
    "grid_patch_centers",
    "init_mlp",
    "inverse_time_lr",
    "load_checkpoint",
    "mean_relative_l2",
    "mse_loss",
    "parse_config",
    "read_dataset",
    "relative_l2",
    "save_checkpoint",
    "spatial_mse",
    "split_indices",
    "train",
    "uniform_radius",
    "vector_field_magnitude",
    "wendland_c2",
    "write_dataset",
]
