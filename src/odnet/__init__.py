"""Ensemble DeepONet toolkit.

Operator-learning models whose trunk stacks several basis-generating
members (plain MLP trunks, POD trunks, and a partition-of-unity
mixture-of-experts trunk) column-wise under a single wide branch, plus
desk-scale PDE dataset generation, deterministic training, and an
evaluation/CLI harness.
"""

__version__ = "0.1.0"

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
    Patch,
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
    "Patch",
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
