"""MLP construction, Glorot initialization, and batched forward evaluation.

Samples are rows everywhere in this project: an MLP maps (B, input_dim)
to (B, output_dim). Every layer is one ``autodiff.linear`` call, with the
activation folded in. Branch networks leave their last layer linear;
trunk networks activate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ACTIVATIONS
from .errors import ShapeError


@dataclass(frozen=True)
class MLPConfig:
    """Shape and activation description of a dense network."""

    input_dim: int
    hidden: tuple
    output_dim: int
    activation: str = "tanh"
    activate_last: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("need at least one positive hidden width")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden, self.output_dim)

    @property
    def parameter_count(self):
        dims = self.layer_dims
        return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


class MLP:
    """Dense layers (weight, bias) chained per config."""

    def __init__(self, config: MLPConfig, weights, biases):
        dims = config.layer_dims
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ShapeError("layer count does not match config")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.data.shape != (dims[i], dims[i + 1]):
                raise ShapeError(
                    f"layer {i}: weight shape {w.data.shape} != {(dims[i], dims[i + 1])}"
                )
            if b.data.shape != (dims[i + 1],):
                raise ShapeError(f"layer {i}: bias shape {b.data.shape} != ({dims[i + 1]},)")
        self.config = config
        self.weights = list(weights)
        self.biases = list(biases)

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x, tape=None) -> ad.Tensor:
        """Batched evaluation of (B, input_dim) rows.

        Pure function of (weights, input); the last layer is activated
        iff config.activate_last.
        """
        x = ad.as_tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"forward: input shape {x.data.shape} does not match input_dim "
                f"{self.config.input_dim}"
            )
        last = len(self.weights) - 1
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            activated = i < last or self.config.activate_last
            h = ad.linear(h, w, b, tape, activation=self.config.activation if activated else None)
        return h


def init_mlp(config: MLPConfig, seed: int) -> MLP:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    dims = config.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(ad.Tensor(w, requires_grad=True))
        biases.append(ad.Tensor(np.zeros(fan_out), requires_grad=True))
    return MLP(config, weights, biases)
