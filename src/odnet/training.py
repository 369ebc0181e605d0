"""Loss, the Adam update, the inverse-time schedule, and the training loop.

Training is full-batch by default (desk-scale datasets are small); set
``batch_size`` for mini-batching over function indices. POD trunk members
hold no trainable tensors, so they are frozen by construction. The
optimizer holds the update rule's facts: which tensors AdamW decays (the
2-d ones) and clearing the gradients it steps, so ``train`` asks a model
only for ``predict`` and ``parameters``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError
from .evaluation import replacing

OPTIMIZERS = ("adam", "adamw")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5000
    optimizer: str = "adam"
    lr0: float = 1e-3
    gamma: float = 0.5
    decay_step: int = 0  # 0 -> epochs // 5
    weight_decay: float = 1e-4
    batch_size: int = 0  # 0 -> full batch
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        for name in ("lr0", "gamma", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.decay_step < 0:
            raise ConfigError("decay_step must be >= 0 (0 -> epochs // 5)")
        if self.batch_size < 0:
            raise ConfigError("batch must be >= 0 (0 -> full batch)")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")

    def effective_decay_step(self) -> int:
        if self.decay_step >= 1:
            return int(self.decay_step)
        return max(1, self.epochs // 5)


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)

    @property
    def epochs_run(self):
        return len(self.losses)

    def mean_epoch_seconds(self) -> float:
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0

    def to_csv(self, path):
        rows = np.column_stack([range(self.epochs_run), self.losses, self.lrs, self.epoch_seconds])
        with replacing(path) as fh:
            np.savetxt(fh, rows, "%d,%.17g,%.17g,%.6g", header="epoch,loss,lr,seconds",
                       comments="")


def mse_loss(pred: ad.Tensor, target, tape: ad.Tape | None = None) -> ad.Tensor:
    """Mean over all entries of the squared difference."""
    return ad.mse(pred, ad.as_tensor(target), tape)


def inverse_time_lr(lr0: float, gamma: float, step_interval: int, step: int) -> float:
    """lr0 / (1 + gamma * floor(step / step_interval))."""
    return lr0 / (1.0 + gamma * (int(step) // int(step_interval)))


class Adam:
    """Adam with bias correction and fixed BETA1, BETA2 and EPS: one
    elementwise pass over flat vectors of values (a model's own), gradients
    and moments. A nonzero ``weight_decay`` makes it AdamW: each step also
    subtracts ``lr * weight_decay * p`` from each 2-d p (the weights; biases
    are 1-d and a model bias 0-d). A parameter whose ``grad`` is None keeps
    its value and moments; a tensor listed twice is a ValueError."""

    def __init__(self, params, weight_decay: float = 0.0):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.t = 0
        self._values, self._grads = ad._flat_parameters(self.params)
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._sizes = [p.data.size for p in self.params]
        self._decay = np.repeat([p.data.ndim == 2 for p in self.params], self._sizes)

    def __setstate__(self, state):
        """A deep copy or an unpickled optimizer steps its own tensors: lay
        them out again, or adopt a copied model's vector."""
        self.__dict__.update(state)
        self._values, self._grads = ad._flat_parameters(self.params)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr: float):
        for p in self.params:  # a gradient assigned by hand joins the vector
            if p.grad is not None and p.grad is not p._grad_slot:
                p._grad_slot[...] = p.grad
        got = [p.grad is not None for p in self.params]
        live = True if all(got) else np.repeat(got, self._sizes)
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        g, m, v, p = self._grads, self._m, self._v, self._values
        np.multiply(m, BETA1, out=m, where=live)
        np.add(m, (1.0 - BETA1) * g, out=m, where=live)
        np.multiply(v, BETA2, out=v, where=live)
        np.add(v, (1.0 - BETA2) * (g * g), out=v, where=live)
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if self.weight_decay != 0.0:
            np.add(step, lr * self.weight_decay * p, out=step, where=self._decay)
        np.subtract(p, step, out=p, where=live)


def make_optimizer(model, cfg: TrainConfig):
    decay = cfg.weight_decay if cfg.optimizer == "adamw" else 0.0
    return Adam(model.parameters(), weight_decay=decay)


@np.errstate(over="ignore", invalid="ignore")  # the loss check reports a divergence
def train(model, u_samples, v_targets, y_locations, cfg: TrainConfig) -> TrainReport:
    """Full forward -> MSE -> backward -> optimizer-step epochs at the
    fixed locations ``y_locations``. Each step passes them to
    ``model.predict``; the model works out what depends only on them on
    the first step and keeps it while they are unchanged.

    Aborts with NumericError (carrying the epoch index and the partial
    report) as soon as the loss stops being finite. Its message names the
    first non-finite tensor: a parameter by its position in
    ``model.parameters()``, or else the first tape record by op and shape.
    """
    u = np.asarray(u_samples, dtype=np.float64)
    v = np.asarray(v_targets, dtype=np.float64)
    y = np.asarray(y_locations, dtype=np.float64)
    if u.shape[0] != v.shape[0]:
        raise ShapeError(f"got {u.shape[0]} inputs but {v.shape[0]} targets")
    optimizer = make_optimizer(model, cfg)
    report = TrainReport()
    decay_every = cfg.effective_decay_step()
    rng = np.random.default_rng(cfg.seed)
    n = u.shape[0]
    batch = n if cfg.batch_size <= 0 else min(cfg.batch_size, n)

    u_full = ad.Tensor(u)
    v_full = ad.Tensor(v)
    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        lr = inverse_time_lr(cfg.lr0, cfg.gamma, decay_every, epoch)
        try:
            if batch == n:
                epoch_loss = _step(model, optimizer, u_full, v_full, y, lr)
            else:
                order = rng.permutation(n)
                total = 0.0
                for lo in range(0, n, batch):
                    sel = order[lo: lo + batch]
                    loss = _step(model, optimizer, ad.Tensor(u[sel]), ad.Tensor(v[sel]), y, lr)
                    total += loss * sel.size
                epoch_loss = total / n
        except NumericError as exc:
            raise _aborted(epoch, report, str(exc)) from None
        elapsed = time.perf_counter() - start
        if not np.isfinite(epoch_loss):
            raise _aborted(epoch, report, "the sum of the batch losses overflowed")
        report.losses.append(epoch_loss)
        report.lrs.append(lr)
        report.epoch_seconds.append(elapsed)
    return report


def _aborted(epoch: int, report: TrainReport, detail: str) -> NumericError:
    err = NumericError(f"training loss became non-finite at epoch {epoch}; {detail}")
    err.epoch = epoch
    err.report = report
    return err


def _step(model, optimizer, u_t, v_t, y, lr) -> float:
    tape = ad.Tape()
    pred = model.predict(u_t, y, tape)
    loss = mse_loss(pred, v_t, tape)
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericError(f"first non-finite tensor is {_first_nonfinite(model, tape)}")
    optimizer.zero_grad()
    tape.backward(loss)
    optimizer.step(lr)
    return value


def _first_nonfinite(model, tape) -> str:
    """Name the first parameter, by position in ``model.parameters()``, or
    else the first tape record whose data holds a NaN or an infinity."""
    for i, p in enumerate(model.parameters()):
        if not np.isfinite(p.data).all():
            return f"parameter {i} (shape {p.data.shape})"
    hit = tape.first_nonfinite()
    if hit is None:
        return "not on the tape"
    op, shape = hit
    return f"the output of {op} (shape {shape})"
