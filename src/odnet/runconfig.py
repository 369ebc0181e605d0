"""INI-style run configuration: parsing, strict validation, and assembly
of datasets and models.

Sections: [data] generator choice and parameters, [model] branch and the
member list, one [trunk.<name>] section per member, [train] optimizer and
schedule, [eval] the train/test split. Unknown sections or keys are
configuration errors; nothing is silently ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import data as datamod
from .errors import ConfigError, CoverageError
from .networks import ACTIVATIONS, MLPConfig, init_mlp
from .partition import (
    Patch,
    PatchSet,
    coverage_check,
    grid_patch_centers,
    uniform_radius,
)
from .pod import compute_pod
from .trunks import EnsembleModel, PODTrunk, PoUTrunk, VanillaTrunk
from .training import TrainConfig

# Keys each trunk kind takes besides kind and p, with their defaults.
_TRUNK_KEYS = {
    "vanilla": {"hidden": (64, 64, 64)},
    "pod": {"modified": True},
    "pou": {"hidden": (64, 64, 64), "bbox": (), "grid": (), "select": None, "delta": 0.1},
}


@dataclass(frozen=True)
class TrunkSpec:
    """Declarative description of one trunk member."""

    name: str
    kind: str  # vanilla | pod | pou
    p: int
    hidden: tuple = ()
    modified: bool = False
    bbox: tuple = ()  # (lo1, hi1, lo2, hi2, ...)
    grid: tuple = ()
    select: tuple | None = None
    delta: float = 0.0

    def __post_init__(self):
        where = f"trunk {self.name!r}"
        if self.kind not in _TRUNK_KEYS:
            raise ConfigError(f"{where}: unknown kind {self.kind!r}")
        if self.p < 1:
            raise ConfigError(f"{where}: p must be >= 1")
        if self.kind != "pod" and (not self.hidden or min(self.hidden) < 1):
            raise ConfigError(f"{where}: hidden needs at least one width, all >= 1")
        if self.kind != "pou":
            return
        if not self.bbox or len(self.bbox) != 2 * len(self.grid):
            raise ConfigError(
                f"{where}: bbox needs lo/hi per grid axis "
                f"(got {len(self.bbox)} numbers for {len(self.grid)} axes)"
            )
        if any(hi <= lo for lo, hi in zip(self.bbox[0::2], self.bbox[1::2])):
            raise ConfigError(f"{where}: bbox needs hi > lo on every axis")
        if min(self.grid) < 1:
            raise ConfigError(f"{where}: grid needs at least one node per axis")
        nodes = math.prod(self.grid)
        if self.select is not None and any(i < 0 or i >= nodes for i in self.select):
            raise ConfigError(f"{where}: select indices must lie in [0, {nodes})")
        if self.delta < 0.0:
            raise ConfigError(f"{where}: delta must be >= 0")


@dataclass(frozen=True)
class DataSpec:
    generator: str
    n: int = 240
    seed: int = 0
    grid: int = 0  # generator-dependent default
    modes: int = 5
    branch_grid: int = 8
    dt: float | None = None
    nu: float = 0.1
    t_final: float = 0.5
    path: str = ""

    def __post_init__(self):
        if self.generator not in ("antiderivative", "rd2d", "file"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        if (self.generator == "file") != bool(self.path):
            raise ConfigError("generator=file requires a path, and path needs generator=file")
        for key, low in (("n", 1), ("modes", 1), ("branch_grid", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"[data] {key} must be >= {low}")


@dataclass(frozen=True)
class EvalSpec:
    test_count: int = 40
    split_seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    data: DataSpec
    members: list
    branch_hidden: tuple
    activation: str
    train: TrainConfig
    seeds: list
    eval: EvalSpec = field(default_factory=EvalSpec)

    def __post_init__(self):
        names = [m.name for m in self.members]
        if not names:
            raise ConfigError("[model] members must list at least one trunk")
        if len(set(names)) != len(names):
            raise ConfigError("[model] members must not list a trunk twice")
        if not self.branch_hidden or min(self.branch_hidden) < 1:
            raise ConfigError("branch_hidden needs at least one width, all >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("[train] seeds must list at least one seed, all >= 0")

    @property
    def text(self) -> str:
        """Canonical INI form of the fields: every section, only the keys
        of each trunk's kind, floats via repr. Comments and key order of
        a parsed source are not kept; parse_config(cfg.text) == cfg."""
        t = self.train
        sections = [
            ("data", [(f.name, getattr(self.data, f.name)) for f in fields(DataSpec)]),
            ("model", [("members", [m.name for m in self.members]),
                       ("branch_hidden", self.branch_hidden),
                       ("activation", self.activation)]),
            *((f"trunk.{m.name}", [("kind", m.kind), ("p", m.p)]
               + [(k, getattr(m, k)) for k in _TRUNK_KEYS[m.kind]])
              for m in self.members),
            ("train", [("epochs", t.epochs), ("optimizer", t.optimizer), ("lr0", t.lr0),
                       ("gamma", t.gamma), ("decay_step", t.decay_step),
                       ("weight_decay", t.weight_decay), ("batch", t.batch_size),
                       ("seeds", self.seeds)]),
            ("eval", [(f.name, getattr(self.eval, f.name)) for f in fields(EvalSpec)]),
        ]
        return "\n".join(
            f"[{name}]\n" + "".join(
                f"{key} = {_format(value)}\n" for key, value in pairs
                if value is not None and value != ""
            )
            for name, pairs in sections
        )


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return " ".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _ints(raw: str):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _floats(raw: str):
    return tuple(_float(tok) for tok in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


_DATA_READERS = {
    "generator": str.strip, "n": int, "seed": int, "grid": int, "modes": int,
    "branch_grid": int, "dt": _float, "nu": _float, "t_final": _float, "path": str.strip,
}
_MODEL_READERS = {
    "members": lambda raw: raw.replace(",", " ").split(),
    "branch_hidden": _ints,
    "activation": str.strip,
}
_TRUNK_READERS = {
    "p": int, "hidden": _ints, "modified": _bool, "bbox": _floats, "grid": _ints,
    "select": lambda raw: _ints(raw) or None, "delta": _float,
}
_TRAIN_READERS = {
    "epochs": int, "optimizer": str.strip, "lr0": _float, "gamma": _float,
    "decay_step": int, "weight_decay": _float, "batch": int, "seeds": _ints,
}
_EVAL_READERS = {"test_count": int, "split_seed": int}


def _read(section, readers) -> dict:
    """Convert the keys present in ``section``; an absent key keeps its
    dataclass default. Unknown keys and unreadable values name the key."""
    unknown = set(section) - set(readers)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section.name}]: {', '.join(sorted(unknown))}"
        )
    out = {}
    for key, raw in section.items():
        try:
            out[key] = readers[key](raw)
        except ValueError:
            raise ConfigError(f"[{section.name}] {key}: cannot read {raw.strip()!r}") from None
    return out


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    known = {"data", "model", "train", "eval"}
    for sec in parser.sections():
        if sec not in known and not sec.startswith("trunk."):
            raise ConfigError(f"unknown section [{sec}]")
    for sec in ("data", "model", "train"):
        if sec not in parser:
            raise ConfigError(f"missing required section [{sec}]")

    data = DataSpec(**{"generator": "", **_read(parser["data"], _DATA_READERS)})
    model = _read(parser["model"], _MODEL_READERS)
    member_names = model.get("members", [])
    members = []
    for name in member_names:
        sec = f"trunk.{name}"
        if sec not in parser:
            raise ConfigError(f"member {name!r} has no [{sec}] section")
        members.append(_parse_trunk(name, parser[sec]))
    declared = {f"trunk.{n}" for n in member_names}
    for sec in parser.sections():
        if sec.startswith("trunk.") and sec not in declared:
            raise ConfigError(f"section [{sec}] is not listed in [model] members")

    train = _read(parser["train"], _TRAIN_READERS)
    seeds = list(train.pop("seeds", (0,)))
    if "batch" in train:
        train["batch_size"] = train.pop("batch")
    ev = _read(parser["eval"], _EVAL_READERS) if "eval" in parser else {}
    return RunConfig(
        data=data,
        members=members,
        branch_hidden=model.get("branch_hidden", (64, 64)),
        activation=model.get("activation", "tanh"),
        train=TrainConfig(**train, seed=seeds[0] if seeds else 0),
        seeds=seeds,
        eval=EvalSpec(**ev),
    )


def _parse_trunk(name: str, section) -> TrunkSpec:
    kind = section.get("kind", "").strip()
    if kind not in _TRUNK_KEYS:
        raise ConfigError(f"trunk {name!r}: unknown kind {kind!r}")
    for key in section:
        if key not in ("kind", "p", *_TRUNK_KEYS[kind]):
            raise ConfigError(f"trunk {name!r}: key {key!r} not valid for kind={kind}")
    values = _read(section, {"kind": str.strip, **_TRUNK_READERS})
    return TrunkSpec(name=name, **{"p": 0, **_TRUNK_KEYS[kind], **values})


def generate_dataset(spec: DataSpec) -> datamod.OperatorDataset:
    if spec.generator == "antiderivative":
        grid = spec.grid if spec.grid else 64
        return datamod.gen_antiderivative(
            spec.n, n_modes=spec.modes, grid=grid, seed=spec.seed
        )
    if spec.generator == "rd2d":
        params = datamod.RDParams(
            nu=spec.nu,
            t_final=spec.t_final,
            n=spec.grid if spec.grid else 32,
            dt=spec.dt,
            branch_grid=spec.branch_grid,
        )
        return datamod.gen_reaction_diffusion_2d(params, spec.n, seed=spec.seed)
    return datamod.read_dataset(spec.path)


def split_indices(n: int, test_count: int, split_seed: int):
    """Deterministic shuffle split into (train, test) index arrays."""
    if test_count < 0 or test_count >= n:
        raise ConfigError(f"test_count={test_count} must be in [0, {n})")
    order = np.random.default_rng(split_seed).permutation(n)
    if test_count == 0:
        return np.sort(order), np.array([], dtype=order.dtype)
    return np.sort(order[:-test_count]), np.sort(order[-test_count:])


def build_patchset(spec: TrunkSpec) -> PatchSet:
    axes = len(spec.grid)
    lows = spec.bbox[0::2]
    highs = spec.bbox[1::2]
    centers = grid_patch_centers(lows, highs, spec.grid, spec.select)
    spacings = [
        (hi - lo) / (c - 1)
        for lo, hi, c in zip(lows, highs, spec.grid)
        if c > 1
    ]
    if not spacings:
        # single node per axis: fall back to the box side length
        spacings = [hi - lo for lo, hi in zip(lows, highs)]
    rho = uniform_radius(spec.delta, max(spacings), axes)
    return PatchSet([Patch(c, rho) for c in centers], delta=spec.delta)


def _seed_streams(seed, tag: int, count: int) -> list:
    """``count`` independent seeds derived from ``seed``; all None for None."""
    if seed is None:
        return [None] * count
    children = np.random.SeedSequence(entropy=(int(seed), tag)).spawn(count)
    return [s.generate_state(1)[0] for s in children]


def assemble_model(cfg: RunConfig, n_x: int, d_v: int, seed: int | None,
                   make_mlp, pod_basis) -> EnsembleModel:
    """The ensemble ``cfg`` declares for N_x branch inputs and d_v-dimensional
    locations: member order, seed streams, patch sets and the bias rule.
    ``make_mlp(name, mlp_config, seed)`` supplies the network stored under
    ``name`` (``member<i>``, ``member<i>.expert<k>`` or ``branch``), and
    ``pod_basis(i, spec)`` the basis of POD member i. With ``seed=None`` no
    seed streams are derived and ``make_mlp`` gets None, for networks that
    are not freshly initialized."""
    seeds = _seed_streams(seed, 0xD0, len(cfg.members) + 1)
    members = []
    for i, spec in enumerate(cfg.members):
        child = seeds[i]
        if spec.kind == "vanilla":
            mcfg = MLPConfig(d_v, spec.hidden, spec.p, cfg.activation, activate_last=True)
            members.append(VanillaTrunk(make_mlp(f"member{i}", mcfg, child)))
        elif spec.kind == "pod":
            members.append(PODTrunk(pod_basis(i, spec), spec.p, spec.modified))
        else:
            ps = build_patchset(spec)
            if ps.dimension != d_v:
                raise ConfigError(
                    f"trunk {spec.name!r}: patch dimension {ps.dimension} != d_v {d_v}"
                )
            ecfg = MLPConfig(d_v, spec.hidden, spec.p, cfg.activation, activate_last=True)
            experts = [make_mlp(f"member{i}.expert{k}", ecfg, s)
                       for k, s in enumerate(_seed_streams(child, 0xE, len(ps)))]
            members.append(PoUTrunk(ps, experts, spec.p))
    bcfg = MLPConfig(n_x, cfg.branch_hidden, sum(m.p for m in members), cfg.activation,
                     activate_last=False)
    branch = make_mlp("branch", bcfg, seeds[-1])
    standalone_standard_pod = [(m.kind, m.modified) for m in cfg.members] == [("pod", False)]
    bias = None if standalone_standard_pod else ad.Tensor(np.zeros(()), requires_grad=True)
    return EnsembleModel(members, branch, bias)


def build_model(cfg: RunConfig, dataset: datamod.OperatorDataset,
                train_idx, seed: int) -> EnsembleModel:
    """Assemble the ensemble for a dataset: fresh networks, POD bases from
    the training split only, and PoU patch sets that must cover all of Y."""

    def pod_basis(i, spec):
        targets = dataset.scalar_targets()[np.asarray(train_idx)]
        if spec.p > min(targets.shape):
            raise ConfigError(
                f"trunk {spec.name!r}: p={spec.p} exceeds the {min(targets.shape)} "
                f"POD modes of {targets.shape[0]} training snapshots on "
                f"{targets.shape[1]} locations"
            )
        return compute_pod(targets, spec.p, y_locations=dataset.Y)

    model = assemble_model(cfg, dataset.n_x, dataset.d_v, seed,
                           lambda name, mcfg, s: init_mlp(mcfg, s), pod_basis)
    for spec, member in zip(cfg.members, model.members):
        uncovered = coverage_check(member.patchset, dataset.Y) if spec.kind == "pou" else []
        if uncovered:
            raise CoverageError(
                f"trunk {spec.name!r}: {len(uncovered)} output location(s) "
                f"not covered by any patch (first index {uncovered[0]})"
            )
    return model
