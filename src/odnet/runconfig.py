"""INI-style run configuration: parsing, strict validation, and assembly
of datasets and models.

Every key is one dataclass field, named as the key (``batch`` is
``batch_size``): [data] takes DataSpec's generator and what
GENERATOR_KEYS lists for the generator, [model] RunConfig's members,
branch_hidden and activation, [trunk.<name>] TrunkSpec's kind, p and
what _TRUNK_KEYS lists for the kind, [train] TrainConfig's fields and
RunConfig's seeds (the first is TrainConfig's seed), [eval] EvalSpec's.
The field's default is the key's, its annotation picks the reader, and
parse_config and RunConfig.text walk the same fields. Unknown sections
or keys are errors, and so is a [data] key of another generator unless
it restates its default (as the text of older builds does); nothing is
silently ignored.
"""

from __future__ import annotations

import configparser
import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import data as datamod
from .errors import ConfigError, CoverageError, ShapeError
from .networks import ACTIVATIONS, MLPConfig, init_mlp
from .partition import PatchSet, coverage_check, grid_patch_centers, uniform_radius
from .pod import compute_pod
from .trunks import EnsembleModel, PODTrunk, PoUTrunk, VanillaTrunk
from .training import TrainConfig

# Keys each trunk kind takes besides kind and p.
_TRUNK_KEYS = {
    "vanilla": ("hidden",),
    "pod": ("modified",),
    "pou": ("hidden", "bbox", "grid", "select", "delta"),
}
# Keys each data generator takes besides generator.
GENERATOR_KEYS = {
    "antiderivative": ("n", "seed", "grid", "modes"),
    "rd2d": ("n", "seed", "grid", "branch_grid", "dt", "nu", "t_final"),
    "file": ("path",),
}


def _foreign_field(spec, own) -> str | None:
    """The first field of ``spec`` outside ``own`` that is not at its default."""
    return next((f.name for f in fields(spec)
                 if f.name not in own and getattr(spec, f.name) != f.default), None)


@dataclass(frozen=True)
class TrunkSpec:
    """Declarative description of one trunk member."""

    name: str
    kind: str  # vanilla | pod | pou
    p: int
    hidden: tuple[int, ...] = (64, 64, 64)
    modified: bool = True
    bbox: tuple[float, ...] = ()  # (lo1, hi1, lo2, hi2, ...)
    grid: tuple[int, ...] = ()
    select: tuple[int, ...] | None = None
    delta: float = 0.1

    def __post_init__(self):
        where = f"trunk {self.name!r}"
        if self.kind not in _TRUNK_KEYS:
            raise ConfigError(f"{where}: unknown kind {self.kind!r}")
        if foreign := _foreign_field(self, ("name", "kind", "p", *_TRUNK_KEYS[self.kind])):
            raise ConfigError(f"{where}: {foreign} is not a key of kind={self.kind}")
        if self.p < 1:
            raise ConfigError(f"{where}: p must be >= 1")
        if self.kind != "pod" and (not self.hidden or min(self.hidden) < 1):
            raise ConfigError(f"{where}: hidden needs at least one width, all >= 1")
        if self.kind == "pou":  # its geometry is checked by building its patch set
            try:
                build_patchset(self)
            except (ValueError, ShapeError, IndexError) as exc:
                raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class DataSpec:
    generator: str  # antiderivative | rd2d | file
    n: int = 240
    seed: int = 0
    grid: int = 0  # 0: the generator's own default
    modes: int = 5
    branch_grid: int = datamod.RDParams.branch_grid
    dt: float | None = datamod.RDParams.dt
    nu: float = datamod.RDParams.nu
    t_final: float = datamod.RDParams.t_final
    path: str = ""

    def __post_init__(self):
        if self.generator not in GENERATOR_KEYS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        own = ("generator", *GENERATOR_KEYS[self.generator])
        if foreign := _foreign_field(self, own):
            raise ConfigError(f"[data] {foreign} is not a key of generator={self.generator} "
                              f"(it takes {', '.join(own[1:])})")
        if self.generator == "file" and not self.path:
            raise ConfigError("[data] path is required for generator=file")
        for key, low in (("n", 1), ("modes", 1), ("branch_grid", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"[data] {key} must be >= {low}")


@dataclass(frozen=True)
class EvalSpec:
    test_count: int = 40
    split_seed: int = 0

    def __post_init__(self):
        for key in ("test_count", "split_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"[eval] {key} must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    data: DataSpec
    members: list[TrunkSpec]
    train: TrainConfig
    seeds: list[int] = field(default_factory=lambda: [TrainConfig.seed])
    branch_hidden: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
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
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("[train] seeds must list at least one seed, all >= 0, none twice")
        object.__setattr__(self, "train", replace(self.train, seed=self.seeds[0]))

    @property
    def text(self) -> str:
        """Canonical INI form of the fields: every section, only the keys
        of the generator and of each trunk's kind, floats via repr.
        Comments and key order of a parsed source are not kept;
        parse_config(cfg.text) == cfg."""
        sections = [
            ("data", _pairs(self.data, _DATA_SECTION[self.data.generator])),
            ("model", _pairs(self, _MODEL_KEYS)),
            *((f"trunk.{m.name}", _pairs(m, _TRUNK_SECTION[m.kind])) for m in self.members),
            ("train", _pairs(self.train, _TRAIN_KEYS) + _pairs(self, _SEEDS_KEY)),
            ("eval", _pairs(self.eval, _EVAL_KEYS)),
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
    if isinstance(value, TrunkSpec):
        return value.name
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


# Field annotation -> reader of the raw INI value.
_READERS = {
    str: str.strip, int: int, float: _float, float | None: _float,
    bool: lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()],
    tuple[int, ...]: _ints, tuple[float, ...]: _floats,
    tuple[int, ...] | None: lambda raw: _ints(raw) or None,
    list[int]: lambda raw: list(_ints(raw)),
    list[TrunkSpec]: lambda raw: raw.replace(",", " ").split(),  # member names
}
_KEY = {"batch_size": "batch"}  # the one field whose key is not its name


def _keys(cls, *names) -> dict:
    """INI key -> (field, reader) for the fields ``names`` of ``cls``, or
    all of them, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {_KEY.get(f.name, f.name): (f, _READERS[hints[f.name]])
            for f in fields(cls) if not names or f.name in names}


_DATA_KEYS = _keys(DataSpec)
_DATA_SECTION = {generator: _keys(DataSpec, "generator", *keys)
                 for generator, keys in GENERATOR_KEYS.items()}
_MODEL_KEYS = _keys(RunConfig, "members", "branch_hidden", "activation")
_TRUNK_SECTION = {kind: _keys(TrunkSpec, "kind", "p", *keys)
                  for kind, keys in _TRUNK_KEYS.items()}
# TrainConfig's seed is no key: RunConfig sets it to seeds[0]
_TRAIN_KEYS = {key: entry for key, entry in _keys(TrainConfig).items() if key != "seed"}
_SEEDS_KEY = _keys(RunConfig, "seeds")
_EVAL_KEYS = _keys(EvalSpec)


def _pairs(spec, keys) -> list:
    return [(key, getattr(spec, f.name)) for key, (f, _) in keys.items()]


def _read(section, keys) -> dict:
    """Field name -> value of each of ``keys``: read from ``section`` as its
    field's annotation says, or else the field's default. Unknown keys,
    unreadable values and absent keys without a default are errors that
    name the key."""
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section.name}]: {', '.join(sorted(unknown))}")
    out = {}
    for key, (f, reader) in keys.items():
        if key in section:
            try:
                out[f.name] = reader(section[key])
            except (ValueError, KeyError):
                raise ConfigError(f"[{section.name}] {key}: cannot read "
                                  f"{section[key].strip()!r}") from None
        elif f.default is not MISSING:
            out[f.name] = f.default
        elif f.default_factory is not MISSING:
            out[f.name] = f.default_factory()
        else:
            raise ConfigError(f"[{section.name}] {key} is required")
    return out


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {' '.join(str(exc).split())}") from None

    known = {"data", "model", "train", "eval"}
    for sec in parser.sections():
        if sec not in known and not sec.startswith("trunk."):
            raise ConfigError(f"unknown section [{sec}]")
    for sec in ("data", "model", "train"):
        if sec not in parser:
            raise ConfigError(f"missing required section [{sec}]")

    data = DataSpec(**_read(parser["data"], _DATA_KEYS))
    model = _read(parser["model"], _MODEL_KEYS)
    names = model.pop("members")
    members = []
    for name in names:
        sec = f"trunk.{name}"
        if sec not in parser:
            raise ConfigError(f"member {name!r} has no [{sec}] section")
        members.append(_parse_trunk(name, parser[sec]))
    declared = {f"trunk.{n}" for n in names}
    for sec in parser.sections():
        if sec.startswith("trunk.") and sec not in declared:
            raise ConfigError(f"section [{sec}] is not listed in [model] members")

    train = _read(parser["train"], {**_TRAIN_KEYS, **_SEEDS_KEY})
    seeds = train.pop("seeds")
    ev = _read(parser["eval"], _EVAL_KEYS) if "eval" in parser else {}
    return RunConfig(data=data, members=members, train=TrainConfig(**train), seeds=seeds,
                     eval=EvalSpec(**ev), **model)


def _parse_trunk(name: str, section) -> TrunkSpec:
    kind = section.get("kind", "").strip()
    if kind not in _TRUNK_KEYS:
        raise ConfigError(f"trunk {name!r}: unknown kind {kind!r}")
    return TrunkSpec(name=name, **_read(section, _TRUNK_SECTION[kind]))


def data_generator(spec: DataSpec):
    """The call that makes ``spec``'s dataset, after the generator's own
    checks of its arguments (RDParams, the antiderivative grid floor), so
    a [data] section that generation refuses is refused without
    generating. parse_config does not run them: a stored config loads
    with whatever values it was trained with."""
    if spec.generator == "antiderivative":
        grid = {"grid": datamod.antiderivative_grid(spec.grid)} if spec.grid else {}
        return functools.partial(datamod.gen_antiderivative, spec.n, n_modes=spec.modes,
                                 seed=spec.seed, **grid)
    if spec.generator == "rd2d":
        params = datamod.RDParams(nu=spec.nu, t_final=spec.t_final, dt=spec.dt,
                                  branch_grid=spec.branch_grid,
                                  **({"n": spec.grid} if spec.grid else {}))
        return functools.partial(datamod.gen_reaction_diffusion_2d, params, spec.n,
                                 seed=spec.seed)
    return functools.partial(datamod.read_dataset, spec.path)


def generate_dataset(spec: DataSpec) -> datamod.OperatorDataset:
    return data_generator(spec)()


def split_indices(n: int, test_count: int, split_seed: int):
    """Deterministic shuffle split into (train, test) index arrays."""
    if test_count < 0 or test_count >= n:
        raise ConfigError(f"test_count={test_count} must be in [0, {n})")
    order = np.random.default_rng(split_seed).permutation(n)
    return np.sort(order[:n - test_count]), np.sort(order[n - test_count:])


def build_patchset(spec: TrunkSpec) -> PatchSet:
    axes = len(spec.grid)
    if not axes or len(spec.bbox) != 2 * axes:
        raise ValueError(f"bbox needs lo/hi per grid axis "
                         f"(got {len(spec.bbox)} numbers for {axes} axes)")
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
    return PatchSet(centers, np.full(len(centers), rho), delta=spec.delta)


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
