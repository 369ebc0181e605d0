"""The canonical config text parses back to the same config, a parsed and a
built config share their defaults, the bundled configs' text is pinned,
and each data generator reads every [data] key it declares and no other."""

import dataclasses
import math
import re
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odnet.data import gen_antiderivative, write_dataset
from odnet.errors import ConfigError
from odnet.networks import ACTIVATIONS
from odnet.runconfig import (GENERATOR_KEYS, DataSpec, EvalSpec, RunConfig, TrunkSpec,
                             generate_dataset, parse_config)
from odnet.training import OPTIMIZERS, TrainConfig

names = st.from_regex(r"[A-Za-z][A-Za-z0-9_.-]{0,7}", fullmatch=True)
widths = st.lists(st.integers(1, 512), min_size=1, max_size=4).map(tuple)
reals = st.floats(allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, allow_infinity=False)
seeds = st.integers(0, 2**63)


@st.composite
def trunk_specs(draw, name):
    kind = draw(st.sampled_from(["vanilla", "pod", "pou"]))
    p = draw(st.integers(1, 256))
    if kind == "vanilla":
        return TrunkSpec(name, kind, p, hidden=draw(widths))
    if kind == "pod":
        return TrunkSpec(name, kind, p, modified=draw(st.booleans()))
    grid = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    bbox = ()
    for _ in grid:
        lo = draw(st.floats(-1e6, 1e6))
        # a span every build accepts; narrower boxes are refused (test_config_checkpoint)
        bbox += (lo, draw(st.floats(min_value=lo + 1e-6 * max(1.0, abs(lo)), max_value=2e6)))
    nodes = math.prod(grid)
    select = draw(st.none() | st.lists(st.integers(0, nodes - 1), min_size=1, max_size=8).map(tuple))
    return TrunkSpec(name, kind, p, hidden=draw(widths), bbox=bbox, grid=grid,
                     select=select, delta=draw(nonneg))


DATA_VALUES = {
    "n": st.integers(1, 10**6), "seed": seeds, "grid": st.integers(),
    "modes": st.integers(min_value=1), "branch_grid": st.integers(1, 10**4),
    "dt": st.none() | reals, "nu": reals, "t_final": reals,
    "path": st.from_regex(r"[A-Za-z0-9_./-]{0,30}\.odn", fullmatch=True),
}


@st.composite
def data_specs(draw):
    # only the generator's own keys, as trunk_specs draws per kind
    generator = draw(st.sampled_from(sorted(GENERATOR_KEYS)))
    return DataSpec(generator, **{key: draw(DATA_VALUES[key]) for key in GENERATOR_KEYS[generator]})


@st.composite
def run_configs(draw):
    member_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    run_seeds = draw(st.lists(seeds, min_size=1, max_size=4, unique=True))
    train = TrainConfig(
        epochs=draw(st.integers(1, 10**7)), optimizer=draw(st.sampled_from(OPTIMIZERS)),
        lr0=draw(nonneg), gamma=draw(nonneg), decay_step=draw(st.integers(min_value=0)),
        weight_decay=draw(nonneg), batch_size=draw(st.integers(min_value=0)), seed=run_seeds[0],
    )
    return RunConfig(
        data=draw(data_specs()),
        members=[draw(trunk_specs(name)) for name in member_names],
        branch_hidden=draw(widths),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        train=train,
        seeds=run_seeds,
        eval=EvalSpec(draw(st.integers(min_value=0)), draw(st.integers(min_value=0))),
    )


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_text_round_trips(cfg):
    text = cfg.text
    again = parse_config(text)
    assert again == cfg
    assert again.text == text


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# crc32 of the canonical text of each bundled config; ODM1 checkpoints and
# run manifests hold this text, so a change here changes their bytes
CANONICAL_TEXT_CRC32 = {
    "antiderivative-vanilla": "cafb2694", "rd2d-modified-pod": "647b7246",
    "rd2d-p-plus-1-vanilla": "bde74f21", "rd2d-pod-pou": "97f53f8a", "rd2d-pod": "2e9b29ef",
    "rd2d-vanilla-pod-pou": "2fad3bb9", "rd2d-vanilla-pod": "827751c5",
    "rd2d-vanilla-pou": "1a375b6c", "rd2d-vanilla": "20c21f87",
}


@pytest.mark.parametrize("name", sorted(CANONICAL_TEXT_CRC32))
def test_bundled_config_canonical_text_is_pinned(name):
    cfg = parse_config((CONFIG_DIR / f"{name}.ini").read_text())
    assert f"{zlib.crc32(cfg.text.encode()):08x}" == CANONICAL_TEXT_CRC32[name]


def test_every_bundled_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.ini")) == sorted(CANONICAL_TEXT_CRC32)


def _older_text(cfg):
    """``cfg.text`` as builds before the per-generator key table wrote it:
    [data] also held every other generator's key at its default."""
    own = ("generator", *GENERATOR_KEYS[cfg.data.generator])
    foreign = "".join(f"{f.name} = {f.default}\n" for f in dataclasses.fields(DataSpec)
                      if f.name not in own and f.default not in (None, ""))
    return cfg.text.replace("\n[model]", foreign + "\n[model]", 1)


@pytest.mark.parametrize("name", sorted(CANONICAL_TEXT_CRC32))
def test_bundled_config_text_of_older_builds_still_parses(name):
    cfg = parse_config((CONFIG_DIR / f"{name}.ini").read_text())
    older = _older_text(cfg)
    assert older != cfg.text
    assert parse_config(older) == cfg


MINIMAL = """
[data]
generator = rd2d
[model]
members = x
[train]
"""


@pytest.mark.parametrize("kind,extra", [
    ("vanilla", {}), ("pod", {}), ("pou", {"bbox": (0.0, 1.0), "grid": (2,)}),
])
def test_parsed_and_built_configs_share_their_defaults(kind, extra):
    keys = "".join(f"{key} = {' '.join(map(str, value))}\n" for key, value in extra.items())
    cfg = parse_config(MINIMAL + f"[trunk.x]\nkind = {kind}\np = 8\n{keys}")
    spec = TrunkSpec("x", kind, 8, **extra)
    assert cfg.members == [spec]
    assert cfg == RunConfig(data=DataSpec("rd2d"), members=[spec], train=TrainConfig())


@pytest.mark.parametrize("kind,extra", [
    ("pod", {"hidden": (5,)}), ("vanilla", {"modified": False}), ("vanilla", {"delta": 0.2}),
    ("pod", {"bbox": (0.0, 1.0), "grid": (2,)}),
])
def test_a_built_trunk_with_a_field_of_another_kind_is_rejected(kind, extra):
    # its text could not hold the field, so it would not parse back to it
    with pytest.raises(ConfigError, match=f"trunk 'a': {next(iter(extra))} is not a key of "
                                          f"kind={kind}"):
        TrunkSpec("a", kind, 4, **extra)


def test_a_training_seed_other_than_the_first_seed_is_rejected():
    cfg = parse_config(MINIMAL + "[trunk.x]\nkind = pod\np = 8\n")
    assert cfg.train.seed == cfg.seeds[0] == 0
    stale = RunConfig(data=cfg.data, members=cfg.members, train=TrainConfig(seed=7), seeds=[0])
    assert stale.train.seed == 0
    moved = dataclasses.replace(cfg, seeds=[7, 1])
    assert moved.train.seed == 7 and parse_config(moved.text) == moved


@pytest.mark.parametrize("section,line", [
    ("data", "generator = rd2d"), ("model", "members = x"), ("trunk.x", "p = 8"),
])
def test_a_key_without_a_default_is_required(section, line):
    text = (MINIMAL + "[trunk.x]\nkind = pod\np = 8\n").replace(line + "\n", "")
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"^\[{re.escape(section)}\] {key} is required$"):
        parse_config(text)


# a value of each [data] key other than its default
OTHER_VALUE = {"n": "7", "seed": "3", "grid": "9", "modes": "11", "branch_grid": "3",
               "dt": "0.001", "nu": "5.0", "t_final": "9.0", "path": "d.odn"}


@pytest.mark.parametrize("generator,key", [
    (generator, key) for generator, keys in GENERATOR_KEYS.items()
    for key in OTHER_VALUE if key not in keys
])
def test_a_key_of_another_generator_is_rejected_unless_it_restates_its_default(generator, key):
    data = f"generator = {generator}\n" + ("path = x.odn\n" if generator == "file" else "")
    text = MINIMAL.replace("generator = rd2d\n", data) + "[trunk.x]\nkind = pod\np = 8\n"
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match=rf"^\[data\] {key} is not a key of generator={generator} "):
        parse_config(text.replace(data, data + f"{key} = {OTHER_VALUE[key]}\n"))
    default = DataSpec.__dataclass_fields__[key].default
    if default not in (None, ""):
        assert parse_config(text.replace(data, data + f"{key} = {default}\n")) == cfg


# Tiny generator arguments: several rd2d steps (the diffusivity acts only
# once the reaction's switch has bent the constant initial field), and no
# dt that equals the step dt = none picks, so no two values mean the same.
TINY_VALUES = {
    "antiderivative": {"n": st.integers(1, 3), "seed": st.integers(0, 9),
                       "grid": st.integers(8, 11), "modes": st.integers(1, 4)},
    "rd2d": {"n": st.integers(1, 3), "seed": st.integers(0, 9), "grid": st.integers(4, 6),
             "branch_grid": st.integers(1, 3), "dt": st.sampled_from([None, 0.005, 0.01]),
             "nu": st.sampled_from([1.0, 2.0]), "t_final": st.sampled_from([0.3, 0.4])},
}


def _arrays(spec):
    ds = generate_dataset(spec)
    return [a.tobytes() for a in (ds.X, ds.Y, ds.U, ds.V)]


def test_every_data_key_is_drawn():
    fields = {f.name for f in dataclasses.fields(DataSpec)} - {"generator"}
    assert set(DATA_VALUES) == fields == {key for keys in GENERATOR_KEYS.values() for key in keys}
    assert {g: set(values) for g, values in TINY_VALUES.items()} == {
        g: set(keys) for g, keys in GENERATOR_KEYS.items() if g != "file"}


@pytest.mark.parametrize("generator,key", [
    (generator, key) for generator, values in TINY_VALUES.items() for key in values
])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_declared_data_key_changes_the_generated_data(generator, key, data):
    values = TINY_VALUES[generator]
    spec = DataSpec(generator, **{k: data.draw(v, label=k) for k, v in values.items()})
    other = data.draw(values[key].filter(lambda v: v != getattr(spec, key)), label=f"new {key}")
    # the arrays alone: the metadata text would tell any two values apart
    assert _arrays(spec) != _arrays(dataclasses.replace(spec, **{key: other}))


def test_the_file_generator_reads_its_path(tmp_path):
    assert GENERATOR_KEYS["file"] == ("path",)
    paths = [str(tmp_path / f"{seed}.odn") for seed in (0, 1)]
    for seed, path in enumerate(paths):
        write_dataset(gen_antiderivative(2, grid=8, seed=seed), path)
    first, second = (_arrays(DataSpec("file", path=path)) for path in paths)
    assert first != second
    assert first == _arrays(DataSpec("antiderivative", n=2, grid=8, seed=0))
