"""The canonical config text parses back to the same config, a parsed and a
built config share their defaults, and the bundled configs' text is pinned."""

import dataclasses
import math
import re
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odnet.errors import ConfigError
from odnet.networks import ACTIVATIONS
from odnet.runconfig import DataSpec, EvalSpec, RunConfig, TrunkSpec, parse_config
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
        bbox += (lo, draw(st.floats(min_value=lo, max_value=2e6, exclude_min=True)))
    nodes = math.prod(grid)
    select = draw(st.none() | st.lists(st.integers(0, nodes - 1), min_size=1, max_size=8).map(tuple))
    return TrunkSpec(name, kind, p, hidden=draw(widths), bbox=bbox, grid=grid,
                     select=select, delta=draw(nonneg))


@st.composite
def data_specs(draw):
    generator = draw(st.sampled_from(["antiderivative", "rd2d", "file"]))
    path = ""
    if generator == "file":
        path = draw(st.from_regex(r"[A-Za-z0-9_./-]{0,30}\.odn", fullmatch=True))
    return DataSpec(
        generator=generator, n=draw(st.integers(1, 10**6)), seed=draw(seeds),
        grid=draw(st.integers()), modes=draw(st.integers(min_value=1)),
        branch_grid=draw(st.integers(1, 10**4)), dt=draw(st.none() | reals),
        nu=draw(reals), t_final=draw(reals), path=path,
    )


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
        eval=EvalSpec(draw(st.integers()), draw(st.integers())),
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
    "antiderivative-vanilla": "25baabcc", "rd2d-modified-pod": "cfbbc5bf",
    "rd2d-p-plus-1-vanilla": "7d9fb52d", "rd2d-pod-pou": "a2b398ba", "rd2d-pod": "ea51a3e0",
    "rd2d-vanilla-pod-pou": "c14075ad", "rd2d-vanilla-pod": "83d309ee",
    "rd2d-vanilla-pou": "40a57042", "rd2d-vanilla": "aa37adbc",
}


@pytest.mark.parametrize("name", sorted(CANONICAL_TEXT_CRC32))
def test_bundled_config_canonical_text_is_pinned(name):
    cfg = parse_config((CONFIG_DIR / f"{name}.ini").read_text())
    assert f"{zlib.crc32(cfg.text.encode()):08x}" == CANONICAL_TEXT_CRC32[name]


def test_every_bundled_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.ini")) == sorted(CANONICAL_TEXT_CRC32)


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


def test_a_training_seed_other_than_the_first_seed_is_rejected():
    cfg = parse_config(MINIMAL + "[trunk.x]\nkind = pod\np = 8\n")
    assert cfg.train.seed == cfg.seeds[0] == 0
    with pytest.raises(ConfigError, match=r"seeds\[0\] 0 != train.seed 7"):
        dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=7))
    moved = dataclasses.replace(cfg, seeds=[7, 1], train=dataclasses.replace(cfg.train, seed=7))
    assert parse_config(moved.text) == moved


@pytest.mark.parametrize("section,line", [
    ("data", "generator = rd2d"), ("model", "members = x"), ("trunk.x", "p = 8"),
])
def test_a_key_without_a_default_is_required(section, line):
    text = (MINIMAL + "[trunk.x]\nkind = pod\np = 8\n").replace(line + "\n", "")
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"^\[{re.escape(section)}\] {key} is required$"):
        parse_config(text)
