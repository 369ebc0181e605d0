"""Property test: the canonical config text parses back to the same config."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_seeds = draw(st.lists(seeds, min_size=1, max_size=4))
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
