import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest

import odnet.data

from odnet.checkpoint import load_checkpoint, read_checkpoint_raw, save_checkpoint
from odnet.data import (gen_antiderivative, RDParams, gen_reaction_diffusion_2d, stored_crc,
                        write_dataset)
from odnet.errors import ConfigError, CoverageError, DataError
from odnet.partition import uniform_radius
from odnet.runconfig import (TrunkSpec, build_model, build_patchset, generate_dataset,
                             parse_config, split_indices)
from odnet.training import train
from test_format_fuzz import CFG as FUZZ_CFG
from odnet.trunks import PODTrunk, PoUTrunk, VanillaTrunk

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOOD = """
[data]
generator = antiderivative
n = 24
seed = 3
grid = 16
modes = 4

[model]
members = v1 pod1
branch_hidden = 8 8
activation = tanh

[trunk.v1]
kind = vanilla
p = 4
hidden = 8 8

[trunk.pod1]
kind = pod
p = 3
modified = true

[train]
epochs = 10
optimizer = adamw
lr0 = 1e-3
seeds = 0 1

[eval]
test_count = 6
split_seed = 2
"""

RD_POU = """
[data]
generator = rd2d
n = 10
seed = 1
grid = 8
branch_grid = 4

[model]
members = pu1
branch_hidden = 8
activation = tanh

[trunk.pu1]
kind = pou
p = 4
hidden = 8
bbox = 0 2 0 2
grid = 3 2
delta = 0.1

[train]
epochs = 5
optimizer = adam
lr0 = 1e-3
seeds = 0

[eval]
test_count = 2
split_seed = 0
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.data.generator == "antiderivative"
    assert cfg.data.n == 24
    assert [m.kind for m in cfg.members] == ["vanilla", "pod"]
    assert cfg.members[1].modified is True
    assert cfg.branch_hidden == (8, 8)
    assert cfg.train.optimizer == "adamw"
    assert cfg.seeds == [0, 1]
    assert cfg.eval.test_count == 6


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(GOOD.replace("seed = 3", "seed = 3\nturbo = yes"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(GOOD + "\n[extras]\nfoo = 1\n")


def test_unlisted_trunk_section_rejected():
    extra = GOOD + "\n[trunk.ghost]\nkind = vanilla\np = 2\nhidden = 4\n"
    with pytest.raises(ConfigError, match="not listed"):
        parse_config(extra)


def test_missing_member_section_rejected():
    with pytest.raises(ConfigError, match="has no"):
        parse_config(GOOD.replace("members = v1 pod1", "members = v1 pod1 nope"))


def test_kind_specific_keys_enforced():
    bad = GOOD.replace("kind = pod\np = 3", "kind = pod\np = 3\nhidden = 4")
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[trunk\.pod1\]: hidden"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="unknown generator"):
        parse_config(GOOD.replace("generator = antiderivative", "generator = magic"))


def test_pou_bbox_must_match_grid():
    bad = RD_POU.replace("bbox = 0 2 0 2", "bbox = 0 2")
    with pytest.raises(ConfigError, match="bbox"):
        parse_config(bad)


@pytest.mark.parametrize("geometry,message", [
    ({"bbox": (0.0, 5e-324), "grid": (3,)}, "spacing H must be positive"),
    ({"bbox": (0.0, 5e-324), "grid": (1,)}, "patch radius must be positive"),
    ({"bbox": (0.0, 1.0), "grid": (2,), "select": ()}, "needs at least one patch"),
])
def test_a_pou_trunk_whose_patch_set_cannot_be_built_is_rejected(geometry, message):
    with pytest.raises(ConfigError, match=f"^trunk 'pu': .*{message}"):
        TrunkSpec("pu", "pou", 4, delta=0.0, **geometry)


def test_a_one_node_pou_grid_takes_the_box_side_as_its_spacing():
    ps = build_patchset(TrunkSpec("pu", "pou", 4, bbox=(0.0, 2.0, 1.0, 4.0), grid=(1, 1)))
    np.testing.assert_array_equal(ps.centers, [[0.0, 1.0]])
    np.testing.assert_array_equal(ps.radii, [uniform_radius(0.1, 3.0, 2)])


def test_split_disjoint_and_deterministic():
    train_idx, test_idx = split_indices(20, 5, 7)
    again = split_indices(20, 5, 7)
    assert np.array_equal(train_idx, again[0]) and np.array_equal(test_idx, again[1])
    assert len(train_idx) == 15 and len(test_idx) == 5
    assert set(train_idx) | set(test_idx) == set(range(20))
    assert set(train_idx) & set(test_idx) == set()
    other = split_indices(20, 5, 8)
    assert not np.array_equal(test_idx, other[1])


def test_build_model_members_and_bias():
    cfg = parse_config(GOOD)
    ds = gen_antiderivative(cfg.data.n, cfg.data.modes, cfg.data.grid, cfg.data.seed)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    assert isinstance(model.members[0], VanillaTrunk)
    assert isinstance(model.members[1], PODTrunk)
    assert model.total_p == 7
    assert model.bias is not None
    # same seed rebuild is bit-identical
    again = build_model(cfg, ds, train_idx, seed=0)
    assert model.parameter_hash() == again.parameter_hash()
    assert build_model(cfg, ds, train_idx, seed=1).parameter_hash() != model.parameter_hash()


POD_ONLY = """
[data]
generator = antiderivative
n = 24
seed = 3
grid = 16
modes = 4

[model]
members = pod1
branch_hidden = 8 8
activation = tanh

[trunk.pod1]
kind = pod
p = 3
modified = false

[train]
epochs = 10
optimizer = adamw
lr0 = 1e-3
seeds = 0

[eval]
test_count = 6
split_seed = 2
"""


def test_build_standalone_standard_pod_has_no_bias():
    cfg = parse_config(POD_ONLY)
    ds = gen_antiderivative(cfg.data.n, cfg.data.modes, cfg.data.grid, cfg.data.seed)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    assert model.bias is None
    assert model.parameters() == model.branch.parameters()


def test_build_pou_model_coverage_enforced():
    cfg = parse_config(RD_POU)
    ds = gen_reaction_diffusion_2d(
        RDParams(n=cfg.data.grid, branch_grid=cfg.data.branch_grid), cfg.data.n,
        seed=cfg.data.seed,
    )
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    assert isinstance(model.members[0], PoUTrunk)
    assert len(model.members[0].patchset) == 6
    # shrink the box so patches cannot cover the domain
    bad = parse_config(RD_POU.replace("bbox = 0 2 0 2", "bbox = 0 0.5 0 0.5"))
    with pytest.raises(CoverageError):
        build_model(bad, ds, train_idx, seed=0)


def test_bundled_configs_build_the_model_zoo():
    expected = {
        "rd2d-vanilla.ini": ["vanilla"],
        "rd2d-pod.ini": ["pod"],
        "rd2d-modified-pod.ini": ["pod"],
        "rd2d-vanilla-pod.ini": ["vanilla", "pod"],
        "rd2d-vanilla-pou.ini": ["vanilla", "pou"],
        "rd2d-pod-pou.ini": ["pod", "pou"],
        "rd2d-vanilla-pod-pou.ini": ["vanilla", "pod", "pou"],
        "rd2d-p-plus-1-vanilla.ini": ["vanilla"] * 7,
    }
    ds = gen_reaction_diffusion_2d(RDParams(n=8, branch_grid=4), 16, seed=0)
    train_idx, _ = split_indices(16, 4, 0)
    for name, kinds in expected.items():
        cfg = parse_config((CONFIG_DIR / name).read_text())
        assert [m.kind for m in cfg.members] == kinds, name
        model = build_model(cfg, ds, train_idx, seed=0)
        assert model.total_p == sum(m.p for m in cfg.members)
        # standalone standard POD is the only bias-free model
        assert (model.bias is None) == (name == "rd2d-pod.ini")
    # the (P+1)-vanilla control carries as many trunks as POD-PoU's P+1
    pp1 = parse_config((CONFIG_DIR / "rd2d-p-plus-1-vanilla.ini").read_text())
    podpou = parse_config((CONFIG_DIR / "rd2d-pod-pou.ini").read_text())
    pou_spec = next(m for m in podpou.members if m.kind == "pou")
    n_patches = int(np.prod(pou_spec.grid))
    assert len(pp1.members) == n_patches + 1


def test_bundled_configs_text_round_trip():
    paths = sorted(CONFIG_DIR.glob("*.ini"))
    assert len(paths) == 9
    for path in paths:
        cfg = parse_config(path.read_text())
        assert parse_config(cfg.text) == cfg, path.name
        assert parse_config(cfg.text).text == cfg.text, path.name


def test_checkpoint_roundtrip_bit_exact_predictions(tmp_path):
    cfg = parse_config(GOOD)
    ds = gen_antiderivative(cfg.data.n, cfg.data.modes, cfg.data.grid, cfg.data.seed)
    train_idx, test_idx = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    before = model.predict(ds.U[test_idx], ds.Y).data
    path = tmp_path / "model.odm"
    # stored text need not be canonical: comments and omitted defaults load
    handwritten = "# written by hand, defaults left out\n" + GOOD
    save_checkpoint(model, handwritten, path, seed=0)
    loaded, text, attrs = load_checkpoint(path, ds)
    assert text == handwritten
    assert attrs["seed"] == "0"
    after = loaded.predict(ds.U[test_idx], ds.Y).data
    assert before.tobytes() == after.tobytes()


def test_checkpoint_roundtrip_pou(tmp_path):
    cfg = parse_config(RD_POU)
    ds = gen_reaction_diffusion_2d(
        RDParams(n=cfg.data.grid, branch_grid=cfg.data.branch_grid), cfg.data.n,
        seed=cfg.data.seed,
    )
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=3)
    before = model.predict(ds.U, ds.Y).data
    path = tmp_path / "pou.odm"
    save_checkpoint(model, RD_POU, path, seed=3)
    loaded, _, _ = load_checkpoint(path, ds)
    member = loaded.members[0]
    assert isinstance(member, PoUTrunk)
    assert member.patchset.delta == 0.1
    after = loaded.predict(ds.U, ds.Y).data
    assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_bundled_config_checkpoint_round_trip(name, tmp_path):
    # save, load, save again: the same predictions, parameters and bytes
    cfg = parse_config((CONFIG_DIR / name).read_text())
    if cfg.data.generator == "rd2d":
        ds = gen_reaction_diffusion_2d(RDParams(n=8, branch_grid=4), 16, seed=0)
    else:
        ds = generate_dataset(cfg.data)
    train_idx, _ = split_indices(ds.n_samples, ds.n_samples // 4, 0)
    model = build_model(cfg, ds, train_idx, seed=0)
    # one epoch moves the trainable values, the bias too, off their start
    train(model, ds.U[train_idx], ds.scalar_targets()[train_idx], ds.Y,
          dataclasses.replace(cfg.train, epochs=1))
    first, second = tmp_path / "first.odm", tmp_path / "second.odm"
    save_checkpoint(model, cfg.text, first, seed=0)
    loaded, text, _ = load_checkpoint(first, ds)
    save_checkpoint(loaded, text, second, seed=0)
    assert loaded.parameter_hash() == model.parameter_hash()
    assert loaded.predict(ds.U, ds.Y).data.tobytes() == model.predict(ds.U, ds.Y).data.tobytes()
    assert second.read_bytes() == first.read_bytes()


def test_loading_derives_no_seed_streams(tmp_path, monkeypatch):
    # stored networks need no initialization seeds, so a load spawns none
    cfg = parse_config((CONFIG_DIR / "rd2d-vanilla-pod-pou.ini").read_text())
    ds = gen_reaction_diffusion_2d(RDParams(n=8, branch_grid=4), 16, seed=0)
    model = build_model(cfg, ds, np.arange(12), seed=4)
    path = tmp_path / "model.odm"
    save_checkpoint(model, cfg.text, path, seed=4)

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("load_checkpoint derived a seed stream")

    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    loaded, _, _ = load_checkpoint(path, ds)
    assert loaded.parameter_hash() == model.parameter_hash()


def test_checkpoint_corruption_rejected(tmp_path):
    cfg = parse_config(GOOD)
    ds = gen_antiderivative(cfg.data.n, cfg.data.modes, cfg.data.grid, cfg.data.seed)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    path = tmp_path / "model.odm"
    save_checkpoint(model, GOOD, path, seed=0)
    blob = bytearray(path.read_bytes())
    blob[200] ^= 0x01
    bad = tmp_path / "bad.odm"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="CRC32"):
        load_checkpoint(bad, ds)


def test_checkpoint_pod_requires_matching_dataset(tmp_path):
    cfg = parse_config(GOOD)
    ds = gen_antiderivative(cfg.data.n, cfg.data.modes, cfg.data.grid, cfg.data.seed)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    path = tmp_path / "model.odm"
    save_checkpoint(model, GOOD, path, seed=0)
    with pytest.raises(DataError, match="dataset is required"):
        load_checkpoint(path, None)
    other = gen_antiderivative(cfg.data.n, cfg.data.modes, 32, cfg.data.seed)
    with pytest.raises(DataError, match="reference hash"):
        load_checkpoint(path, other)


def test_checkpoint_raw_readback(tmp_path):
    cfg = parse_config(GOOD)
    ds = gen_antiderivative(cfg.data.n, cfg.data.modes, cfg.data.grid, cfg.data.seed)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model = build_model(cfg, ds, train_idx, seed=0)
    path = tmp_path / "model.odm"
    save_checkpoint(model, GOOD, path, seed=5)
    text, attrs, arrays = read_checkpoint_raw(path)
    assert attrs["n_members"] == "2"
    assert attrs["member0.kind"] == "vanilla"
    assert attrs["member1.kind"] == "pod"
    assert "branch.layer0.weight" in arrays
    assert "bias" in arrays and arrays["bias"].shape == ()


def test_writers_golden_bytes(tmp_path):
    # the files both writers make from the format fuzz fixture, pinned by
    # the CRC32 they store: a file ending in its own CRC32 always hashes to
    # the same residue, so the CRC of the whole file would pin nothing
    cfg = parse_config(FUZZ_CFG)
    ds = generate_dataset(cfg.data)
    odn, odm = tmp_path / "d.odn", tmp_path / "m.odm"
    write_dataset(ds, odn)
    save_checkpoint(build_model(cfg, ds, np.arange(4), seed=0), cfg.text, odm, seed=0)
    assert (odn.stat().st_size, f"{stored_crc(odn):08x}") == (1009, "073b3b94")
    assert (odm.stat().st_size, f"{stored_crc(odm):08x}") == (1631, "39d3815f")
    # with the text builds before the per-generator key table stored, which
    # also held rd2d's keys at their defaults, the file is the one they wrote
    older = cfg.text.replace("modes = 2\n", "modes = 2\nbranch_grid = 8\nnu = 0.1\nt_final = 0.5\n")
    save_checkpoint(build_model(cfg, ds, np.arange(4), seed=0), older, odm, seed=0)
    assert (odm.stat().st_size, f"{stored_crc(odm):08x}") == (1670, "87f31078")
    assert load_checkpoint(str(odm), ds)[1] == older


def test_a_checkpoint_save_that_fails_midway_keeps_the_old_file(tmp_path, monkeypatch):
    # the blob is written, then the CRC32 trailer fails: the target is
    # replaced only once a whole file exists
    cfg = parse_config(FUZZ_CFG)
    ds = generate_dataset(cfg.data)
    odm = tmp_path / "m.odm"
    save_checkpoint(build_model(cfg, ds, np.arange(4), seed=0), cfg.text, odm, seed=0)
    old = odm.read_bytes()

    def crc32(blob):
        raise OSError("no space left on device")

    monkeypatch.setattr(odnet.data, "zlib", types.SimpleNamespace(crc32=crc32))
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(build_model(cfg, ds, np.arange(4), seed=1), cfg.text, odm, seed=1)
    assert odm.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.odm"]
