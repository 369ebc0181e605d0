import concurrent.futures
import contextlib
import io
import os
import signal
import struct
import subprocess
import sys
import zlib
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odnet
from odnet.checkpoint import load_checkpoint, save_checkpoint
from odnet.cli import main
from odnet.data import (RDParams, gen_antiderivative, gen_reaction_diffusion_2d, read_dataset,
                        write_dataset)
from odnet.errors import DataError
from odnet.evaluation import evaluate_model, spatial_mse
from odnet.pod import compute_pod
from odnet.runconfig import build_model, parse_config, split_indices

ANTI_CFG = """
[data]
generator = antiderivative
n = 20
seed = 3
grid = 16
modes = 4

[model]
members = v1
branch_hidden = 8
activation = tanh

[trunk.v1]
kind = vanilla
p = 4
hidden = 8

[train]
epochs = 3
optimizer = adam
lr0 = 1e-3
seeds = 0

[eval]
test_count = 5
split_seed = 2
"""

POD_CFG = ANTI_CFG.replace(
    "members = v1", "members = v1 pod1"
).replace(
    "[train]",
    "[trunk.pod1]\nkind = pod\np = 3\nmodified = true\n\n[train]",
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

RD_CFG = """
[data]
generator = rd2d
n = 8
seed = 1
grid = 8
branch_grid = 4

[model]
members = v1
branch_hidden = 8
activation = tanh

[trunk.v1]
kind = vanilla
p = 4
hidden = 8

[train]
epochs = 2
optimizer = adamw
lr0 = 1e-3
seeds = 0

[eval]
test_count = 2
split_seed = 0
"""

POU_CFG = RD_CFG.replace("members = v1", "members = pu1").replace(
    "[trunk.v1]\nkind = vanilla",
    "[trunk.pu1]\nkind = pou\nbbox = 0 2 0 2\ngrid = 3 2\ndelta = 0.1",
)

# reads anti.odn, which test_malformed_config_value_is_config_error writes
FILE_CFG = ANTI_CFG.replace("generator = antiderivative\nn = 20\nseed = 3\ngrid = 16\nmodes = 4",
                            "generator = file\npath = anti.odn")

# (command, base config, text to edit, replacement): each edit makes a
# malformed value that must exit 2 with a one-line message, no traceback.
MALFORMED = [
    ("gen", ANTI_CFG, "n = 20", "n = abc"),
    ("gen", ANTI_CFG, "\nhidden = 8", "\nhidden = 64 x 64"),
    ("gen", ANTI_CFG, "p = 4", "p = 3.5"),
    ("gen", ANTI_CFG, "\nhidden = 8", "\nhidden = 0"),
    ("gen", ANTI_CFG, "branch_hidden = 8", "branch_hidden = 0"),
    ("gen", POU_CFG, "delta = 0.1", "delta = -1"),
    ("gen", POU_CFG, "grid = 3 2", "grid = 0 2"),
    ("gen", POU_CFG, "delta = 0.1", "delta = 0.1\nselect = 99"),
    ("train", POD_CFG, "p = 3", "p = 16"),  # 15 training snapshots
    ("gen", ANTI_CFG, "seed = 3", "seed = -1"),
    ("gen", ANTI_CFG, "seeds = 0", "seeds = -1"),
    ("gen", ANTI_CFG, "seeds = 0", "seeds = 0 0"),
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 0"),
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\nnu = -0.1"),
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\nnu = 1e308"),  # bound underflows to 0
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\nnu = 1e8"),  # 3.6e9 steps
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\ndt = 1e-12"),
    ("gen", ANTI_CFG, "lr0 = 1e-3", "lr0 = nan"),
    ("gen", ANTI_CFG, "modes = 4", "modes = 0"),
    ("gen", ANTI_CFG, "lr0 = 1e-3", "lr0 = 1e-3\nbatch = -1"),
    ("gen", ANTI_CFG, "lr0 = 1e-3", "lr0 = 1e-3\ndecay_step = -2"),
    # a key of another generator
    ("gen", ANTI_CFG, "modes = 4", "modes = 4\nnu = 5.0"),
    ("train", ANTI_CFG, "modes = 4", "modes = 4\nbranch_grid = 3"),
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\nmodes = 11"),
    ("train", RD_CFG, "branch_grid = 4", "branch_grid = 4\npath = rd.odn"),
    ("gen", FILE_CFG, "path = anti.odn", "path = anti.odn\nn = 7"),
    ("train", FILE_CFG, "path = anti.odn", "path = anti.odn\nseed = 5"),
    # what gen refuses, train refuses too, though it generates nothing
    ("train", ANTI_CFG, "grid = 16", "grid = 2"),
    ("train", RD_CFG, "branch_grid = 4", "branch_grid = 4\nnu = -0.2"),
    ("train", RD_CFG, "branch_grid = 4", "branch_grid = 4\nnu = 1e9"),
    ("train", RD_CFG, "branch_grid = 4", "branch_grid = 4\ndt = 1e-11"),
    # an [eval] value the split cannot take
    ("gen", ANTI_CFG, "split_seed = 2", "split_seed = -1"),
    ("train", ANTI_CFG, "split_seed = 2", "split_seed = -3"),
    ("gen", ANTI_CFG, "test_count = 5", "test_count = -1"),
    ("train", ANTI_CFG, "test_count = 5", "test_count = -2"),
    # every other refusal a [model], [trunk.*] or [train] value can reach
    ("gen", ANTI_CFG, "kind = vanilla", "kind = magic"),
    ("gen", ANTI_CFG, "p = 4", "p = 0"),
    ("gen", ANTI_CFG, "members = v1", "members = v1 v1"),
    ("gen", ANTI_CFG, "activation = tanh", "activation = swish"),
    ("gen", ANTI_CFG, "epochs = 3", "epochs = 0"),
    ("gen", ANTI_CFG, "optimizer = adam", "optimizer = sgd"),
    ("gen", RD_CFG, "grid = 8", "grid = 3"),
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\nt_final = 0"),
    ("gen", RD_CFG, "branch_grid = 4", "branch_grid = 4\ndt = 0"),
]


@pytest.fixture
def anti_config(tmp_path):
    path = tmp_path / "anti.ini"
    path.write_text(ANTI_CFG)
    return str(path)


@pytest.fixture
def pod_config(tmp_path):
    path = tmp_path / "pod.ini"
    path.write_text(POD_CFG)
    return str(path)


def test_gen_writes_dataset_and_manifest(anti_config, tmp_path, capsys):
    out = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", out]) == 0
    ds = read_dataset(out)
    assert ds.n_samples == 20
    assert (tmp_path / "anti.odn.manifest.txt").exists()
    assert "N=20" in capsys.readouterr().out


def _manifest_config(path):
    return parse_config(path.read_text().split("config:\n", 1)[1])


def test_gen_n_override_and_force(anti_config, tmp_path):
    out = str(tmp_path / "anti.odn")
    manifest = tmp_path / "anti.odn.manifest.txt"
    assert main(["gen", anti_config, "--out", out, "--n", "7", "--seed", "5"]) == 0
    assert read_dataset(out).n_samples == 7
    # the manifest records the overrides that ran
    assert _manifest_config(manifest).data.n == 7
    assert _manifest_config(manifest).data.seed == 5
    # refuses overwrite without --force
    assert main(["gen", anti_config, "--out", out]) == 3
    assert main(["gen", anti_config, "--out", out, "--force"]) == 0
    assert read_dataset(out).n_samples == 20
    assert _manifest_config(manifest).data.n == 20
    for bad in ("0", "-3"):
        assert main(["gen", anti_config, "--out", out, "--force", "--n", bad]) == 2
    assert read_dataset(out).n_samples == 20


@pytest.mark.parametrize(
    "command,base,old,new", MALFORMED, ids=[case[3].strip().replace("\n", "; ") for case in MALFORMED],
)
def test_malformed_config_value_is_config_error(command, base, old, new, tmp_path, capsys,
                                                monkeypatch):
    assert old in base
    monkeypatch.chdir(tmp_path)
    write_dataset(gen_antiderivative(20, 4, 16, 3), "anti.odn")  # FILE_CFG's path
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    good.write_text(base)
    bad.write_text(base.replace(old, new, 1))
    data = str(tmp_path / "data.odn")
    argv = ["gen", str(bad), "--out", data]
    if command == "train":
        assert main(["gen", str(good), "--out", data]) == 0
        argv = ["train", str(bad), data, "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert new.splitlines()[-1].split("=")[0].strip() in err  # names the edited key


@pytest.mark.parametrize("flags", [["--n", "7"], ["--seed", "0"], ["--n", "240"]])
def test_gen_n_and_seed_flags_need_a_generator_that_takes_them(flags, tmp_path, capsys):
    # a file config takes neither, not even at its default
    write_dataset(gen_antiderivative(20, 4, 16, 3), tmp_path / "anti.odn")
    cfg = tmp_path / "file.ini"
    cfg.write_text(FILE_CFG.replace("path = anti.odn", f"path = {tmp_path / 'anti.odn'}"))
    out = str(tmp_path / "copy.odn")
    assert main(["gen", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    assert main(["gen", str(cfg), "--out", out, "--force", *flags]) == 2
    key = flags[0][2:]
    assert capsys.readouterr().err == f"config error: --{key}: generator=file takes no {key}\n"


@pytest.mark.parametrize("lr0", ["nan", "inf"])
def test_non_finite_lr0_flag_exits_2(lr0, anti_config, tmp_path, capsys):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    capsys.readouterr()
    assert main(["train", anti_config, data, "--out", str(tmp_path / "run"), "--lr0", lr0]) == 2
    assert capsys.readouterr().err.startswith("config error: lr0 ")
    assert not list(tmp_path.glob("*.odm"))


def test_gen_same_seed_identical_crc(anti_config, tmp_path):
    a = tmp_path / "a.odn"
    b = tmp_path / "b.odn"
    assert main(["gen", anti_config, "--out", str(a)]) == 0
    assert main(["gen", anti_config, "--out", str(b)]) == 0
    assert zlib.crc32(a.read_bytes()) == zlib.crc32(b.read_bytes())


def test_gen_unstable_dt_is_config_error(tmp_path):
    cfg = tmp_path / "rd.ini"
    cfg.write_text(RD_CFG.replace("branch_grid = 4", "branch_grid = 4\ndt = 1.0"))
    assert main(["gen", str(cfg), "--out", str(tmp_path / "rd.odn")]) == 2
    assert not (tmp_path / "rd.odn").exists()


def test_gen_unknown_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ANTI_CFG.replace("modes = 4", "modes = 4\nwat = 1"))
    assert main(["gen", str(cfg), "--out", str(tmp_path / "x.odn")]) == 2


@pytest.mark.parametrize("text,message", [
    (ANTI_CFG.split("[train]")[0] + "[eval]" + ANTI_CFG.split("[eval]")[1],
     "missing required section [train]"),
    (ANTI_CFG.replace("members = v1", "members =").replace(
        "[trunk.v1]\nkind = vanilla\np = 4\nhidden = 8\n", ""),
     "[model] members must list at least one trunk"),
    # configparser's own message spans two lines
    (ANTI_CFG.replace("[model]", "[model"), "config syntax error: Source contains parsing "
     "errors: '<string>' [line 9]: '[model\\n'"),
], ids=["no [train]", "no members", "syntax error"])
def test_a_config_of_the_wrong_shape_exits_2_with_one_line(text, message, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["gen", str(cfg), "--out", str(tmp_path / "x.odn")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _bundled_pou(path, bbox: str, delta: str = "0.1") -> str:
    """rd2d-vanilla-pou, cut to 20 functions, with a 3 x 3 PoU grid over ``bbox``."""
    text = (CONFIG_DIR / "rd2d-vanilla-pou.ini").read_text()
    for old, new in (("n = 240", "n = 20"), ("test_count = 40", "test_count = 4"),
                     ("seeds = 0 1 2", "seeds = 0"), ("grid = 3 2", "grid = 3 3"),
                     ("bbox = 0 2 0 2", f"bbox = {bbox}"), ("delta = 0.1", f"delta = {delta}")):
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("bbox", ["0 5e-324 0 5e-324", "-1e308 1e308 -1e308 1e308",
                                  "-1e200 1e200 -1e200 1e200"])
def test_a_pou_box_no_patch_set_can_use_exits_2_at_gen_and_train(bbox, tmp_path, capsys):
    # a spacing that underflows to 0; a span past the largest float; a
    # radius whose squared distances could overflow
    data = str(tmp_path / "rd.odn")
    assert main(["gen", _bundled_pou(tmp_path / "good.ini", "0 2 0 2"), "--out", data]) == 0
    bad = _bundled_pou(tmp_path / "bad.ini", bbox)
    for argv in (["gen", bad, "--out", str(tmp_path / "x.odn")],
                 ["train", bad, data, "--out", str(tmp_path / "run"), "--epochs", "1"]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: trunk 'pu1': ") and err.count("\n") == 1
    assert not list(tmp_path.glob("x.odn*")) and not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("bbox,code,err", [
    ("0 1e-320 0 1e-320", 3, "not covered by any patch"),  # radius 4e-321: no location inside
])
def test_a_pou_box_at_the_float_limits_trains_or_exits_3(bbox, code, err, tmp_path, capsys):
    data = str(tmp_path / "rd.odn")
    config = _bundled_pou(tmp_path / "pou.ini", bbox)
    assert main(["gen", config, "--out", data]) == 0
    capsys.readouterr()
    assert main(["train", config, data, "--out", str(tmp_path / "run"), "--epochs", "1"]) == code
    stderr = capsys.readouterr().err
    assert err in stderr and stderr.count("\n") == (1 if code else 0)


@pytest.mark.parametrize("delta", ["10", "1e308"])
def test_a_pou_radius_past_the_overflow_bound_exits_2(delta, tmp_path, capsys):
    # radius 7.8e200, at which eight patches covering (0.5, 0.5) would read
    # 0; and an infinite radius, which would divide inf by inf
    data = str(tmp_path / "rd.odn")
    assert main(["gen", _bundled_pou(tmp_path / "good.ini", "0 2 0 2"), "--out", data]) == 0
    bad = _bundled_pou(tmp_path / "bad.ini", "-1e200 1e200 -1e200 1e200", delta)
    for argv in (["gen", bad, "--out", str(tmp_path / "x.odn")],
                 ["train", bad, data, "--out", str(tmp_path / "run"), "--epochs", "1"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == ("config error: trunk 'pu1': patch radius must be "
                                           "positive and at most 6.7e+153\n")


spans = st.sampled_from([0.0, 5e-324, 1e-320, 1e-308, 1e200]) | st.floats(0.0, 2e6)


@st.composite
def pou_geometries(draw) -> str:
    """The bbox, grid, delta and select lines of a PoU trunk; most of the
    drawn geometries cannot be built or cover no location. Two axes, as
    rd2d's locations have, are drawn most often, and one axis in four is
    reversed."""
    grid = [draw(st.integers(0, 4)) for _ in range(draw(st.sampled_from([2, 2, 2, 1, 3])))]
    bbox = []
    for _ in grid:
        lo, span = draw(st.just(0.0) | st.floats(-1e6, 1e6)), draw(spans)
        bbox += [lo, lo + span * draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))]
    select = draw(st.none() | st.lists(st.integers(-2, 70), min_size=1, max_size=6))
    return (f"bbox = {' '.join(map(repr, bbox))}\ngrid = {' '.join(map(str, grid))}\n"
            f"delta = {draw(st.floats(-1.0, 10.0) | st.sampled_from([1e154, 1e308]))!r}"
            + (f"\nselect = {' '.join(map(str, select))}" if select else ""))


@pytest.fixture(scope="module")
def rd_data(tmp_path_factory):
    """A directory and one tiny rd2d dataset in it: 8 functions on 8 x 8 locations."""
    root = tmp_path_factory.mktemp("rd")
    (root / "rd.ini").write_text(RD_CFG)
    assert main(["gen", str(root / "rd.ini"), "--out", str(root / "rd.odn")]) == 0
    return root


@settings(max_examples=200, deadline=None)
@given(geometry=pou_geometries())
@example(geometry="bbox = -1e308 1e308 -1e308 1e308\ngrid = 3 3\ndelta = 0.1")
@example(geometry="bbox = -1e200 1e200 -1e200 1e200\ngrid = 3 3\ndelta = 0.1")
@example(geometry="bbox = -1e200 1e200 -1e200 1e200\ngrid = 3 3\ndelta = 10.0")
@example(geometry="bbox = -1e200 1e200 -1e200 1e200\ngrid = 3 3\ndelta = 1e308")
def test_every_pou_geometry_ends_in_a_documented_exit(rd_data, geometry):
    # a run trains (0), its config is refused (2) or its patches miss a
    # location (3), with at most one stderr line; a traceback or a
    # RuntimeWarning (an error under the suite's filter) fails the test
    config = rd_data / "pou.ini"
    config.write_text(POU_CFG.replace("bbox = 0 2 0 2\ngrid = 3 2\ndelta = 0.1", geometry))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["train", str(config), str(rd_data / "rd.odn"),
                     "--out", str(rd_data / "run"), "--epochs", "1"])
    assert code in (0, 2, 3) and stderr.getvalue().count("\n") <= 1, stderr.getvalue()


def test_malformed_int_list_flag_exits_2(anti_config, tmp_path, capsys):
    for argv in (
        ["train", anti_config, "d.odn", "--out", str(tmp_path / "run"), "--seeds", "1,a"],
        ["export-basis", "m.odm", "d.odn", "--columns", "x", "--out", str(tmp_path / "b.csv")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err


def test_missing_dataset_is_data_error(anti_config, tmp_path):
    assert main([
        "train", anti_config, str(tmp_path / "missing.odn"),
        "--out", str(tmp_path / "run"),
    ]) == 3


def test_train_epochs_one_checkpoint_predicts(pod_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", pod_config, "--out", data]) == 0
    assert main([
        "train", pod_config, data, "--out", str(tmp_path / "run"), "--epochs", "1",
    ]) == 0
    ckpt = tmp_path / "run-seed0.odm"
    assert ckpt.exists()
    assert (tmp_path / "run-seed0.loss.csv").exists()
    assert (tmp_path / "run-seed0.manifest.txt").exists()
    ds = read_dataset(data)
    model, text, attrs = load_checkpoint(str(ckpt), ds)
    preds = model.predict(ds.U[:2], ds.Y).data
    assert preds.shape == (2, ds.n_y)
    assert np.all(np.isfinite(preds))
    # the stored config is canonical and reflects the --epochs override
    assert parse_config(text).train.epochs == 1
    assert parse_config(text).text == text


def test_train_two_seeds_differ(anti_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    assert main([
        "train", anti_config, data, "--out", str(tmp_path / "run"),
        "--seeds", "1,2", "--epochs", "2",
    ]) == 0
    ds = read_dataset(data)
    m1, _, _ = load_checkpoint(str(tmp_path / "run-seed1.odm"), ds)
    m2, text, _ = load_checkpoint(str(tmp_path / "run-seed2.odm"), ds)
    assert m1.parameter_hash() != m2.parameter_hash()
    # each checkpoint stores the config of its own run
    stored = parse_config(text)
    assert stored.seeds == [2] and stored.train.seed == 2 and stored.train.epochs == 2


def _manifest_fields(path):
    head = path.read_text().split("config:\n", 1)[0]
    return dict(line.split("=", 1) for line in head.splitlines())


def test_train_manifest_names_its_dataset(tmp_path):
    cfg = tmp_path / "rd.ini"
    cfg.write_text(RD_CFG)
    data = tmp_path / "rd.odn"
    assert main(["gen", str(cfg), "--out", str(data), "--n", "12", "--seed", "4"]) == 0
    assert main(["train", str(cfg), str(data), "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
    assert main(["eval", str(tmp_path / "run-seed0.odm"), str(data)]) == 0
    assert main(["export-basis", str(tmp_path / "run-seed0.odm"), str(data),
                 "--columns", "0", "--out", str(tmp_path / "basis.csv")]) == 0
    (crc,) = struct.unpack("<I", data.read_bytes()[-4:])
    for manifest in (tmp_path / "run-seed0.manifest.txt",
                     tmp_path / "run-seed0.odm.eval-manifest.txt",
                     tmp_path / "basis.csv.manifest.txt"):
        fields = _manifest_fields(manifest)
        assert fields["data_file"] == str(data)
        assert fields["data_crc32"] == f"{crc:08x}"
        assert fields["data_samples"] == "12"
        assert fields["data_generator"] == "rd2d"
        assert fields["data_seed"] == "4"
    # the config text is the one the run parsed, not the dataset's
    assert _manifest_config(tmp_path / "run-seed0.manifest.txt").data.n == 8


def test_manifests_record_the_blas_thread_variables(anti_config, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    data = tmp_path / "anti.odn"
    assert main(["gen", anti_config, "--out", str(data)]) == 0
    assert main(["train", anti_config, str(data), "--out", str(tmp_path / "run"),
                 "--epochs", "1"]) == 0
    for manifest in (tmp_path / "anti.odn.manifest.txt", tmp_path / "run-seed0.manifest.txt"):
        fields = _manifest_fields(manifest)
        assert fields["env.OPENBLAS_NUM_THREADS"] == "1"
        assert fields["env.OMP_NUM_THREADS"] == "3"
        assert fields["env.MKL_NUM_THREADS"] == "unset"


def test_train_parallel_jobs(anti_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    assert main([
        "train", anti_config, data, "--out", str(tmp_path / "par"),
        "--seeds", "3,4", "--epochs", "2", "--jobs", "2",
    ]) == 0
    ds = read_dataset(data)
    for seed in (3, 4):
        model, _, _ = load_checkpoint(str(tmp_path / f"par-seed{seed}.odm"), ds)
        assert np.all(np.isfinite(model.predict(ds.U[:1], ds.Y).data))
    # parallel result matches a serial run of the same seed
    assert main([
        "train", anti_config, data, "--out", str(tmp_path / "ser"),
        "--seeds", "3", "--epochs", "2",
    ]) == 0
    m_par, _, _ = load_checkpoint(str(tmp_path / "par-seed3.odm"), ds)
    m_ser, _, _ = load_checkpoint(str(tmp_path / "ser-seed3.odm"), ds)
    assert m_par.parameter_hash() == m_ser.parameter_hash()


def test_train_jobs_start_at_most_one_worker_per_seed(anti_config, tmp_path, monkeypatch):
    # a fork pool starts all max_workers on its first submit; this stand-in
    # records what was asked for and runs each call inline, starting nothing
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    assert main([
        "train", anti_config, data, "--out", str(tmp_path / "run"),
        "--seeds", "3,4", "--epochs", "1", "--jobs", "64",
    ]) == 0
    assert requested == [2]
    assert (tmp_path / "run-seed3.odm").exists() and (tmp_path / "run-seed4.odm").exists()


def test_a_dead_worker_is_one_line_naming_the_seeds_that_did_not_finish(
        anti_config, tmp_path, monkeypatch, capsys):
    # the stand-in pool runs seed 3 and fails seed 4's future as a pool
    # whose worker died does
    class BrokenPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, cfg, data, seed, out):
            future = concurrent.futures.Future()
            if seed == 4:
                future.set_exception(BrokenProcessPool("a process terminated abruptly"))
            else:
                future.set_result(fn(cfg, data, seed, out))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    capsys.readouterr()
    assert main(["train", anti_config, data, "--out", str(tmp_path / "run"),
                 "--seeds", "3,4", "--epochs", "1", "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("seed 3: final_loss=") and out.count("\n") == 1
    assert err == "error: a worker process died; seed(s) 4 did not finish\n"
    assert (tmp_path / "run-seed3.odm").exists() and not (tmp_path / "run-seed4.odm").exists()


# Runs ``odnet.cli.main`` on its arguments with ``_train_one_seed`` replaced
# by a function of this module's ``__main__`` (so a forked worker finds it).
_TRAIN_SCRIPT = """
import os, signal, sys
import odnet.cli

real = odnet.cli._train_one_seed

def _train_one_seed(cfg, data, seed, out):
    {body}
    return real(cfg, data, seed, out)

odnet.cli._train_one_seed = _train_one_seed
sys.exit(odnet.cli.main(sys.argv[1:]))
"""


def _run_script(body: str, *argv):
    """(return code, stderr) of the script; a run still going after 60 s is
    killed with its workers, and the test fails on the timeout."""
    src = str(Path(odnet.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-c", _TRAIN_SCRIPT.format(body=body), *argv],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, err


@pytest.mark.parametrize("body,jobs", [
    ("os.kill(os.getpid(), signal.SIGINT)", []),
    # the worker of seed 1 interrupts the command while it waits on the pool
    ("if seed == 1:\n        os.kill(os.getppid(), signal.SIGINT)", ["--seeds", "0,1", "--jobs", "2"]),
], ids=["serial", "jobs"])
def test_an_interrupt_exits_130_with_one_line(body, jobs, anti_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    assert _run_script(body, "train", anti_config, data, "--out", str(tmp_path / "run"),
                       "--epochs", "1", *jobs) == (130, "interrupted\n")


def test_a_worker_that_dies_in_a_fork_pool_exits_1_with_one_line(anti_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", anti_config, "--out", data]) == 0
    code, err = _run_script("if seed == 1:\n        os._exit(137)",
                            "train", anti_config, data, "--out", str(tmp_path / "run"),
                            "--seeds", "0,1", "--epochs", "1", "--jobs", "2")
    assert code == 1, err
    assert err.startswith("error: a worker process died; seed(s) ")
    assert err.count("\n") == 1 and "1 did not finish" in err
    assert not (tmp_path / "run-seed1.odm").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_train_jobs_below_1_is_a_usage_error(jobs, anti_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", anti_config, "d.odn", "--out", "run", "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: {jobs!r} is below 1" in capsys.readouterr().err


def test_out_of_memory_exits_5_with_one_line(anti_config, tmp_path, capsys, monkeypatch):
    def refuse(spec):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr("odnet.cli.generate_dataset", refuse)
    assert main(["gen", anti_config, "--out", str(tmp_path / "anti.odn")]) == 5
    assert capsys.readouterr().err == "out of memory: Unable to allocate 7.45 GiB for an array\n"
    assert not (tmp_path / "anti.odn").exists()


@pytest.mark.parametrize("seeds", ["0,0", "0,-1"])
def test_a_bad_seed_list_exits_2_before_any_run(seeds, anti_config, tmp_path, capsys):
    data = tmp_path / "anti.odn"
    assert main(["gen", anti_config, "--out", str(data)]) == 0
    written = set(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["train", anti_config, str(data), "--out", str(tmp_path / "run"),
                 "--seeds", seeds]) == 2
    assert capsys.readouterr().err.startswith("config error: [train] seeds ")
    assert set(tmp_path.iterdir()) == written


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_train_into_a_missing_directory_exits_3_before_any_run(jobs, anti_config, tmp_path,
                                                               capsys, monkeypatch):
    data = tmp_path / "anti.odn"
    assert main(["gen", anti_config, "--out", str(data)]) == 0
    written = set(tmp_path.rglob("*"))

    def no_run(*args, **kwargs):
        raise AssertionError("trained into a directory that does not exist")

    monkeypatch.setattr("odnet.cli.train", no_run)
    capsys.readouterr()
    out = tmp_path / "missing_dir" / "run"
    assert main(["train", anti_config, str(data), "--out", str(out), "--seeds", "0,1",
                 "--jobs", jobs]) == 3
    assert capsys.readouterr().err == f"data error: --out {out}: no directory {out.parent}\n"
    assert set(tmp_path.rglob("*")) == written


@pytest.mark.parametrize("stand_in,argv", [
    ("generate_dataset", ["gen", "{config}", "--out", "{missing}"]),
    ("evaluate_model", ["eval", "{ckpt}", "{data}", "--out", "{missing}", "--mse-out", "{ok}"]),
    ("evaluate_model", ["eval", "{ckpt}", "{data}", "--out", "{ok}", "--mse-out", "{missing}"]),
    ("export_basis", ["export-basis", "{ckpt}", "{data}", "--columns", "0", "--out", "{missing}"]),
], ids=["gen", "eval-out", "eval-mse-out", "export-basis"])
def test_an_output_into_a_missing_directory_exits_3_before_any_work(
        stand_in, argv, anti_config, anti_run, tmp_path, capsys, monkeypatch):
    written = set(tmp_path.rglob("*"))

    def no_work(*args, **kwargs):
        raise AssertionError("worked for an output that cannot be written")

    monkeypatch.setattr(f"odnet.cli.{stand_in}", no_work)
    missing = tmp_path / "missing_dir" / "out.csv"
    names = {"config": anti_config, "ckpt": str(anti_run[1]), "data": anti_run[0],
             "missing": str(missing), "ok": str(tmp_path / "ok.csv")}
    argv = [arg.format(**names) for arg in argv]
    flag = argv[argv.index(str(missing)) - 1]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {flag} {missing}: no directory {missing.parent}\n"
    assert set(tmp_path.rglob("*")) == written


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_every_command_runs_on_each_bundled_config(config, tmp_path, capsys):
    path, data, run = str(CONFIG_DIR / config), str(tmp_path / "d.odn"), str(tmp_path / "run")
    ckpt = run + "-seed0.odm"
    for argv in (["gen", path, "--out", data, "--n", "60"],
                 ["train", path, data, "--out", run, "--epochs", "1"],
                 ["eval", ckpt, data, "--out", str(tmp_path / "r.csv")],
                 ["export-basis", ckpt, data, "--columns", "0", "--out", str(tmp_path / "b.csv")],
                 ["inspect", data], ["inspect", ckpt]):
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_eval_summary_matches_api(pod_config, tmp_path, capsys):
    data = str(tmp_path / "anti.odn")
    main(["gen", pod_config, "--out", data])
    main(["train", pod_config, data, "--out", str(tmp_path / "run"), "--epochs", "2"])
    report_csv = str(tmp_path / "report.csv")
    code = main([
        "eval", str(tmp_path / "run-seed0.odm"), data, "--out", report_csv,
    ])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    mean_pct = float(line.split(",")[2].rstrip("%"))
    # recompute through the library API
    ds = read_dataset(data)
    cfg = parse_config(POD_CFG)
    _, test_idx = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    model, _, _ = load_checkpoint(str(tmp_path / "run-seed0.odm"), ds)
    api = evaluate_model(model, ds.U[test_idx], ds.V[test_idx], ds.Y)
    assert mean_pct == pytest.approx(api.mean_percent, rel=1e-3)
    rows = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + cfg.eval.test_count
    assert (tmp_path / "report.csv.eval-manifest.txt").exists()


def _rd_run(tmp_path, text=RD_CFG):
    """An rd2d dataset, a one-epoch checkpoint of ``text`` and its parsed config."""
    config, data = tmp_path / "rd.ini", str(tmp_path / "rd.odn")
    config.write_text(text)
    assert main(["gen", str(config), "--out", data]) == 0
    assert main(["train", str(config), data, "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
    return data, str(tmp_path / "run-seed0.odm"), parse_config(text)


def test_eval_mse_out_holds_the_spatial_mse_of_the_test_split(tmp_path):
    data, ckpt, cfg = _rd_run(tmp_path)
    out = tmp_path / "mse.csv"
    assert main(["eval", ckpt, data, "--mse-out", str(out)]) == 0
    ds = read_dataset(data)
    model, _, _ = load_checkpoint(ckpt, ds)
    _, test_idx = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    mse = spatial_mse(model.predict(ds.U[test_idx], ds.Y).data, ds.scalar_targets()[test_idx])
    header, *rows = out.read_text().splitlines()
    assert header == "y1,y2,mse"
    np.testing.assert_array_equal([[float(v) for v in row.split(",")] for row in rows],
                                  np.hstack([ds.Y, mse[:, None]]))


@pytest.mark.parametrize("split", ["train", "all"])
def test_eval_split_evaluates_its_rows(split, tmp_path):
    data, ckpt, cfg = _rd_run(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["eval", ckpt, data, "--split", split, "--out", str(out)]) == 0
    ds = read_dataset(data)
    model, _, _ = load_checkpoint(ckpt, ds)
    rows = (split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)[0]
            if split == "train" else np.arange(ds.n_samples))
    assert len(rows) == (ds.n_samples - cfg.eval.test_count if split == "train" else ds.n_samples)
    evaluate_model(model, ds.U[rows], ds.scalar_targets()[rows], ds.Y).to_csv(tmp_path / "api.csv")
    assert out.read_bytes() == (tmp_path / "api.csv").read_bytes()


def test_eval_of_an_empty_test_split_exits_3(tmp_path, capsys):
    data, ckpt, _ = _rd_run(tmp_path, RD_CFG.replace("test_count = 2", "test_count = 0"))
    capsys.readouterr()
    assert main(["eval", ckpt, data, "--split", "test"]) == 3
    assert capsys.readouterr().err == "data error: split 'test' selects no functions\n"


# POD_CFG's canonical text as builds before the per-generator key table
# wrote it: [data] also held rd2d's branch_grid, nu and t_final
OLDER_POD_TEXT = """[data]
generator = antiderivative
n = 20
seed = 3
grid = 16
modes = 4
branch_grid = 8
nu = 0.1
t_final = 0.5

[model]
members = v1 pod1
branch_hidden = 8
activation = tanh

[trunk.v1]
kind = vanilla
p = 4
hidden = 8

[trunk.pod1]
kind = pod
p = 3
modified = true

[train]
epochs = 3
optimizer = adam
lr0 = 0.001
gamma = 0.5
decay_step = 0
weight_decay = 0.0001
batch = 0
seeds = 0

[eval]
test_count = 5
split_seed = 2
"""


def _eval_csv(checkpoint, data, out):
    assert main(["eval", str(checkpoint), data, "--split", "all", "--out", str(out)]) == 0
    return out.read_bytes()


def test_a_checkpoint_of_an_older_build_loads_and_evaluates_to_the_same_bits(pod_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    assert main(["gen", pod_config, "--out", data]) == 0
    assert main(["train", pod_config, data, "--out", str(tmp_path / "run")]) == 0
    ds = read_dataset(data)
    model, text, _ = load_checkpoint(str(tmp_path / "run-seed0.odm"), ds)
    foreign = "branch_grid = 8\nnu = 0.1\nt_final = 0.5\n"
    assert text == OLDER_POD_TEXT.replace(foreign, "")
    older = tmp_path / "older.odm"
    save_checkpoint(model, OLDER_POD_TEXT, older, seed=0)
    again, older_text, _ = load_checkpoint(str(older), ds)
    assert older_text == OLDER_POD_TEXT and parse_config(older_text) == parse_config(text)
    assert again.predict(ds.U, ds.Y).data.tobytes() == model.predict(ds.U, ds.Y).data.tobytes()
    assert (_eval_csv(older, data, tmp_path / "older.csv")
            == _eval_csv(tmp_path / "run-seed0.odm", data, tmp_path / "run.csv"))


def test_a_checkpoint_loads_values_its_generator_would_refuse(tmp_path):
    # train refuses nu < 0 now, but a stored config is loaded as it is
    cfg = tmp_path / "rd.ini"
    cfg.write_text(RD_CFG)
    data = str(tmp_path / "rd.odn")
    assert main(["gen", str(cfg), "--out", data]) == 0
    assert main(["train", str(cfg), data, "--out", str(tmp_path / "run")]) == 0
    model, text, _ = load_checkpoint(str(tmp_path / "run-seed0.odm"))
    assert "\nnu = 0.1\n" in text
    refused = tmp_path / "refused.odm"
    save_checkpoint(model, text.replace("\nnu = 0.1\n", "\nnu = -0.1\n"), refused, seed=0)
    assert load_checkpoint(str(refused))[1] != text
    assert _eval_csv(refused, data, tmp_path / "r.csv") == _eval_csv(
        tmp_path / "run-seed0.odm", data, tmp_path / "run.csv")


def test_eval_mismatched_nx_is_shape_error(anti_config, tmp_path, capsys):
    data = str(tmp_path / "anti.odn")
    main(["gen", anti_config, "--out", data])
    main(["train", anti_config, data, "--out", str(tmp_path / "run"), "--epochs", "1"])
    other_cfg = tmp_path / "wide.ini"
    other_cfg.write_text(ANTI_CFG.replace("grid = 16", "grid = 32"))
    wide = str(tmp_path / "wide.odn")
    main(["gen", str(other_cfg), "--out", wide])
    assert main(["eval", str(tmp_path / "run-seed0.odm"), wide]) == 3
    assert "N_x" in capsys.readouterr().err


def test_overflowing_loss_exits_numeric_failure(anti_config, tmp_path, capsys):
    # targets near the float64 ceiling overflow the squared error to inf
    # in the first epoch: numeric failure, exit 4, partial loss CSV on disk
    from odnet.data import read_dataset as rd, write_dataset

    data = str(tmp_path / "anti.odn")
    main(["gen", anti_config, "--out", data])
    ds = rd(data)
    ds.V[:] = 1e200
    huge = str(tmp_path / "huge.odn")
    write_dataset(ds, huge)
    with np.errstate(over="ignore"):
        code = main([
            "train", anti_config, huge, "--out", str(tmp_path / "boom"), "--epochs", "3",
        ])
    assert code == 4
    assert "epoch 0" in capsys.readouterr().err
    loss_csv = tmp_path / "boom-seed0.loss.csv"
    assert loss_csv.exists()
    assert loss_csv.read_text().strip() == "epoch,loss,lr,seconds"
    assert not (tmp_path / "boom-seed0.odm").exists()


def test_export_basis_pod_phi0(pod_config, tmp_path):
    data = str(tmp_path / "anti.odn")
    main(["gen", pod_config, "--out", data])
    main(["train", pod_config, data, "--out", str(tmp_path / "run"), "--epochs", "1"])
    out = tmp_path / "basis.csv"
    # columns: v1 occupies 0-3, pod member's phi0 column is 4
    assert main([
        "export-basis", str(tmp_path / "run-seed0.odm"), data,
        "--columns", "4", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "y1,col4"
    ds = read_dataset(data)
    cfg = parse_config(POD_CFG)
    train_idx, _ = split_indices(ds.n_samples, cfg.eval.test_count, cfg.eval.split_seed)
    phi0 = ds.V[train_idx].mean(axis=0)
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    np.testing.assert_allclose(got, phi0, atol=1e-15)


def test_export_basis_out_of_range_column(pod_config, tmp_path, capsys):
    data = str(tmp_path / "anti.odn")
    main(["gen", pod_config, "--out", data])
    main(["train", pod_config, data, "--out", str(tmp_path / "run"), "--epochs", "1"])
    code = main([
        "export-basis", str(tmp_path / "run-seed0.odm"), data,
        "--columns", "99", "--out", str(tmp_path / "nope.csv"),
    ])
    assert code != 0


def test_inspect_both_formats(pod_config, tmp_path, capsys):
    data = str(tmp_path / "anti.odn")
    main(["gen", pod_config, "--out", data])
    main(["train", pod_config, data, "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert main(["inspect", data]) == 0
    out = capsys.readouterr().out
    assert "ODN1 dataset" in out and "generator=antiderivative" in out
    assert main(["inspect", str(tmp_path / "run-seed0.odm")]) == 0
    out = capsys.readouterr().out
    assert "ODM1 checkpoint" in out and "member1.kind=pod" in out
    assert out.index("  total_values=") < out.index("  params.")
    # inspect prints the numerical rank the train manifest recorded
    rank = _manifest_fields(tmp_path / "run-seed0.manifest.txt")["pod_rank.member1"]
    assert rank == "3/3"
    assert "  pod_rank.member1=3/3\n" in out
    # a checkpoint reports the rank of the eigenvalues it stores, such as
    # the round-off tail of one written by a covariance eigensolver
    ds = read_dataset(data)
    model, text, _ = load_checkpoint(str(tmp_path / "run-seed0.odm"), ds)
    # values per stored network, from the arrays alone; a POD member has none
    for net, mlp in (("member0", model.members[0].mlp), ("branch", model.branch)):
        assert f"  params.{net}={mlp.config.parameter_count}\n" in out
    assert "  params.bias=1\n" in out and "params.member1" not in out
    model.members[1].basis.eigenvalues = np.array([1.0e3, 0.119, 7e-13])
    save_checkpoint(model, text, str(tmp_path / "old.odm"))
    assert main(["inspect", str(tmp_path / "old.odm")]) == 0
    assert "  pod_rank.member1=2/3\n" in capsys.readouterr().out


# --- malformed files that pass their CRC32 exit 3, without a traceback ---

@pytest.fixture
def anti_run(anti_config, tmp_path):
    """A dataset and a one-epoch checkpoint trained on it."""
    data = str(tmp_path / "anti.odn")
    main(["gen", anti_config, "--out", data])
    main(["train", anti_config, data, "--out", str(tmp_path / "run"), "--epochs", "1"])
    return data, tmp_path / "run-seed0.odm"


def _resealed(path, blob: bytes) -> str:
    """Writes ``blob`` under a fresh CRC32 trailer in place of its last 4 bytes."""
    body = blob[:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return str(path)


def _exits_data_error(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: ")


def test_non_utf8_odn1_metadata_exits_3(anti_run, tmp_path, capsys):
    blob = open(anti_run[0], "rb").read()
    bad = _resealed(tmp_path / "bad.odn", blob[:-5] + b"\xff" + blob[-4:])  # its last "\n"
    _exits_data_error(["inspect", bad], capsys)


def test_odm1_without_n_members_exits_3(anti_run, tmp_path, capsys):
    data, ckpt = anti_run
    blob = ckpt.read_bytes()
    assert b"\nn_members=" in blob
    bad = _resealed(tmp_path / "bad.odm", blob.replace(b"\nn_members=", b"\nn_xembers="))
    _exits_data_error(["eval", bad, data], capsys)


def test_odm1_huge_array_shape_exits_3(anti_run, tmp_path, capsys):
    blob = bytearray(anti_run[1].read_bytes())
    dims_at = blob.index(b"branch.layer0.weight") + len(b"branch.layer0.weight") + 4
    assert struct.unpack_from("<I", blob, dims_at - 4) == (2,)
    struct.pack_into("<2I", blob, dims_at, 2**32 - 1, 2**32 - 1)
    _exits_data_error(["inspect", _resealed(tmp_path / "bad.odm", bytes(blob))], capsys)


def _flat_branch_weight(blob: bytes) -> bytes:
    """Stores branch.layer0.weight as one 1-d array of the same values."""
    at = blob.index(b"branch.layer0.weight") + len(b"branch.layer0.weight")
    ndim, rows, cols = struct.unpack_from("<3I", blob, at)
    assert ndim == 2
    return blob[:at] + struct.pack("<2I", 1, rows * cols) + blob[at + 12:]


def _extra_array(blob: bytes) -> bytes:
    """Appends a 1-value array named "extra" and counts it."""
    count_at = blob.index(struct.pack("<I", 4) + b"bias") - 4  # "bias" sorts first
    (count,) = struct.unpack_from("<I", blob, count_at)
    record = struct.pack("<I", 5) + b"extra" + struct.pack("<2Id", 1, 1, 0.5)
    return (blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4:-4]
            + record + blob[-4:])


_MISFITS = {
    "1-d branch weight": _flat_branch_weight,
    "extra array": _extra_array,
    "member0.p=7": lambda blob: blob.replace(b"\nmember0.p=4\n", b"\nmember0.p=7\n"),
}


@pytest.mark.parametrize("edit", _MISFITS.values(), ids=_MISFITS.keys())
def test_odm1_that_does_not_fit_its_config_exits_3(edit, anti_run, tmp_path, capsys):
    data, ckpt = anti_run
    blob = ckpt.read_bytes()
    bad = edit(blob)
    assert bad != blob
    _exits_data_error(["eval", _resealed(tmp_path / "bad.odm", bad), data], capsys)


def test_odm1_pod_basis_wider_than_p_exits_3(tmp_path, capsys):
    # an rd2d-pod checkpoint whose member carries a 9th mode for p = 8
    text = (CONFIG_DIR / "rd2d-pod.ini").read_text()
    ds = gen_reaction_diffusion_2d(RDParams(n=8, branch_grid=4), 16, seed=0)
    data, ckpt = tmp_path / "rd.odn", tmp_path / "wide.odm"
    write_dataset(ds, data)
    train_idx = np.arange(12)
    model = build_model(parse_config(text), ds, train_idx, seed=0)
    model.members[0].basis = compute_pod(ds.V[train_idx], 9, y_locations=ds.Y)
    save_checkpoint(model, text, ckpt)
    with pytest.raises(DataError, match="exactly p modes"):
        load_checkpoint(ckpt, ds)
    _exits_data_error(["eval", str(ckpt), str(data)], capsys)


def _zeros_odn1(path, d_u, d_v, n_x, n_y, n) -> str:
    """A CRC-valid ODN1 of zeros with the given dimensions and c = 1."""
    values = np.zeros(n_x * d_u + n_y * d_v + n * n_x + n * n_y, dtype="<f8")
    text = b"name=zeros\n"
    blob = (b"ODNSET01" + struct.pack("<7I", 1, d_u, d_v, n_x, n_y, n, 1) + values.tobytes()
            + struct.pack("<I", len(text)) + text + bytes(4))
    return _resealed(path, blob)


_ZERO_DIMS = {
    "d_v=0": dict(d_u=1, d_v=0, n_x=16, n_y=16, n=20),
    "N_x=0": dict(d_u=1, d_v=1, n_x=0, n_y=16, n=20),
}


@pytest.mark.parametrize("dims", _ZERO_DIMS.values(), ids=_ZERO_DIMS.keys())
def test_odn1_with_a_zero_dimension_exits_3(dims, anti_config, tmp_path, capsys):
    data = _zeros_odn1(tmp_path / "zero.odn", **dims)
    _exits_data_error(["train", anti_config, data, "--out", str(tmp_path / "run")], capsys)
    assert not list(tmp_path.glob("*.odm"))
