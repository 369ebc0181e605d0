"""Fuzz the ODN1 and ODM1 readers: every truncation and a seeded sample of
single-byte flips over each region of a file must raise DataError, and
the CLI must turn such a file into exit code 3."""

import struct

import numpy as np
import pytest

from odnet.checkpoint import MAGIC as ODM1_MAGIC, load_checkpoint, save_checkpoint
from odnet.cli import main
from odnet.data import MAGIC as ODN1_MAGIC, OperatorDataset, read_dataset, write_dataset
from odnet.errors import DataError
from odnet.runconfig import build_model, generate_dataset, parse_config

CFG = """
[data]
generator = antiderivative
n = 6
seed = 1
grid = 8
modes = 2

[model]
members = v1 pod1
branch_hidden = 3

[trunk.v1]
kind = vanilla
p = 2
hidden = 3

[trunk.pod1]
kind = pod
p = 2

[train]
epochs = 1

[eval]
test_count = 2
"""

FLIPS_PER_FILE = 48


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small ODN1 dataset and an ODM1 checkpoint of a model built on it
    (vanilla + POD, so loading needs the dataset)."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = parse_config(CFG)
    ds = generate_dataset(cfg.data)
    odn, odm = root / "d.odn", root / "m.odm"
    write_dataset(ds, odn)
    model = build_model(cfg, ds, np.arange(4), seed=0)
    save_checkpoint(model, cfg.text, odm, seed=0)
    return root, ds, odn.read_bytes(), odm.read_bytes()


def _odn1_offsets(blob, ds):
    """One offset inside each region of an ODN1 file, then a seeded sample."""
    header = len(ODN1_MAGIC) + 7 * 4
    arrays_end = header + 8 * sum(a.size for a in (ds.X, ds.Y, ds.U, ds.V))
    (meta_len,) = struct.unpack_from("<I", blob, arrays_end)
    regions = [
        0,                                 # magic
        len(ODN1_MAGIC),                   # version
        len(ODN1_MAGIC) + 4 * 5,           # N
        header + 3,                        # X
        arrays_end - 5,                    # V
        arrays_end,                        # metadata length
        arrays_end + 4 + meta_len // 2,    # metadata text
        len(blob) - 1,                     # CRC
    ]
    return _with_sample(regions, len(blob), seed=11)


def _odm1_offsets(blob):
    config_len = struct.unpack_from("<I", blob, 12)[0]
    attrs_at = 16 + config_len
    attrs_len = struct.unpack_from("<I", blob, attrs_at)[0]
    arrays_at = attrs_at + 4 + attrs_len
    regions = [
        0,                                 # magic
        len(ODM1_MAGIC),                   # version
        12,                                # config length
        16 + config_len // 2,              # config text
        attrs_at + 4 + attrs_len // 2,     # attributes text
        arrays_at,                         # array count
        arrays_at + 9,                     # first array name
        len(blob) - 12,                    # last array data
        len(blob) - 3,                     # CRC
    ]
    return _with_sample(regions, len(blob), seed=12)


def _with_sample(regions, size, seed):
    sample = np.random.default_rng(seed).choice(size, FLIPS_PER_FILE, replace=False)
    return sorted(set(regions) | {int(i) for i in sample})


def _flipped(blob, offset):
    bad = bytearray(blob)
    bad[offset] ^= 0xFF
    return bytes(bad)


def _rejects(read, path, blob):
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read(path)


def test_odn1_every_truncation_rejected(files):
    root, _, blob, _ = files
    path = root / "cut.odn"
    for cut in range(len(blob)):
        _rejects(read_dataset, path, blob[:cut])


def test_odn1_byte_flips_rejected(files):
    root, ds, blob, _ = files
    path = root / "flip.odn"
    for offset in _odn1_offsets(blob, ds):
        _rejects(read_dataset, path, _flipped(blob, offset))


def test_odm1_every_truncation_rejected(files):
    root, ds, _, blob = files
    path = root / "cut.odm"
    for cut in range(len(blob)):
        _rejects(lambda p: load_checkpoint(p, ds), path, blob[:cut])


def test_odm1_byte_flips_rejected(files):
    root, ds, _, blob = files
    path = root / "flip.odm"
    for offset in _odm1_offsets(blob):
        _rejects(lambda p: load_checkpoint(p, ds), path, _flipped(blob, offset))


def test_unmodified_files_still_load(files):
    root, ds, odn, odm = files
    (root / "ok.odn").write_bytes(odn)
    (root / "ok.odm").write_bytes(odm)
    back = read_dataset(root / "ok.odn")
    assert isinstance(back, OperatorDataset) and back.V.tobytes() == ds.V.tobytes()
    load_checkpoint(root / "ok.odm", back)


def test_cli_damaged_files_exit_3(files, capsys):
    root, ds, odn, odm = files
    good_odn, good_odm = root / "cli.odn", root / "cli.odm"
    good_odn.write_bytes(odn)
    good_odm.write_bytes(odm)
    cut_odn, flip_odm = root / "cli-cut.odn", root / "cli-flip.odm"
    cut_odn.write_bytes(odn[: len(odn) // 2])
    flip_odm.write_bytes(_flipped(odm, _odm1_offsets(odm)[3]))
    for argv in (
        ["inspect", str(cut_odn)],
        ["inspect", str(flip_odm)],
        ["eval", str(good_odm), str(cut_odn)],
        ["eval", str(flip_odm), str(good_odn)],
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith("data error: ")
