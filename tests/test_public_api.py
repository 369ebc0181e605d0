"""The public surface and its documentation stay in step."""

import inspect
import re
from dataclasses import MISSING
from pathlib import Path

import odnet
from odnet import autodiff as ad
from odnet import runconfig as rc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in odnet.__all__ if not hasattr(odnet, name)]
    assert missing == []


def test_autodiff_ops_match_the_documented_op_list():
    # the bullet list of the module docstring names every op, and only ops
    doc = ad.__doc__
    bullets = doc[doc.index("\n- "):doc.index("\n\n", doc.index("\n- "))]
    documented = set(re.findall(r"``([a-z_]+)``", bullets))
    public = {
        name for name, fn in inspect.getmembers(ad, inspect.isfunction)
        if fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert public - {"as_tensor"} == documented
    # and the count the docstring states in words
    words = "zero one two three four five six seven eight nine ten eleven twelve".split()
    assert f"{words[len(documented)]} ops" in " ".join(doc.split())


def test_readme_code_uses_exported_names_only():
    # every odnet.<name> in a README code block is in odnet.__all__
    readme = README.read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    used = {name for block in blocks for name in re.findall(r"\bodnet\.([A-Za-z_]\w*)", block)}
    assert used  # the usage example is still there
    assert sorted(used - set(odnet.__all__)) == []


def test_readme_documents_every_config_key_with_its_default():
    # the Configuration table lists, section by section, every key that
    # parse_config accepts, and each key's default as its field declares it;
    # a default given in plain words is an empty one or none at all
    readme = README.read_text()
    start = readme.index("## Configuration")
    table = readme[start:readme.index("\n## ", start)]
    documented, section = {}, None
    # [data] rows come in groups headed by their generator's name
    row = r"^\| (`\[.+?\]`(?: `\w+`)?)? ?\| `(\w+)` \| (.+?) \|"
    for head, key, default in re.findall(row, table, re.M):
        section = head.replace("`", "") or section
        documented[section, key] = default
    generators = {f"[data] {generator}": {k: e for k, e in keys.items() if k != "generator"}
                  for generator, keys in rc._DATA_SECTION.items()}
    sections = {
        "[data]": rc._keys(rc.DataSpec, "generator"), **generators, "[model]": rc._MODEL_KEYS,
        "[trunk.<name>]": {k: e for keys in rc._TRUNK_SECTION.values() for k, e in keys.items()},
        "[train]": {**rc._TRAIN_KEYS, **rc._SEEDS_KEY}, "[eval]": rc._EVAL_KEYS,
    }
    declared = {(s, key): entry for s, keys in sections.items() for key, entry in keys.items()}
    assert sorted(documented) == sorted(declared)
    for (s, key), (f, reader) in declared.items():
        default = f.default if f.default_factory is MISSING else f.default_factory()
        text = documented[s, key]
        if text.startswith("`"):
            assert reader(text.strip("`")) == default, (s, key, text)
        else:
            assert default in (MISSING, None, "", ()), (s, key, text)
