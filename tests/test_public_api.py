"""The public surface and its documentation stay in step."""

import inspect
import re
from pathlib import Path

import odnet
from odnet import autodiff as ad


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
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    used = {name for block in blocks for name in re.findall(r"\bodnet\.([A-Za-z_]\w*)", block)}
    assert used  # the usage example is still there
    assert sorted(used - set(odnet.__all__)) == []
