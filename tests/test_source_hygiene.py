"""Static checks over the package source, with ``ast`` only: no module
imports a name it never reads, no module-level definition is left that
nothing in the package reads, imports or exports, every file is written
through one replace helper, every random draw has a seed, and every
``key=value`` record line is formatted by one encoder."""

import ast
from pathlib import Path

import odnet

SRC = Path(odnet.__file__).resolve().parent
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
         for p in sorted(SRC.glob("*.py"))}


def _bound_by_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def _loads(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


LOADS = {module: _loads(tree) for module, tree in TREES.items()}


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id


def test_no_module_imports_a_name_it_never_reads():
    unread = [f"{module}.py: {bound}"
              for module, tree in TREES.items() if module != "__init__"
              for bound in _bound_by_imports(tree) if bound not in LOADS[module]]
    assert unread == []


def test_every_module_level_definition_is_used_or_exported():
    used_pairs = set()  # (module, name) read through a relative import
    for tree in TREES.values():
        aliases = {}  # local name -> package module, as in ``from . import data as datamod``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in TREES:
                        aliases[a.asname or a.name] = a.name
                    else:
                        used_pairs.add((node.module or "__init__", a.name))
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in aliases):
                used_pairs.add((aliases[n.value.id], n.attr))
    unused = [f"{module}.py: {name}"
              for module, tree in TREES.items()
              for name in _top_level_names(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in odnet.__all__ and (module, name) not in used_pairs
              and name not in LOADS[module]]
    assert unused == []


HELPER = "replacing"  # evaluation.replacing: write to a .part file, then rename it


def _is_call(node, name):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def _calls(tree, name):
    return [n for n in ast.walk(tree) if _is_call(n, name)]


def test_every_file_is_written_through_the_replace_helper():
    """No ``open`` for writing outside the helper, and every ``np.savetxt``
    writes to the handle of a ``with replacing(...) as <name>`` around it."""
    helper = next(n for n in ast.walk(TREES["evaluation"])
                  if isinstance(n, ast.FunctionDef) and n.name == HELPER)
    inside = {id(n) for n in ast.walk(helper)}
    bypasses = []
    for module, tree in TREES.items():
        for call in _calls(tree, "open"):
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                          and not set(mode.value) & set("wax+"))
            if writes and id(call) not in inside:
                bypasses.append(f"{module}.py:{call.lineno} open")
        bound = set()  # savetxt calls writing to a handle bound by the helper
        for node in ast.walk(tree):
            if isinstance(node, ast.With):
                handles = {item.optional_vars.id for item in node.items
                           if isinstance(item.optional_vars, ast.Name)
                           and _is_call(item.context_expr, HELPER)}
                bound |= {id(c) for stmt in node.body for c in _calls(stmt, "savetxt")
                          if c.args and isinstance(c.args[0], ast.Name)
                          and c.args[0].id in handles}
        bypasses += [f"{module}.py:{c.lineno} savetxt" for c in _calls(tree, "savetxt")
                     if id(c) not in bound]
    assert bypasses == []


SEEDED = {"default_rng", "SeedSequence", "Generator"}  # np.random names that take a seed


def test_every_random_draw_comes_from_a_seeded_generator():
    """Runs are bit-identical per seed only if no draw reads numpy's global
    random state: no other ``np.random.<name>``, and no ``default_rng()``
    without a seed."""
    unseeded = []
    for module, tree in TREES.items():
        unseeded += [f"{module}.py:{n.lineno} np.random.{n.attr}" for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and n.attr not in SEEDED
                     and isinstance(n.value, ast.Attribute) and n.value.attr == "random"
                     and isinstance(n.value.value, ast.Name) and n.value.value.id == "np"]
        unseeded += [f"{module}.py:{c.lineno} default_rng()" for c in _calls(tree, "default_rng")
                     if not c.args and not c.keywords]
    assert unseeded == []


ENCODER = "kv_lines"  # data.kv_lines: the one formatter of key=value record lines


def test_every_key_value_line_is_formatted_by_the_encoder():
    """A record line written or printed elsewhere would skip the encoder's
    check that it parses back: no f-string outside it has a literal part
    that is exactly ``=`` between two replacement fields."""
    encoder = next(n for n in ast.walk(TREES["data"])
                   if isinstance(n, ast.FunctionDef) and n.name == ENCODER)
    inside = {id(n) for n in ast.walk(encoder)}
    formatters = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and id(node) not in inside:
                parts = node.values
                formatters += [f"{module}.py:{node.lineno}"
                               for a, eq, b in zip(parts, parts[1:], parts[2:])
                               if isinstance(a, ast.FormattedValue)
                               and isinstance(b, ast.FormattedValue)
                               and isinstance(eq, ast.Constant) and eq.value == "="]
    assert formatters == []
