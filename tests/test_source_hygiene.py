"""Static checks over the package source, with ``ast`` only: no module
imports a name it never reads, and no module-level definition is left
that nothing in the package reads, imports or exports."""

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
