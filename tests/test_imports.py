"""Every name a module imports is read in that module, and no module of
``src/bqkit`` imports another's private names.

The first is checked on the modules of ``src/bqkit``, except
``__init__.py``, whose imports are the package's exports, and on the
test modules.  A name is read when it occurs as a loaded name, which
includes the head of an attribute chain and annotations.  A private
name is one that starts with ``_``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "bqkit").glob("*.py")
                 if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names bound by the imports of the module source that it never
    reads, each with the line of its import."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from __future__ import annotations\nx: b = osp.sep\n")
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.parent.name + "/" + p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source):
    """The ``_``-prefixed names that the module source imports from a
    module of its own package (a relative import or one from ``bqkit``),
    each with the line of its import."""
    return sorted(
        (node.lineno, alias.name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "bqkit")
        for alias in node.names if alias.name.startswith("_"))


def test_private_imports_are_found():
    source = ("from .ideal import Ideal, _HomSpace\nfrom bqkit.quiver import _x\n"
              "from os import _exit\nfrom . import _private\n")
    assert private_imports(source) == [(1, "_HomSpace"), (2, "_x"), (4, "_private")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.parent.name + "/" + p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
