"""Every module of the package uses each name it imports.

The toolchain has no linter, so this stdlib ``ast`` pass stands in for the
unused-import rule. An import on a line marked ``# noqa`` is kept on purpose
and skipped. A name listed in a module's ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

import macc

MODULES = sorted(Path(macc.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names imported by ``source`` that it never reads, as "line name"."""
    lines, tree = source.splitlines(), ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{line} {name}" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from itertools import (\n    chain,\n    product,\n)\n"
              "from math import comb  # noqa: F401\n"
              "__all__ = ['np']\n"
              "pairs = list(product([1], [2]))\n")
    assert unused_imports(source) == ["4 chain"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
