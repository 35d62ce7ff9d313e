"""Every module of the package uses each name it imports.

The toolchain has no linter, so this stdlib ``ast`` pass stands in for the
unused-import rule. An import on a line marked ``# noqa`` is kept on purpose
and skipped. A name listed in a module's ``__all__`` counts as used. The
only purpose such an import may have is to be wrapped by the benchmark's
tracer, so each must name an attribute that ``perfbench/layers.py`` wraps
on that same module.

A second pass requires every module-level name (a function, class or
assignment) to be read somewhere in the package, so no helper outlives its
last caller: each private ``_name``, and each public name that ``macc``
does not export in its ``__all__``. Reads from the tests do not count.

A third pass keeps one reader of the scheme table: no code in the package
loads ``CELLS`` except the body of ``baselines.read_block``.
"""

import ast
from pathlib import Path

import pytest

import macc

MODULES = sorted(Path(macc.__file__).parent.glob("*.py"))
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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


def kept_imports(source: str) -> list[str]:
    """Names imported by ``source`` on a line marked ``# noqa``."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if "# noqa" in lines[alias.lineno - 1]
    ]


def traced_attributes(layers_source: str) -> set[tuple[str, str]]:
    """(module, attribute) of each ``tracer.span``/``tracer.count`` call on a module.

    A module is a local name bound to ``macc.<module>``; a call on anything
    else (a class, say) is left out.
    """
    tree = ast.parse(layers_source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets[0].elts if isinstance(node.targets[0], ast.Tuple) else node.targets
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            for target, value in zip(targets, values):
                if (isinstance(target, ast.Name) and isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name) and value.value.id == "macc"):
                    modules[target.id] = value.attr
    return {
        (modules[node.args[0].id], node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("span", "count") and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer" and isinstance(node.args[0], ast.Name)
        and node.args[0].id in modules
    }


def stale_tracer_imports(module: str, source: str, layers_source: str) -> list[str]:
    """The ``# noqa`` imports of ``module`` that the tracer does not wrap there."""
    traced = traced_attributes(layers_source)
    return [name for name in kept_imports(source) if (module, name) not in traced]


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


def test_the_check_finds_a_stale_tracer_import():
    layers = ("def install_all(tracer, macc):\n"
              "    scheme, harness = macc.scheme, macc.harness\n"
              "    metrics = macc.metrics\n"
              "    tracer.span(scheme, 'rank_subset', 'combinatorics.rank_subset')\n"
              "    tracer.count(metrics, 'delivery_rate', 'metrics.delivery_rate')\n"
              "    tracer.span(harness.SplitMix64, 'bytes', 'harness.rng')\n")
    assert traced_attributes(layers) == {
        ("scheme", "rank_subset"), ("metrics", "delivery_rate")}
    source = ("from math import comb  # noqa: F401\n"
              "from .combinatorics import rank_subset  # noqa: F401\n"
              "from .metrics import delivery_rate  # noqa: F401\n"
              "from .combinatorics import binom\n")
    assert stale_tracer_imports("scheme", source, layers) == ["comb", "delivery_rate"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_kept_imports_are_wrapped_by_the_tracer(path):
    source, layers = path.read_text(encoding="utf-8"), LAYERS.read_text(encoding="utf-8")
    assert stale_tracer_imports(path.stem, source, layers) == []


def unread_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Module-level definitions that no source in ``sources`` reads, as
    "module name": each ``_name``, and each public name not in ``exported``.
    A read is a loaded name, an attribute of a name (as in ``module._name``)
    or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module} {name}" for name in names if not name.startswith("__")
                       and (name.startswith("_") or name not in exported) and name not in read]
    return sorted(unread)


def test_the_check_finds_an_unread_private_helper():
    sources = {
        "a": ("_LIMIT: int = 3\n_SHARED, _SPARE = 1, 2\n"
              "def _helper():\n    return _SHARED\n"
              "def _used():\n    return _LIMIT\n"
              "class _Unused:\n    pass\n"
              "__all__ = []\n"),
        "b": "from .a import _used\n\ndef run(a):\n    return _used() + a._SPARE\n",
    }
    assert unread_names(sources, {"run"}) == ["a _Unused", "a _helper"]


def test_the_check_finds_an_unread_public_helper():
    sources = {
        "a": ("LIMIT = 3\n"
              "def check(x):\n    return x < LIMIT\n"
              "def check_old(x):\n    return x < 3\n"
              "def exported():\n    return 1\n"),
        "b": "from .a import check\n\ndef run(x):\n    return check(x)\n",
    }
    assert unread_names(sources, {"exported", "run"}) == ["a check_old"]
    assert unread_names(sources, {"run"}) == ["a check_old", "a exported"]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_names(sources, set(macc.__all__)) == []


def cells_loads(source: str) -> list[str]:
    """Each load of ``CELLS`` in ``source``, as a name or as an attribute,
    given as "function line" with the dotted name of the enclosing function
    or class ("<module>" outside any)."""
    loads = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        named = (isinstance(node, ast.Name) and node.id == "CELLS"
                 or isinstance(node, ast.Attribute) and node.attr == "CELLS")
        if named and isinstance(node.ctx, ast.Load):
            loads.append(f"{where} {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return loads


def test_the_check_finds_a_second_cells_reader():
    source = ("CELLS = {}\n"
              "def read_block(s):\n    return CELLS[s]\n"
              "class Table:\n    def rows(self, b):\n        return b.CELLS\n"
              "SIZE = len(CELLS)\n")
    assert cells_loads(source) == ["read_block 3", "Table.rows 6", "<module> 7"]


def test_only_read_block_reads_cells():
    loads = [f"{path.stem} {where}" for path in MODULES
             for where in cells_loads(path.read_text(encoding="utf-8"))]
    assert loads and all(load.startswith("baselines read_block ") for load in loads), loads
