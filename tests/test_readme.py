"""The library example in README.md runs as written, and every call the
README names exists."""

import importlib
import re
from pathlib import Path

import macc

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [macc] + [
    importlib.import_module(f"macc.{path.stem}")
    for path in sorted(Path(macc.__file__).parent.glob("*.py")) if path.stem != "__init__"
]


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    exec(compile(example, str(README), "exec"), {})


def resolves(name: str) -> bool:
    """Whether the dotted ``name`` is an attribute path of ``macc`` or of one of its modules."""
    for module in MODULES:
        value = module
        for part in name.split("."):
            value = getattr(value, part, None)
            if value is None:
                break
        else:
            return True
    return False


def test_readme_names_only_calls_that_exist():
    """Each backticked call in README.md, `name(` or `Class.method(`, names
    something the package has, so the prose cannot name a deleted API."""
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text(encoding="utf-8")))
    assert names
    assert sorted(name for name in names if not resolves(name)) == []
