"""The library example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    exec(compile(example, str(README), "exec"), {})
