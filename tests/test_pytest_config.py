"""The repository's pytest settings report a failing property test like any other."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # Turning every warning into an error must not turn the warning that
    # hypothesis's report hook raises on a failure into an internal error.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")},
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "PASSED test_property.py::test_after" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
