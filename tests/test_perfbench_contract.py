"""The benchmark still runs against this package.

``perfbench/run.py`` calls ``simulate_end_to_end``, ``build_placement``,
``generate_transmissions`` and ``decode_user`` positionally, and its traced
pass wraps named functions of ``macc.scheme`` and ``macc.harness``. A traced
smoke run of each simulate workload must exit 0 and report itself correct.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["dense-full", "partial-random"])
def test_traced_smoke_run_is_correct(workload):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--smoke", "--trace", "1", "--seconds", "0.3"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stderr
