"""The benchmark still runs against this package.

``perfbench/run.py`` calls ``simulate_end_to_end``, ``build_placement``,
``generate_transmissions`` and ``decode_user`` positionally, and its traced
pass wraps named functions of ``macc.scheme``, ``macc.harness`` and
``macc.metrics``. A traced smoke run of each workload in BENCHMARK.json must
exit 0 and report itself correct.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_is_correct(workload):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--smoke", "--trace", "1", "--seconds", "0.3"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stderr
