"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_run.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FULL_POPULATION = ("dense-full", "wide-bulk", "sweep-mn")


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def result(workload: str, trace: int, seed: int = 0) -> dict:
    done = run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = out["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0


@pytest.mark.parametrize("workload", FULL_POPULATION)
def test_counts_repeat_across_seeds(workload):
    counts = []
    for seed in (1, 2):
        metrics = result(workload, 1, seed)["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if m["unit"] != "s" and name != "runtime.gc_collections"})
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
