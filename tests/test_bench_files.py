"""Each committed BENCH_*.json parses and records every end-to-end metric of
BENCHMARK.json for every workload it ran."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_every_end_to_end_metric(path):
    # perfbench.runs maps each measured side (a commit) to its workloads, and
    # each workload to the two JSON lines perfbench/run.py printed.
    runs = json.loads(path.read_text(encoding="utf-8"))["perfbench"]["runs"]
    assert runs
    for side, workloads in runs.items():
        assert set(workloads) == WORKLOADS, side
        for name, run in workloads.items():
            assert END_TO_END <= set(run["result"]["metrics"]), (side, name)
