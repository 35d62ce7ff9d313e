"""Each committed BENCH_*.json parses, records every end-to-end metric of
BENCHMARK.json for every workload it ran, and says where it was measured."""

import json
import re
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


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_records_its_machine_and_commits(path):
    # A reading means little without the host it ran on and the code it ran.
    bench = json.loads(path.read_text(encoding="utf-8"))
    machine = bench["machine"]
    assert machine["python"] and machine["numpy"], path.name
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1, path.name
    assert set(bench["sides"]) == set(bench["perfbench"]["runs"]), path.name
    for side, record in bench["sides"].items():
        assert re.fullmatch(r"[0-9a-f]{40}", record["commit"]), (path.name, side)
