"""End-to-end checks of the command line: exit codes, JSON shapes, CSV bytes."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import macc
import macc.cli as cli
import macc.baselines as baselines
import macc.harness as harness
from macc.baselines import Scheme, Undefined, read_block
from macc.cli import main
from macc.scheme import Transmission

# Child interpreters import the same macc as this test, with or without PYTHONPATH.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(macc.__file__)), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_basic_point(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "-C", "4", "-r", "2", "--t", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"C": 4, "r": 2, "t": 1, "N": 6}
    assert report["num_users"] == 6
    assert report["subpacketization"] == 4
    assert report["coding_gain"] == 3
    assert report["rate"] == {"exact": "1/1", "decimal": "1"}
    assert report["per_user_rate"]["exact"] == "1/6"
    assert report["accessible_fraction"] == {"exact": "1/2", "decimal": "0.5"}
    assert report["cache_fraction"] == {"exact": "1/4", "decimal": "0.25"}


def test_analyze_larger_point_and_files_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["analyze", "-C", "5", "-r", "3", "--t", "2", "--files", "10"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["num_users"] == 10
    assert report["subpacketization"] == 10
    assert report["coding_gain"] == 10
    assert report["rate"]["exact"] == "1/10"


def test_analyze_zero_rate_when_no_transmissions_needed(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "-C", "4", "-r", "2", "--t", "3"])
    assert code == 0
    assert json.loads(out)["rate"]["exact"] == "0/1"


def test_analyze_accepts_mn_decimal(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "-C", "4", "-r", "2", "--mn", "0.25"])
    assert code == 0
    assert json.loads(out)["params"]["t"] == 1


def test_analyze_and_simulate_accept_no_caching(capsys):
    # t = 0: every user gets its whole file uncoded, rate binom(C, r).
    code, out, _ = run_cli(capsys, ["analyze", "-C", "5", "-r", "2", "--mn", "0"])
    assert code == 0
    assert json.loads(out)["rate"]["exact"] == "10/1"
    code, out, _ = run_cli(capsys, ["simulate", "-C", "5", "-r", "2", "--t", "0"])
    assert code == 0
    assert out == "10 users decoded OK, measured rate = analytic rate = 10/1\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze", "-C", "4", "-r", "2"],
        ["analyze", "-C", "4", "-r", "2", "--t", "1", "--mn", "1/4"],
        ["analyze", "-C", "4", "-r", "2", "--mn", "3/8"],
        ["analyze", "-r", "2", "--t", "1"],
        ["analyze", "-C", "4", "-r", "2", "--mn", "nonsense"],
        ["sweep", "-C", "4", "-r", "2", "--t", "1", "--schemes", "bogus"],
        ["sweep", "-C", "a", "-r", "2", "--t", "1"],
        ["sweep", "-C", "4", "-r", "2", "--mn", "nonsense"],
        ["no-such-command"],
        ["sweep", "-C", "4", "-r", "2", "--t", "1", "--mn", "1/4"],
        ["sweep", "-C", "4", "-r", "2"],
        ["simulate", "-C", "4", "-r", "2"],
        ["simulate", "-C", "4", "-r", "2", "--t", "1", "--demand-mode", "worst"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1


def test_invalid_parameters_exit_1(capsys):
    code, _, err = run_cli(capsys, ["analyze", "-C", "4", "-r", "5", "--t", "1"])
    assert code == 1
    assert "error" in err
    code, _, _ = run_cli(capsys, ["sweep", "-C", "4", "-r", "2", "--t=-1"])
    assert code == 1
    for command in ("analyze", "simulate"):
        code, _, err = run_cli(capsys, [command, "-C", "-1", "-r", "1", "--t", "0"])
        assert (code, err) == (1, "error: cache count must be positive, got -1\n")
    # One message for one mistake, whichever command reads it.
    for command in ("analyze", "simulate", "sweep"):
        code, _, err = run_cli(capsys, [command, "-C", "0", "-r", "1", "--t", "0"])
        assert (code, err) == (1, "error: cache count must be positive, got 0\n")


@pytest.mark.parametrize(
    "flag, err",
    [
        (["--t", "-1,0,1"], "error: t must be nonnegative, got -1\n"),
        (["--t", "-1"], "error: t must be nonnegative, got -1\n"),
        (["--t=-1,0,1"], "error: t must be nonnegative, got -1\n"),
        (["--mn", "-1/2,0"], "error: memory fraction -1/2 outside [0, 1]\n"),
        (["--mn", "-.5,0"], "error: memory fraction -1/2 outside [0, 1]\n"),
    ],
)
def test_negative_lists_reach_the_sweep_refusal(capsys, flag, err):
    # A list that starts with a minus sign is the flag's value, not an option.
    assert run_cli(capsys, ["sweep", "-C", "3", "-r", "1", *flag]) == (1, "", err)


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
@pytest.mark.parametrize("mn", ["abc", "1/0"])
def test_unparsable_memory_fraction_is_named(capsys, command, mn):
    code, out, err = run_cli(capsys, [command, "-C", "4", "-r", "2", "--mn", mn])
    assert (code, out) == (1, "")
    message = f"argument --mn: not a rational number: {mn!r}"
    assert err.endswith(f"macc {command}: error: {message}\n")


@pytest.mark.parametrize(
    "argv, err",
    [(["analyze", "-C", "4", "-r", "2", "--mn", "3/2"], "error: memory fraction 3/2 outside [0, 1]\n"),
     (["simulate", "-C", "4", "-r", "2", "--mn", "-1/2"],
      "error: memory fraction -1/2 outside [0, 1]\n")],
    ids=["analyze-3/2", "simulate--1/2"],
)
def test_point_memory_fraction_outside_unit_interval_exits_1(capsys, argv, err):
    # The M/N rule of sweep and of every formula, not the range of t.
    assert run_cli(capsys, argv) == (1, "", err)


def test_help_exits_0(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["simulate", "--help"])[0] == 0


def test_simulate_text_line_full_population(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "-C", "4", "-r", "2", "--t", "1"])
    assert code == 0
    assert out == "6 users decoded OK, measured rate = analytic rate = 1/1\n"


def test_simulate_json_report(capsys):
    argv = ["simulate", "-C", "4", "-r", "2", "--t", "1", "--seed", "7", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"C": 4, "r": 2, "t": 1, "N": 6}
    assert report["seed"] == 7
    assert report["decoded_ok"] == 6
    assert report["active_users"] == 6
    assert report["population"] == 6
    assert report["transmissions"] == 4
    assert report["subpacketization"] == 4
    assert report["measured_rate"] == "1/1"
    assert report["analytic_rate"] == "1/1"
    assert report["rates_equal"] is True

    code, again, _ = run_cli(capsys, argv)
    assert code == 0
    assert again == out


def test_simulate_single_active_user_reports_partial_population(capsys):
    argv = ["simulate", "-C", "4", "-r", "2", "--t", "1", "--active", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == (
        "1 users decoded OK, measured rate 1/2 below analytic rate 1/1 "
        "(partial population)\n"
    )


def test_simulate_degenerate_point_sends_nothing(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "-C", "4", "-r", "4", "--t", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["transmissions"] == 0
    assert report["measured_rate"] == "0/1"
    assert report["decoded_ok"] == 1


def test_simulate_population_guardrail(capsys):
    code, _, err = run_cli(capsys, ["simulate", "-C", "40", "-r", "20", "--t", "1"])
    assert code == 1
    assert "exceeds the simulation cap" in err


def test_simulate_force_runs_past_the_cap(capsys, monkeypatch):
    # (4, 2, 1) has binom(4, 2) = 6 users, one above the lowered cap.
    monkeypatch.setattr(harness, "SIMULATE_USER_CAP", 5)
    argv = ["simulate", "-C", "4", "-r", "2", "--t", "1"]
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert "exceeds the simulation cap" in err
    code, out, _ = run_cli(capsys, argv + ["--force"])
    assert code == 0
    assert out.startswith("6 users decoded OK")


def test_simulate_distinct_needs_enough_files(capsys):
    argv = ["simulate", "-C", "4", "-r", "2", "--t", "1", "--files", "3"]
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert "distinct demands" in err


def test_sweep_stdout_rows(capsys):
    argv = ["sweep", "-C", "4", "-r", "2", "--t", "1", "--schemes", "proposed,hkd"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scheme,C,r,t,mn,K,rate,per_user_rate,F,defined,note"
    assert lines[1] == "proposed,4,2,1,0.25,6,1,0.166666666667,4,true,"
    assert lines[2] == "hkd,4,2,1,0.25,4,1,0.25,4,true,"
    assert len(lines) == 3


def test_sweep_memory_sharing_row(capsys):
    argv = ["sweep", "-C", "5", "-r", "2", "--mn", "0.3", "--schemes", "proposed"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    row = out.splitlines()[1]
    assert row == (
        "proposed,5,2,1.5,0.3,10,1.25,0.125,,true,"
        "memory sharing between adjacent integer cache parameters"
    )


def test_sweep_to_file_is_byte_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["sweep", "-C", "4,5", "-r", "2", "--t", "1,2", "--out"]
    code, out, err = run_cli(capsys, argv + [str(first)])
    assert code == 0
    assert out == ""
    assert "wrote 36 rows" in err
    assert run_cli(capsys, argv + [str(second)])[0] == 0
    payload = first.read_bytes()
    assert payload == second.read_bytes()
    lines = payload.decode().split("\n")
    assert len(lines) == 38 and lines[-1] == ""
    # 9 schemes x 2 cache counts x 1 access degree x 2 parameters.
    parsed = list(csv.reader(io.StringIO(payload.decode())))
    assert len(parsed) == 37
    assert all(len(fields) == 11 for fields in parsed)


@pytest.mark.parametrize("mn", ["2", "-1", "1.01"])
def test_sweep_memory_fraction_outside_unit_interval_exits_1(capsys, mn):
    argv = ["sweep", "-C", "4", "-r", "2", f"--mn={mn}", "--schemes", "proposed"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "outside [0, 1]" in err


def test_sweep_metric_flag_is_gone(capsys):
    argv = ["sweep", "-C", "4", "-r", "2", "--t", "1", "--metric", "rate"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --metric" in err


def test_sweep_empty_scheme_list_exits_1(capsys):
    code, _, err = run_cli(capsys, ["sweep", "-C", "4", "-r", "2", "--t", "1",
                                    "--schemes", ""])
    assert code == 1


def test_sweep_unwritable_path_exits_1(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "rows.csv"
    code, _, err = run_cli(capsys, ["sweep", "-C", "4", "-r", "2", "--t", "1",
                                    "--out", str(bad)])
    assert code == 1
    assert "cannot write" in err


class FullStream(io.StringIO):
    """A stdout whose writes fail like a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


# One small run of each subcommand that writes to standard output.
SUBCOMMANDS = {
    "analyze": ["analyze", "-C", "4", "-r", "2", "--t", "1"],
    "simulate": ["simulate", "-C", "4", "-r", "2", "--t", "1", "--json"],
    "sweep": ["sweep", "-C", "4", "-r", "2", "--t", "1"],
    "verify-examples": ["verify-examples"],
    "tables": ["tables"],
}


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_stdout_write_error_exits_1(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStream())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: cannot write to standard output: [Errno 28] No space left on device\n"


def cli_process(*argv):
    return [sys.executable, "-m", "macc.cli", *argv]


# Standard output buffered as it is by default, so that output still
# buffered after a failed write would fail again when the interpreter
# flushes it at exit.
BUFFERED_ENV = {name: value for name, value in CHILD_ENV.items() if name != "PYTHONUNBUFFERED"}


def test_sweep_stdout_reader_closing_early_exits_1():
    # About 1 MB of CSV, far more than a pipe buffers, so writes go on
    # after the reader has closed its end.
    argv = cli_process("sweep", "-C", ",".join(map(str, range(1, 17))),
                       "-r", ",".join(map(str, range(1, 17))),
                       "--mn", ",".join(f"{p}/8" for p in range(9)))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=BUFFERED_ENV)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert header == b"scheme,C,r,t,mn,K,rate,per_user_rate,F,defined,note\n"
    assert err == "error: cannot write to standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_stdout_reader_gone_exits_1(argv):
    # The reader closes its end before the run starts, as `| head -0` may;
    # output small enough to sit in the buffer fails when it is flushed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(cli_process(*argv), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=BUFFERED_ENV)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write to standard output: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_stdout_on_full_device_exits_1(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cli_process(*argv), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=BUFFERED_ENV)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write to standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_help_on_full_device_exits_1():
    # argparse ignores the failed write; the buffered help fails when flushed.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cli_process("--help"), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=BUFFERED_ENV)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write to standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("argv, env", [
    (["--help"], {**CHILD_ENV, "PYTHONUNBUFFERED": "1"}),
    (["sweep", "--help"], BUFFERED_ENV),
    (["sweep", "--help"], {**CHILD_ENV, "PYTHONUNBUFFERED": "1"}),
], ids=["main-unbuffered", "subcommand-buffered", "subcommand-unbuffered"])
def test_any_help_on_full_device_exits_1(argv, env):
    # Unbuffered, the write itself fails, and argparse would ignore that.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cli_process(*argv), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write to standard output: [Errno 28] No space left on device\n"


def test_verify_examples_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify-examples"])
    assert code == 0
    assert out.rstrip().endswith("RESULT: all checks passed")
    assert out.count("PASS") == 3
    assert out.count("permutes the XOR terms") == 2
    assert out.count("misprints") == 1


def test_verify_examples_json(capsys):
    code, out, _ = run_cli(capsys, ["verify-examples", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert sum("PASS" in line for line in report["lines"]) == 3


def test_tables_pass(capsys):
    code, out, _ = run_cli(capsys, ["tables"])
    assert code == 0
    assert "FAIL" not in out
    # 32 + 21 ratio rows plus the column-comparison summary line.
    assert out.count("PASS") == 54
    assert "published 1.25" in out


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, ["tables", "--json"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verification_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_reference_cases",
                        lambda: (False, ["FAIL case x: diverged"]))
    code, out, _ = run_cli(capsys, ["verify-examples"])
    assert code == 2
    assert "RESULT: checks FAILED" in out


def test_runtime_error_maps_to_exit_2(capsys, monkeypatch):
    def boom():
        raise RuntimeError("tables went sideways")

    monkeypatch.setattr(cli, "run_tables", boom)
    code, _, err = run_cli(capsys, ["tables"])
    assert code == 2
    assert "verification failure: tables went sideways" in err


def test_rate_mismatch_reports_both_rates_as_p_over_q(capsys, monkeypatch):
    monkeypatch.setattr(harness, "delivery_rate", lambda C, r, t: Fraction(1, 7))
    code, _, err = run_cli(capsys, ["simulate", "-C", "4", "-r", "2", "--t", "1"])
    assert (code, err) == (
        2, "verification failure: measured rate 1/1 differs from analytic rate 1/7\n")


def test_verify_examples_reports_diverging_transmissions(capsys, monkeypatch):
    generate = harness.generate_transmissions

    def reverse_first_drop_last(params, demand, strict=True):
        txs = generate(params, demand, strict)
        txs[0] = Transmission(txs[0].coded_set, txs[0].terms[::-1])
        return txs[:-1]

    monkeypatch.setattr(harness, "generate_transmissions", reverse_first_drop_last)
    code, out, _ = run_cli(capsys, ["verify-examples"])
    assert code == 2
    assert out.splitlines()[:3] == [
        "FAIL case 1 (C=4, r=2, t=1): generated transmissions diverge from reference",
        "  coded set (1, 2, 3): expected ((1, (3,)), (2, (2,)), (4, (1,))), "
        "got ((4, (1,)), (2, (2,)), (1, (3,)))",
        "  expected 4 transmissions, got 3",
    ]
    assert out.endswith("RESULT: checks FAILED\n")


CLWZC_CELLS, PROPOSED_CELLS = baselines.CELLS[Scheme.CLWZC], baselines.CELLS[Scheme.PROPOSED]


@pytest.mark.parametrize(
    "patch, line",
    [
        (lambda mp: mp.setattr(harness, "read_block", lambda scheme, C, r, grid: (
            Undefined("patched") if scheme is Scheme.SPE else read_block(scheme, C, r, grid))),
         "FAIL table-1 C=5 r=2 t=2: patched"),
        (lambda mp: mp.setattr(harness, "accessible_fraction", lambda params: 0),
         "FAIL column comparison at C=4: [True, True, True, True, True, False, True]"),
        # The cyclic competitor serves one user too many.
        (lambda mp: mp.setitem(baselines.CELLS, Scheme.CLWZC, lambda C, r, grid: [
            (C + 1, *cell[1:]) for cell in CLWZC_CELLS(C, r, grid)]),
         "FAIL column comparison at C=4: [True, True, True, True, True, True, False]"),
        # This scheme splits each file into one subfile too many (``tables``
        # reads it only at integer t, where F is a count).
        (lambda mp: mp.setitem(baselines.CELLS, Scheme.PROPOSED, lambda C, r, grid: [
            (K, rate, F + 1, note) for K, rate, F, note in PROPOSED_CELLS(C, r, grid)]),
         "FAIL column comparison at C=4: [False, True, True, True, True, True, True]"),
    ],
    ids=["undefined-competitor", "column-comparison", "clwzc-K-plus-1", "proposed-F-plus-1"],
)
def test_tables_report_failed_checks(capsys, monkeypatch, patch, line):
    patch(monkeypatch)
    code, out, _ = run_cli(capsys, ["tables"])
    assert code == 2
    assert line in out.splitlines()
    assert out.endswith("RESULT: checks FAILED\n")


def test_console_entry_point_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "macc.cli", "verify-examples"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "RESULT: all checks passed" in proc.stdout


def test_scheme_dump_shape():
    from macc import DemandAssignment, SchemeParams, scheme_dump

    params = SchemeParams(num_caches=4, access_degree=2, cache_param=1, num_files=6)
    users = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    demand = DemandAssignment({u: i for i, u in enumerate(users, start=1)})
    dump = scheme_dump(params, demand)

    assert dump["params"] == {"C": 4, "r": 2, "t": 1, "N": 6}
    assert dump["demand"] == {"1,2": 1, "1,3": 2, "1,4": 3,
                              "2,3": 4, "2,4": 5, "3,4": 6}
    # Each cache stores every file's subfile indexed by its own label.
    assert sorted(dump["caches"]) == ["1", "2", "3", "4"]
    assert dump["caches"]["1"] == [f"{i}:{{1}}" for i in range(1, 7)]
    # Four coded messages, three terms each, in delivery order.
    assert [tx["set"] for tx in dump["transmissions"]] == [
        [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    assert dump["transmissions"][0]["terms"] == ["1:{3}", "2:{2}", "4:{1}"]
    assert all(len(tx["terms"]) == 3 for tx in dump["transmissions"])
    # The dict must be directly serializable.
    json.dumps(dump)
