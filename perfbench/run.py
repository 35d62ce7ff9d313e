"""Layered benchmark for the `macc` package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-full --seed 0 --seconds 30 --trace 0

One process runs one workload as a closed loop: a single caller issues the
next operation only after the previous one returned, single-threaded. Every
operation's output is checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries the details (sample counts, per-seed counts,
machine). ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. ``--smoke`` runs every workload at a tiny size. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Union

from layers import Tracer, byte_counts, install_all

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
REFERENCE_KERNEL_S = 0.020


@dataclass(frozen=True)
class Sim:
    """``simulate_report(C, r, t, ...)`` with seed-derived payloads."""

    C: int
    r: int
    t: int
    file_size: int
    active: Union[int, None] = None
    demand_mode: str = "distinct"

    @property
    def full_population(self) -> bool:
        return self.active is None


@dataclass(frozen=True)
class Sweep:
    """Every scheme over C, r = 1..max_C and every p/q in [0, 1] with q <= max_q.

    ``csv_sha256`` and ``rows`` are the CSV digest and row count produced by
    the reference implementation.
    """

    max_C: int
    max_q: int
    rows: int
    csv_sha256: str


# name -> (full size, smoke size)
WORKLOADS = {
    "dense-full": (
        Sim(11, 4, 4, 4096),
        Sim(6, 2, 2, 256),
    ),
    "wide-bulk": (
        Sim(16, 2, 3, 65536),
        Sim(7, 1, 2, 4096),
    ),
    "partial-random": (
        Sim(14, 3, 4, 4096, active=60, demand_mode="random"),
        Sim(7, 2, 2, 256, active=8, demand_mode="random"),
    ),
    "sweep-mn": (
        Sweep(16, 16, 186624, "882d3cb0dd166e50dc1f9c33587d05747fdbb49b51d9818338407eab61c36da8"),
        Sweep(4, 4, 9 * 4 * 4 * 7, "c67e135d364e92734792d6fe4130177ed39be77b24dcf57f8ba766df6d7a6977"),
    ),
}


def load_macc():
    """Import `macc` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "macc" / "__init__.py").is_file():
        raise SystemExit(f"error: no macc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import macc
    import macc.harness  # noqa: F401

    if SRC.resolve() not in Path(macc.__file__).resolve().parents:
        raise SystemExit(f"error: imported macc from {macc.__file__}, not from {SRC}")
    return macc


def build_inputs(macc, workload):
    """Everything an operation needs besides its seed."""
    if isinstance(workload, Sweep):
        memory = sorted({Fraction(p, q) for q in range(1, workload.max_q + 1) for p in range(q + 1)})
        return macc.harness.SweepSpec(
            cache_counts=tuple(range(1, workload.max_C + 1)),
            access_degrees=tuple(range(1, workload.max_C + 1)),
            cache_params=tuple(memory),
            schemes=tuple(macc.Scheme),
            param_kind="mn",
        )
    return dict(
        C=workload.C, r=workload.r, t=workload.t, file_size=workload.file_size,
        active=workload.active, demand_mode=workload.demand_mode,
    )


class Capture:
    """Keeps the arguments and result of the last ``simulate_end_to_end`` call.

    The benchmark compares each decoded file with the payload it was made
    from, independently of the comparison ``simulate_report`` makes itself.
    """

    def __init__(self, harness) -> None:
        self.harness = harness
        self.original = harness.simulate_end_to_end
        self.last = None

    def __enter__(self) -> "Capture":
        def capture(params, payloads, demand, strict=True):
            outputs = self.original(params, payloads, demand, strict)
            self.last = (params, payloads, demand, strict, outputs)
            return outputs

        self.harness.simulate_end_to_end = capture
        return self

    def __exit__(self, *exc) -> None:
        self.harness.simulate_end_to_end = self.original


def sim_op(macc, workload: Sim, inputs: dict, seed: int, capture: Capture) -> dict:
    capture.last = None
    return macc.harness.simulate_report(seed=seed, **inputs)


def check_sim(workload: Sim, report: dict, capture: Capture) -> tuple[list[str], int]:
    """Problems with one simulate operation, and the users verified."""
    problems = []
    expected_active = comb(workload.C, workload.r) if workload.full_population else workload.active
    if report["active_users"] != expected_active:
        problems.append(f"active_users {report['active_users']} != {expected_active}")
    if report["decoded_ok"] != report["active_users"]:
        problems.append(f"decoded_ok {report['decoded_ok']} != active_users {report['active_users']}")
    messages = comb(workload.C, workload.t + workload.r)
    if workload.full_population:
        rate = Fraction(messages, comb(workload.C, workload.t))
        if report["rates_equal"] is not True:
            problems.append("rates_equal is not true on a full population")
        if report["transmissions"] != messages:
            problems.append(f"transmissions {report['transmissions']} != binom(C, t+r) = {messages}")
        if report["measured_rate"] != f"{rate.numerator}/{rate.denominator}":
            problems.append(f"measured_rate {report['measured_rate']} != {rate}")
    elif not 0 < report["transmissions"] <= messages:
        problems.append(f"transmissions {report['transmissions']} outside 1..{messages}")
    verified = 0
    if capture.last is None:
        problems.append("simulate_end_to_end was not called, so no bytes were checked")
    else:
        _, payloads, demand, _, outputs = capture.last
        if set(outputs) != set(demand.entries):
            problems.append("decoded users differ from the active users")
        else:
            for user, got in outputs.items():
                if got == payloads[demand.entries[user] - 1]:
                    verified += 1
                else:
                    problems.append(f"user {user} decoded wrong bytes")
    return problems, verified


def sweep_op(macc, workload: Sweep, spec, seed: int, capture) -> dict:
    harness = macc.harness
    rows = harness.run_sweep(spec)
    stream = io.StringIO()
    harness.write_sweep_csv(rows, stream)
    verify_ok, _ = harness.verify_reference_cases()
    tables_ok, _ = harness.run_tables()
    data = stream.getvalue().encode("utf-8")
    return {
        "rows": len(rows), "csv_bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
        "verify_ok": verify_ok, "tables_ok": tables_ok,
    }


def check_sweep(workload: Sweep, result: dict, capture) -> tuple[list[str], int]:
    problems = []
    if result["rows"] != workload.rows:
        problems.append(f"{result['rows']} rows, expected {workload.rows}")
    if result["sha256"] != workload.csv_sha256:
        problems.append(f"CSV digest {result['sha256']} != {workload.csv_sha256}")
    if result["verify_ok"] is not True:
        problems.append("verify_reference_cases did not return ok")
    if result["tables_ok"] is not True:
        problems.append("run_tables did not return ok")
    return problems, result["rows"]


def speed_kernel() -> int:
    """Fixed pure-Python arithmetic that measures the host's current speed.

    It allocates nothing that outlives an iteration, so its time does not
    depend on what the operations left on the heap.
    """
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) & 0xFFFF
    return x


def host_scale() -> float:
    """Reference time of the speed kernel over its time now (median of three).

    A shared host runs all work up to 1.7x slower for seconds to minutes at
    a time. A time multiplied by the scale measured next to it is in
    seconds at the reference speed, so runs made in slow and fast spells
    compare. The kernel uses no `macc` code, so changes to `macc` still show.
    """
    times = []
    for _ in range(3):
        began = perf_counter()
        speed_kernel()
        times.append(perf_counter() - began)
    return REFERENCE_KERNEL_S / statistics.median(times)


def gc_collections() -> int:
    return sum(stats["collections"] for stats in gc.get_stats())


@dataclass
class Sample:
    seed: int
    seconds: float  # wall time
    scale: float  # mean of host_scale() just before and just after the op
    ok: bool
    items: int
    gc: int
    result: Union[dict, None]


def run_ops(macc, workload, inputs, seed: int, first_index: int, seconds: float,
            capture, on_op=None) -> list[Sample]:
    """Closed loop for about ``seconds``: at least one op, and no op started
    that the median op time says would end after the deadline. The host
    speed is measured between ops, outside their intervals."""
    op, check = (sweep_op, check_sweep) if isinstance(workload, Sweep) else (sim_op, check_sim)
    samples: list[Sample] = []
    start = perf_counter()
    scale = host_scale()
    while True:
        op_seed = seed * 1_000_000 + first_index + len(samples)
        gc.collect()
        collections = gc_collections()
        began = perf_counter()
        try:
            result = op(macc, workload, inputs, op_seed, capture)
        except Exception:  # any failure of the program counts against the op
            result = None
            print(f"op seed {op_seed} failed:\n{traceback.format_exc()}", file=sys.stderr)
        elapsed = perf_counter() - began
        collected = gc_collections() - collections
        problems, items = check(workload, result, capture) if result else (["raised"], 0)
        for problem in problems:
            print(f"op seed {op_seed}: {problem}", file=sys.stderr)
        after = host_scale()
        samples.append(Sample(op_seed, elapsed, (scale + after) / 2, not problems, items, collected,
                              result))
        scale = after
        if on_op is not None:
            on_op(samples[-1])
        typical = statistics.median(s.seconds for s in samples)
        if perf_counter() - start + typical > seconds:
            return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it, never below p50.

    Returns (value, percentile, samples above). A run of 20 or fewer ops
    resolves no percentile above the median, so it reports the median.
    """
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return statistics.median(ordered), 50.0, len(ordered) // 2
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def setup_seconds(workload_name: str, smoke: bool) -> list[tuple[float, float]]:
    """Fresh interpreter to inputs built, timed from outside, several times.

    Returns (wall seconds, host scale) per probe. The probe measures the
    scale itself once it is ready, because it may run on another processor
    than this process.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload_name] + (["--smoke"] if smoke else [])
    out = []
    for _ in range(SETUP_SAMPLES):
        began = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE) as probe:
            ready = probe.stdout.readline()
            wall = perf_counter() - began
            scale = probe.stdout.read()
        if probe.returncode != 0 or ready != b"ready\n":
            raise SystemExit(f"error: setup probe exited with {probe.returncode}")
        out.append((wall, float(scale)))
    return out


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def end_to_end(samples: list[Sample], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics, with every time at the reference host speed."""
    times = [s.seconds * s.scale for s in samples]
    value, percentile, above = tail(times)
    rates = [s.items / t if s.ok else 0.0 for s, t in zip(samples, times)]
    failed = sum(not s.ok for s in samples)
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (value, "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(wall * scale for wall, scale in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - failed / len(samples), "ratio"),
    }
    details = {
        "ops": len(samples), "op_seconds": times, "op_wall_seconds": [s.seconds for s in samples],
        "host_scales": [s.scale for s in samples],
        "wall_p50": statistics.median(s.seconds for s in samples),
        "tail_percentile": percentile, "tail_samples_above": above, "error_rate": failed / len(samples),
        "setup_samples": setup, "gc_collections": [s.gc for s in samples],
    }
    return metrics, details


def layer_metrics(tracer: Tracer, workload, macc, result: dict) -> dict:
    """Per-layer values of one traced op."""
    sec, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    values = {
        "harness.rng.s": sec["harness.rng"],
        "harness.rng.bytes": counts["harness.rng.bytes"],
        "harness.report.self_s": tracer.self_seconds["harness.report"],
        "scheme.placement.s": sec["scheme.placement"],
        "scheme.placement.entries": counts["scheme.placement.entries"],
        "scheme.delivery.s": sec["scheme.delivery"],
        "scheme.delivery.calls": calls["scheme.delivery"],
        "scheme.simulate.s": sec["scheme.simulate"],
        "scheme.simulate.self_s": tracer.self_seconds["scheme.simulate"],
        "combinatorics.rank_subset.calls": calls["combinatorics.rank_subset"],
        "combinatorics.rank_subset.s": sec["combinatorics.rank_subset"],
        "metrics.rate_memory_curve.s": sec["metrics.rate_memory_curve"],
        "metrics.rate_memory_curve.calls": calls["metrics.rate_memory_curve"],
        "metrics.delivery_rate.calls": calls["metrics.delivery_rate"],
        "harness.sweep.s": sec["harness.sweep"],
        "harness.sweep.rows": counts["harness.sweep.rows"],
        "harness.csv.s": sec["harness.csv"],
        "harness.csv.bytes": result.get("csv_bytes", 0) if result else 0,
        "harness.verify.s": sec["harness.verify"],
    }
    for scheme in macc.Scheme:
        values[f"harness.evaluate.{scheme.value}.s"] = sec[f"harness.evaluate.{scheme.value}"]
    if isinstance(workload, Sim):
        F = comb(workload.C, workload.t)
        accessible = F - comb(workload.C - workload.r, workload.t)
        active = result["active_users"] if result else 0
        values.update(byte_counts(counts, workload.file_size, F, accessible, active))
    else:
        values.update(byte_counts(counts, 0, 1, 0, 0))
    return values


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".slot_fill"):
        return "ratio"
    if name.endswith(".bytes") or ".bytes." in name:
        return "bytes"
    return "count"


def decode_pass(macc, workload: Sim, capture: Capture) -> tuple[float, list[str]]:
    """``decode_user`` for every active user on the last op's inputs."""
    scheme = macc.scheme
    params, _, demand, strict, _ = capture.last
    caches = scheme.build_placement(params)
    transmissions = scheme.generate_transmissions(params, demand, strict)
    missing = comb(workload.C - workload.r, workload.t)
    problems = []
    began = perf_counter()
    for user in demand.active_users():
        recovered = scheme.decode_user(params, user, demand, transmissions, caches)
        if len(recovered) != missing:
            problems.append(f"decode_user recovered {len(recovered)} subfiles for {user}, expected {missing}")
    return perf_counter() - began, problems


def traced_run(macc, workload, inputs, seed: int, seconds: float, capture):
    """Untraced ops, then traced ops, then the decode pass (simulate only).

    Layer times are wall seconds, not scaled: they are compared with each
    other within one run."""
    plain = run_ops(macc, workload, inputs, seed, 0, seconds / 2, capture)
    per_op: list[dict] = []
    with Tracer() as tracer:
        install_all(tracer, macc)

        def snapshot(sample: Sample) -> None:
            per_op.append(layer_metrics(tracer, workload, macc, sample.result))
            tracer.reset()

        tracer.reset()
        traced = run_ops(macc, workload, inputs, seed, len(plain), seconds / 2, capture, snapshot)
    samples = plain + traced
    problems = []
    decode_s = 0.0
    if isinstance(workload, Sim) and capture.last is not None:
        decode_s, problems = decode_pass(macc, workload, capture)
    counts = {name: [op[name] for op in per_op] for name in per_op[0] if layer_unit(name) != "s"}
    if not isinstance(workload, Sim) or workload.full_population:
        for name, seen in counts.items():
            if len(set(seen)) != 1:
                problems.append(f"count {name} differs across ops: {seen}")
    for problem in problems:
        print(f"trace: {problem}", file=sys.stderr)
    values = {}
    for name in per_op[0]:
        middle = statistics.median_low if name in counts else statistics.median
        values[name] = middle([op[name] for op in per_op])
    values["scheme.decode_user.s"] = decode_s
    values["runtime.gc_collections"] = statistics.median_low(s.gc for s in plain)
    values["trace.overhead_s"] = (statistics.median(s.seconds * s.scale for s in traced)
                                  - statistics.median(s.seconds * s.scale for s in plain))
    metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
    details = {"ops_untraced": len(plain), "ops_traced": len(traced),
               "counts_per_seed": {str(s.seed): {n: v[i] for n, v in counts.items()}
                                   for i, s in enumerate(traced)}}
    return samples, metrics, details, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload][1 if args.smoke else 0]
    macc = load_macc()
    inputs = build_inputs(macc, workload)
    if args.setup_probe:
        print("ready", flush=True)
    for _ in range(3):  # the first calls run before the interpreter specializes them
        speed_kernel()
    if args.setup_probe:
        print(host_scale())  # on the probe's own processor
        return 0
    with Capture(macc.harness) as capture:
        if args.trace:
            samples, metrics, details, problems = traced_run(
                macc, workload, inputs, args.seed, args.seconds, capture)
        else:
            samples = run_ops(macc, workload, inputs, args.seed, 0, args.seconds, capture)
            metrics, details = end_to_end(samples, setup_seconds(args.workload, args.smoke))
            problems = []
    failed = sum(not s.ok for s in samples)
    details.update(workload=args.workload, seed=args.seed, smoke=args.smoke, trace=args.trace,
                   op_seeds=[s.seed for s in samples], machine=machine())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
