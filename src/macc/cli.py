"""Command line front end.

Subcommands: analyze, simulate, sweep, verify-examples, tables.
Exit codes: 0 success, 1 usage error or unwritable stdout, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Sequence, Union

from .baselines import Scheme, check_memory_fraction
from .harness import (
    SweepSpec,
    analyze_report,
    parse_fraction,
    run_sweep,
    run_tables,
    simulate_report,
    verify_reference_cases,
    write_sweep_csv,
)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of the default 2, a failed
    write of help to standard output is not ignored, and a negative list
    such as "-1,0,1" or "-1/2,0" is read as a value, not as an option."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[-\d.,/]*$")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops an OSError from the write; main reports it and exits 1.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from exc


def _fraction(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part.strip()]


def _scheme_list(text: str) -> list[Scheme]:
    out = []
    for part in text.split(","):
        name = part.strip().lower()
        if not name:
            continue
        try:
            out.append(Scheme(name))
        except ValueError as exc:
            valid = ", ".join(s.value for s in Scheme)
            raise argparse.ArgumentTypeError(
                f"unknown scheme {part.strip()!r}; valid: {valid}"
            ) from exc
    return out


def _integer_t(C: int, t: Union[int, None], mn: Union[Fraction, None], parser_error) -> int:
    if t is not None:
        return t
    scaled = check_memory_fraction(mn) * C
    if scaled.denominator != 1:
        parser_error(
            f"--mn {mn} gives non-integer cache parameter {scaled}; "
            "memory-sharing points are available through `sweep`"
        )
    return int(scaled)


def _cmd_analyze(args: argparse.Namespace) -> int:
    t = _integer_t(args.caches, args.t, args.mn, args.parser.error)
    print(json.dumps(analyze_report(args.caches, args.access, t, args.files), indent=2))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    t = _integer_t(args.caches, args.t, args.mn, args.parser.error)
    report = simulate_report(
        C=args.caches,
        r=args.access,
        t=t,
        N=args.files,
        file_size=args.file_size,
        seed=args.seed,
        demand_mode=args.demand_mode,
        active=args.active,
        force=args.force,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    elif report["rates_equal"]:
        print(
            f"{report['decoded_ok']} users decoded OK, "
            f"measured rate = analytic rate = {report['measured_rate']}"
        )
    else:
        print(
            f"{report['decoded_ok']} users decoded OK, "
            f"measured rate {report['measured_rate']} below analytic rate "
            f"{report['analytic_rate']} (partial population)"
        )
    return 0


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device.

    After a failed write the stream still holds unwritten output, and the
    interpreter flushes it again at exit, which would fail once more and
    print "Exception ignored". A stream with no file descriptor is left
    as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _cmd_sweep(args: argparse.Namespace) -> int:
    kind = "t" if args.t is not None else "mn"
    params = tuple(Fraction(v) for v in args.t) if kind == "t" else tuple(args.mn)
    rows = run_sweep(SweepSpec(cache_counts=tuple(args.caches), access_degrees=tuple(args.access),
                               cache_params=params, schemes=tuple(args.schemes), param_kind=kind))
    if args.out is None:
        write_sweep_csv(rows, sys.stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                write_sweep_csv(rows, handle)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    ok, lines = args.check()
    if args.json:
        print(json.dumps({"ok": ok, "lines": lines}, indent=2))
    else:
        for line in lines:
            print(line)
        print("RESULT: " + ("all checks passed" if ok else "checks FAILED"))
    return 0 if ok else 2


def _add_point_flags(sub: argparse.ArgumentParser, lists: bool = False) -> None:
    point = sub.add_mutually_exclusive_group(required=True)
    if lists:
        sub.add_argument("--caches", "-C", type=_int_list, required=True,
                         help="comma list of cache counts")
        sub.add_argument("--access", "-r", type=_int_list, required=True,
                         help="comma list of access degrees")
        point.add_argument("--t", type=_int_list, help="comma list of integer cache parameters")
        point.add_argument("--mn", type=_fraction_list,
                           help="comma list of memory fractions M/N (p/q or decimal)")
    else:
        sub.add_argument("--caches", "-C", type=int, required=True, help="number of caches")
        sub.add_argument("--access", "-r", type=int, required=True,
                         help="caches each user reads")
        point.add_argument("--t", type=int, help="integer cache parameter t")
        point.add_argument("--mn", type=_fraction,
                           help="memory fraction M/N; must give integer t = C*M/N")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="macc",
        description="Multi-access coded caching: exact metrics, byte-level "
        "simulation, and analytic comparisons.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="closed-form metrics at one point")
    _add_point_flags(analyze)
    analyze.add_argument("--files", "-N", type=int, default=None,
                         help="library size (default: number of users)")
    analyze.set_defaults(func=_cmd_analyze)

    simulate = subparsers.add_parser("simulate", help="seeded byte-level end-to-end run")
    _add_point_flags(simulate)
    simulate.add_argument("--files", "-N", type=int, default=None,
                          help="library size (default: number of active users)")
    simulate.add_argument("--file-size", type=int, default=64, help="bytes per file")
    simulate.add_argument("--seed", type=int, default=0, help="root seed")
    simulate.add_argument("--demand-mode", choices=("distinct", "random"), default="distinct")
    simulate.add_argument("--active", type=int, default=None,
                          help="simulate only this many (seeded) active users")
    simulate.add_argument("--force", action="store_true",
                          help="run past the use-at-most-1e6-users guardrail")
    simulate.add_argument("--json", action="store_true", help="machine-readable report")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = subparsers.add_parser("sweep", help="comparison grid as CSV")
    _add_point_flags(sweep, lists=True)
    sweep.add_argument("--schemes", type=_scheme_list,
                       default=list(Scheme), help="comma list (default: all)")
    sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    verify = subparsers.add_parser("verify-examples",
                                   help="regenerate the frozen reference cases")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    verify.set_defaults(func=_cmd_check, check=verify_reference_cases)

    tables = subparsers.add_parser("tables", help="recompute the published ratio tables")
    tables.add_argument("--json", action="store_true", help="machine-readable report")
    tables.set_defaults(func=_cmd_check, check=run_tables)

    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            args.parser = parser
            return args.func(args)
        finally:
            sys.stdout.flush()  # a write error surfaces here at the latest
    except OSError as exc:
        _discard_stdout()
        print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
