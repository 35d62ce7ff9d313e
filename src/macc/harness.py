"""Drivers behind the command line: sweeps, verification, simulation, tables.

Everything here is deterministic: exact values are rendered to fixed-width
decimal (12 significant digits), CSV rows follow a fixed ordering, and all
randomness flows from one seeded splittable generator.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from typing import IO, Union

import numpy as np

from .baselines import (
    Pair,
    Scheme,
    Undefined,
    _check_t,
    check_counts,
    check_memory_fraction,
    clwzc_rate,
    clwzc_subpacketization,
    read_block,
    read_point,
    spe_special_rate,
)
from .combinatorics import binom
from .golden import (
    PROPOSED_ADVANTAGE_ROWS,
    REFERENCE_EXAMPLES,
    SPE_ADVANTAGE_ROWS,
    TABLE_RATIO_TOLERANCE,
    plain,
)
from .metrics import analyze, delivery_rate
from .metrics import rate_memory_curve  # noqa: F401  perfbench/layers.py wraps macc.harness.rate_memory_curve
from .scheme import (
    DemandAssignment,
    SchemeParams,
    accessible_fraction,
    cache_subfiles,
    generate_transmissions,
    simulate_end_to_end,
)

SIGNIFICANT_DIGITS = 12

SIMULATE_USER_CAP = 10 ** 6


def render_fraction(value: Fraction) -> str:
    """Exact rendering as p/q, denominator always spelled out ("1/1", "0/1")."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def render_decimal(value: Fraction) -> str:
    """Decimal rendering with 12 significant digits, locale-free."""
    value = Fraction(value)
    return _decimal(value.numerator, value.denominator)


# Only its precision and rounding are read; the flags it gathers are not.
_CONTEXT = Context(prec=SIGNIFICANT_DIGITS)


def _decimal(p: int, q: int) -> str:
    """p/q to 12 significant digits: the quotient is rounded once, so p/q
    need not be in lowest terms. The module's own context does the rounding,
    whatever decimal context the caller has set."""
    return str(_CONTEXT.divide(p, q))


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", an integer, or a decimal literal into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


class SplitMix64:
    """Splittable 64-bit generator (the splitmix64 sequence).

    State advances by the 64-bit golden-gamma constant; outputs are the
    standard finalizer of the state. ``spawn`` derives an independent child
    stream seeded by the next output, so a parent seed reproducibly fans out
    into any number of streams.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-enough draw in [0, n): plain modulo, documented bias accepted."""
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        return self.next_u64() % n

    def spawn(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def bytes(self, n: int) -> bytes:
        """The next ceil(n/8) outputs as little-endian words, cut to n bytes."""
        return b"".join(self.next_u64().to_bytes(8, "little") for _ in range(-(-n // 8)))[:n]

    def spawned_bytes(self, count: int, n: int) -> list[bytes]:
        """``[self.spawn().bytes(n) for _ in range(count)]`` in array passes.

        Child i is seeded by this stream's i-th next output, so its words are
        the outputs of seed_i + gamma * (1..k): a (count, k) array, computed
        in blocks of rows of about 64 KiB. Larger blocks raised the peak
        memory of runs with large files (the freed block temporaries leave
        holes in the heap that later allocations do not fit).
        """
        k = -(-n // 8)
        steps = np.uint64(self._GAMMA) * np.arange(1, max(count, k) + 1, dtype=np.uint64)
        seeds = _splitmix_outputs(np.uint64(self._state) + steps[:count])
        self._state = (self._state + count * self._GAMMA) & self._MASK
        block = max(1, (1 << 13) // max(k, 1))
        out = []
        for first in range(0, count, block):
            words = _splitmix_outputs(seeds[first:first + block, None] + steps[:k])
            out += [row[:n].tobytes() for row in words.astype("<u8", copy=False).view(np.uint8)]
        return out


def _splitmix_outputs(z):
    """The splitmix64 output of each state in a uint64 array, computed in place."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


CellValue = Union[Fraction, int, Undefined]


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One scheme at one parameter point, exact values plus a status note."""

    scheme: Scheme
    C: int
    r: int
    t: Fraction
    mn: Fraction
    num_users: CellValue
    rate: CellValue
    per_user_rate: CellValue
    subpacketization: CellValue
    note: str = ""

    @property
    def defined(self) -> bool:
        return not isinstance(self.num_users, Undefined)


CSV_HEADER = ["scheme", "C", "r", "t", "mn", "K", "rate", "per_user_rate", "F", "defined", "note"]


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a comparison sweep.

    ``cache_params`` is interpreted per ``param_kind``: cache parameter
    values t directly, or memory fractions M/N converted to t = C * mn per
    cache count.
    """

    cache_counts: tuple[int, ...]
    access_degrees: tuple[int, ...]
    cache_params: tuple[Fraction, ...]
    schemes: tuple[Scheme, ...]
    param_kind: str = "t"

    def __post_init__(self) -> None:
        if not self.cache_counts or not self.access_degrees or not self.cache_params:
            raise ValueError("sweep needs at least one C, one r and one cache parameter")
        if not self.schemes:
            raise ValueError("sweep needs at least one scheme")
        if self.param_kind not in ("t", "mn"):
            raise ValueError(f"param_kind must be 't' or 'mn', got {self.param_kind!r}")
        check_counts(min(self.cache_counts), min(self.access_degrees))
        if self.param_kind == "mn":
            for mn in self.cache_params:
                check_memory_fraction(mn)


def _point_row(scheme: Scheme, C: int, r: int, point: Pair) -> ComparisonRow:
    """The row of one scheme at the point t = p/q; the per-user rate is rate / K."""
    cells = read_point(scheme, C, r, point)
    t, mn = Fraction(*point), Fraction(point[0], point[1] * C)
    if isinstance(cells, Undefined):
        return ComparisonRow(scheme, C, r, t, mn, cells, cells, cells, cells, note=cells.reason)
    K, rate, F, note = cells
    if isinstance(rate, Undefined):
        return ComparisonRow(scheme, C, r, t, mn, K, rate, rate, F, note)
    rate = Fraction(*rate)
    return ComparisonRow(scheme, C, r, t, mn, K, rate, rate / K, F, note)


def evaluate_scheme(scheme: Scheme, C: int, r: int, t: Fraction) -> ComparisonRow:
    """One comparison row; parameter points a scheme lacks come back undefined,
    a t beyond C among them, as in the sweep.

    The memory fraction is t / C and the per-user rate rate / K.
    """
    check_counts(C, r)
    t = Fraction(t)
    _check_t(t)
    return _point_row(scheme, C, r, (t.numerator, t.denominator))


class SweepRows(Sequence[ComparisonRow]):
    """The rows of a sweep, read-only, in order (scheme, C, r, t).

    They are held as one (scheme, C, r, grid) tuple per block and computed
    when read, so none is kept. Every grid has the same number of points, so
    row i is row i % width of block i // width.
    """

    def __init__(self, blocks: list[tuple[Scheme, int, int, list[Pair]]], width: int) -> None:
        self._blocks = blocks
        self._width = width

    def __len__(self) -> int:
        return len(self._blocks) * self._width

    def __getitem__(self, index: Union[int, slice]):
        position = range(len(self))[index]
        if isinstance(position, range):
            return [self[i] for i in position]
        number, i = divmod(position, self._width)
        scheme, C, r, grid = self._blocks[number]
        return _point_row(scheme, C, r, grid[i])


def run_sweep(spec: SweepSpec) -> SweepRows:
    """All grid rows in deterministic order (scheme, C, r, t).

    The grid of each C, the pair (p, q) of each t = p/q in lowest terms, is
    built here; a negative t (only a t grid can hold one) is refused once,
    with ``evaluate_scheme``'s error. ``read_block`` computes the rows when
    they are written or read.
    """
    scheme_order = {s: i for i, s in enumerate(Scheme)}
    values = sorted({Fraction(p) for p in spec.cache_params})
    _check_t(values[0])
    access_degrees = sorted(set(spec.access_degrees))
    t_grid = spec.param_kind == "t"
    grids = {
        C: [(t.numerator, t.denominator) for t in (values if t_grid else [v * C for v in values])]
        for C in sorted(set(spec.cache_counts))
    }
    blocks = [
        (scheme, C, r, grid)
        for scheme in sorted(set(spec.schemes), key=scheme_order.__getitem__)
        for C, grid in grids.items()
        for r in access_degrees
    ]
    return SweepRows(blocks, len(values))


def write_sweep_csv(sweep: SweepRows, stream: IO[str]) -> None:
    """What ``run_sweep`` returned as CSV, one ``stream.write`` per block.

    Each block's cells are computed, rendered and dropped before the next;
    no ``ComparisonRow`` is built, and every value is rendered from its
    integers. Cells: empty for an undefined value, the integer for an int
    or a whole rate, otherwise 12 significant digits. The mn column always
    takes the 12-digit form. Each piece is rendered once per call: each
    distinct rate, the (t, mn) columns of each C, and the "defined,note"
    tail of each distinct note, quoted by ``csv.writer``. A block that is
    one gap is written as one join over its C's (t, mn) columns.
    """
    heads: dict[int, list[str]] = {}
    buffer = io.StringIO()
    quoter = csv.writer(buffer, lineterminator="\n")

    @functools.cache
    def ratio(p: int, q: int) -> str:
        return str(p) if q == 1 else _decimal(p, q)

    @functools.cache
    def tail(defined: bool, note: str) -> str:
        buffer.seek(0)
        buffer.truncate()
        quoter.writerow(("true" if defined else "false", note))
        return buffer.getvalue()

    stream.write(",".join(CSV_HEADER) + "\n")
    for scheme, C, r, grid in sweep._blocks:
        head = heads.get(C)
        if head is None:
            head = heads[C] = [f"{ratio(p, q)},{_decimal(p, q * C)}," for p, q in grid]
        prefix = f"{scheme.value},{C},{r},"
        cells = read_block(scheme, C, r, grid)
        if isinstance(cells, Undefined):
            end = ",,,," + tail(False, cells.reason)
            stream.write(prefix + (end + prefix).join(head) + end)
            continue
        lines = []
        for point, cell in zip(head, cells):
            if isinstance(cell, Undefined):
                lines.append(f"{prefix}{point},,,,{tail(False, cell.reason)}")
                continue
            K, rate, F, note = cell
            if isinstance(rate, Undefined):
                rate_text = per_user = ""
            else:
                # rate / K without a Fraction: rate is in lowest terms, so
                # only K can share a factor with its numerator.
                p, q = rate
                common = math.gcd(p, K)
                rate_text, per_user = ratio(p, q), ratio(p // common, q * (K // common))
            lines.append(
                f"{prefix}{point}{K},{rate_text},{per_user},"
                f"{'' if isinstance(F, Undefined) else F},{tail(True, note)}"
            )
        stream.write("".join(lines))


def verify_reference_cases() -> tuple[bool, list[str]]:
    """Regenerate the frozen worked examples and compare transmission lists.

    The generator must match the frozen rule output exactly. Differences
    between that output and the original listings (term permutations, the
    known misprint) are reported as notes, not failures.
    """
    ok = True
    lines = []
    for example in REFERENCE_EXAMPLES:
        demand = DemandAssignment.from_request_vector(example.params, example.requests)
        generated = plain(generate_transmissions(example.params, demand))
        if generated != example.expected:
            ok = False
            lines.append(f"FAIL {example.label}: generated transmissions diverge from reference")
            for got, want in zip(generated, example.expected):
                if got != want:
                    lines.append(f"  coded set {want[0]}: expected {want[1]}, got {got[1]}")
            if len(generated) != len(example.expected):
                lines.append(
                    f"  expected {len(example.expected)} transmissions, got {len(generated)}"
                )
            continue
        lines.append(
            f"PASS {example.label}: {len(generated)} transmission(s) match the frozen reference"
        )
        for (coded_set, expected_terms), (_, listed_terms) in zip(
            example.expected, example.as_listed
        ):
            if expected_terms == listed_terms:
                continue
            if sorted(expected_terms) == sorted(listed_terms):
                lines.append(
                    f"  note: original listing permutes the XOR terms of {coded_set}; "
                    "same message either way"
                )
            else:
                wrong = [t for t in listed_terms if t not in expected_terms]
                right = [t for t in expected_terms if t not in listed_terms]
                lines.append(
                    f"  note: original listing of {coded_set} misprints {wrong}; "
                    f"the delivery rule gives {right}"
                )
    return ok, lines


def run_tables() -> tuple[bool, list[str]]:
    """Recompute both published ratio tables and the t=1 column comparison.

    Each table divides the losing per-user rate by the winning one.
    """
    ok = True
    lines = []
    for label, heading, rows, proposed_wins in (
        ("table-1", "ratio table 1: points where the r*t = C-1 competitor wins",
         SPE_ADVANTAGE_ROWS, False),
        ("table-2", "ratio table 2: points where this scheme wins", PROPOSED_ADVANTAGE_ROWS, True),
    ):
        lines.append(heading)
        for C, r, t, published in rows:
            competitor = spe_special_rate(C, r, t)
            if isinstance(competitor, Undefined):
                ok = False
                lines.append(f"FAIL {label} C={C} r={r} t={t}: {competitor.reason}")
                continue
            proposed_pu = delivery_rate(C, r, t) / binom(C, r)
            ratio = proposed_pu / (competitor / C)
            if proposed_wins:
                ratio = 1 / ratio
            delta = abs(float(ratio) - published)
            good = delta <= TABLE_RATIO_TOLERANCE
            ok &= good
            lines.append(
                f"{'PASS' if good else 'FAIL'} {label} C={C} r={r} t={t}: computed "
                f"{float(ratio):.6f} published {published} delta {delta:.6f}"
            )

    lines.append("column comparison at t=1, r=C-2 (cyclic competitor vs this scheme)")
    column_ok = True
    for C in range(4, 41):
        r = C - 2
        params = SchemeParams(C, r, 1, 1)
        checks = [
            binom(C, 1) == C,
            clwzc_subpacketization(C, r, 1) == 3 * C,
            delivery_rate(C, r, 1) == 1,
            clwzc_rate(C, r, 1) == 1,
            binom(C, r) == C * (C - 1) // 2,
            accessible_fraction(params) == Fraction(C - 2, C),
            Fraction(r, C) == Fraction(C - 2, C),
        ]
        if not all(checks):
            column_ok = False
            lines.append(f"FAIL column comparison at C={C}: {checks}")
    if column_ok:
        lines.append(
            "PASS C=4..40: F = C here vs 3C there, both rates exactly 1, "
            "K = C(C-1)/2 here vs C there, equal M/N = 1/C and equal access fraction (C-2)/C"
        )
    ok &= column_ok
    return ok, lines


def make_demand(
    params: SchemeParams,
    mode: str,
    rng: SplitMix64,
    active_count: Union[int, None] = None,
) -> DemandAssignment:
    """Build a demand assignment for a simulation run.

    ``distinct`` deals a seeded permutation of the file indices, one per
    user; ``random`` draws files independently and allows repeats.
    ``active_count`` keeps only a seeded choice of that many users.
    """
    N = params.num_files
    users = list(params.users())
    if active_count is not None:
        if not 0 < active_count <= len(users):
            raise ValueError(
                f"active user count must lie in 1..{len(users)}, got {active_count}"
            )
        rng.shuffle(users)
        users = sorted(users[:active_count])
    if mode == "distinct":
        if N < len(users):
            raise ValueError(
                f"distinct demands need N >= {len(users)} files, got N = {N}"
            )
        deck = list(range(1, N + 1))
        rng.shuffle(deck)
        return DemandAssignment(dict(zip(users, deck)))
    if mode == "random":
        return DemandAssignment({u: 1 + rng.next_below(N) for u in users})
    raise ValueError(f"unknown demand mode {mode!r}")


def simulate_report(
    C: int,
    r: int,
    t: int,
    N: Union[int, None] = None,
    file_size: int = 64,
    seed: int = 0,
    demand_mode: str = "distinct",
    active: Union[int, None] = None,
    force: bool = False,
) -> dict:
    """Seeded end-to-end run: placement, delivery, byte decode, rate check.

    Raises RuntimeError if any user's bytes mismatch (a construction bug)
    and ValueError for unusable parameters or an over-cap population.
    """
    K_full = SchemeParams(C, r, t, 1).num_users
    if K_full > SIMULATE_USER_CAP and not force:
        raise ValueError(
            f"binom({C},{r}) = {K_full} users exceeds the simulation cap of "
            f"{SIMULATE_USER_CAP}; pass force to run anyway"
        )
    if N is None:
        N = K_full if active is None else min(K_full, max(active, 1))
    params = SchemeParams(C, r, t, N)
    if file_size < 0:
        raise ValueError(f"file size must be nonnegative, got {file_size}")

    rng = SplitMix64(seed)
    demand_rng = rng.spawn()
    payloads = rng.spawned_bytes(N, file_size)
    strict = demand_mode != "random"
    demand = make_demand(params, demand_mode, demand_rng, active)

    outputs = simulate_end_to_end(params, payloads, demand, strict=strict)
    mismatched = [
        user
        for user, got in outputs.items()
        if got != payloads[demand.entries[user] - 1]
    ]
    if mismatched:
        raise RuntimeError(f"byte mismatch for users {mismatched}")

    F = params.subpacketization
    measured = Fraction(outputs.messages, F)
    analytic = delivery_rate(C, r, t)
    full_population = len(demand.entries) == K_full
    if full_population and measured != analytic:
        raise RuntimeError(
            f"measured rate {render_fraction(measured)} differs from analytic rate "
            f"{render_fraction(analytic)}"
        )
    return {
        "params": _params_record(params),
        "seed": seed,
        "demand_mode": demand_mode,
        "file_size": file_size,
        "active_users": len(demand.entries),
        "population": K_full,
        "decoded_ok": len(outputs),
        "transmissions": outputs.messages,
        "subpacketization": F,
        "measured_rate": render_fraction(measured),
        "analytic_rate": render_fraction(analytic),
        "rates_equal": measured == analytic,
    }


def _params_record(params: SchemeParams) -> dict:
    return {"C": params.num_caches, "r": params.access_degree, "t": params.cache_param,
            "N": params.num_files}


def _subfile_token(file_index: int, index_set: Sequence[int]) -> str:
    labels = ",".join(str(x) for x in index_set)
    return f"{file_index}:{{{labels}}}"


def scheme_dump(
    params: SchemeParams, demand: DemandAssignment, strict: bool = True
) -> dict:
    """One concrete instance as a JSON-ready dict.

    Cache k lists its ``cache_subfiles`` as "file:{labels}" strings, in
    (file, index set) order; transmissions keep delivery and term order.
    """
    transmissions = generate_transmissions(params, demand, strict)
    return {
        "params": _params_record(params),
        "demand": {
            ",".join(str(x) for x in user): file_index
            for user, file_index in sorted(demand.entries.items())
        },
        "caches": {
            str(k): [_subfile_token(*s) for s in subfiles]
            for k, subfiles in cache_subfiles(params).items()
        },
        "transmissions": [
            {
                "set": list(tx.coded_set),
                "terms": [_subfile_token(*term) for term in tx.terms],
            }
            for tx in transmissions
        ],
    }


def analyze_report(C: int, r: int, t: int, N: Union[int, None] = None) -> dict:
    """The analytic summary as a JSON-ready dict, rationals as p/q + decimal.

    The library size N defaults to the number of users, binom(C, r).
    """
    if N is None:
        N = SchemeParams(C, r, t, 1).num_users
    params = SchemeParams(C, r, t, N)
    report = analyze(params)

    def rational(x: Fraction) -> dict:
        return {"exact": render_fraction(x), "decimal": render_decimal(x)}

    return {
        "params": _params_record(params),
        "num_users": report.num_users,
        "subpacketization": report.subpacketization,
        "coding_gain": report.coding_gain,
        "rate": rational(report.rate),
        "per_user_rate": rational(report.per_user_rate),
        "accessible_fraction": rational(report.accessible_fraction),
        "cache_fraction": rational(report.cache_fraction),
    }
