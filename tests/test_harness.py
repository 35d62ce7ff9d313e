"""Harness pieces below the command line: the seeded generator and the sweep."""

import functools
import hashlib
import io
from decimal import ROUND_DOWN, Context, Decimal, localcontext
from fractions import Fraction

import pytest

import macc.baselines as baselines
import macc.harness as harness
from macc.baselines import (
    Scheme,
    Undefined,
    clwzc_rate,
    clwzc_subpacketization,
    hkd_rate,
    rk_lower_bound,
    rk_rate,
    spe_special_rate,
    spe_subpacketization,
    sr1_rate,
    sr1_rate_value,
    sr2_rate,
)
from macc.combinatorics import enumerate_subsets
from macc.cli import main
from macc.harness import (
    ComparisonRow,
    SplitMix64,
    SweepSpec,
    analyze_report,
    evaluate_scheme,
    make_demand,
    render_decimal,
    run_sweep,
    simulate_report,
    write_sweep_csv,
)
from macc.metrics import delivery_rate, rate_memory_curve
from macc.scheme import SchemeParams


def scalar_bytes(rng, n):
    """Reference: the byte stream as ceil(n/8) little-endian next_u64 words."""
    out = b"".join(rng.next_u64().to_bytes(8, "little") for _ in range(-(-n // 8)))
    return out[:n]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 4096])
def test_bytes_matches_next_u64_stream(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    assert fast.bytes(n) == scalar_bytes(slow, n)
    assert fast.next_u64() == slow.next_u64()
    assert fast.bytes(n + 3) == scalar_bytes(slow, n + 3)


def test_splitmix64_matches_published_outputs_for_seed_0():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("count", [1, 3, 330])
@pytest.mark.parametrize("n", [0, 7, 4096])
def test_spawned_bytes_matches_spawn_loop(count, n):
    fast, slow = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    assert fast.spawned_bytes(count, n) == [slow.spawn().bytes(n) for _ in range(count)]
    assert fast.next_u64() == slow.next_u64()


# Two small grids over every scheme with C, r = 1..8: every p/q in [0, 1]
# with q <= 8 as memory fractions, and a t list that reaches past C.
FARTHEST_DENOMINATOR = 8
MN_GRID = tuple(sorted({
    Fraction(p, q) for q in range(1, FARTHEST_DENOMINATOR + 1) for p in range(q + 1)
}))
T_GRID = tuple(Fraction(x) for x in ("0", "1/2", "1", "3/2", "2", "5/2", "3", "4", "6", "9"))
GRIDS = {"mn": MN_GRID, "t": T_GRID}


def small_spec(kind):
    return SweepSpec(
        cache_counts=tuple(range(1, 9)),
        access_degrees=tuple(range(1, 9)),
        cache_params=GRIDS[kind],
        schemes=tuple(Scheme),
        param_kind=kind,
    )


# Row counts and CSV digests as the sweep wrote them before it shared its
# grid between rows and rendered each value once; the bytes must not move.
@pytest.mark.parametrize(
    "kind, rows, sha256",
    [
        ("mn", 13248, "aa9863f63aacf0c46fdf8c482f9921fe7fde02767bf90784010bae24ee85917c"),
        ("t", 5760, "c53a1145e242247ccdf84fe3c37c23428e0e988748ebf4e8224a9cf9d4328527"),
    ],
)
def test_sweep_csv_golden_digest(kind, rows, sha256):
    swept = run_sweep(small_spec(kind))
    stream = io.StringIO()
    write_sweep_csv(swept, stream)
    assert len(swept) == rows
    assert hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest() == sha256


def test_sweep_csv_evaluates_by_block(monkeypatch):
    # The CSV is rendered from each block's cells: no row object is built,
    # and every scheme, this package's own included, computes its cells
    # with one call of its ``CELLS`` function per (scheme, C, r) block.
    rows_built = []
    original_row = harness.ComparisonRow

    def counting_row(*args, **kwargs):
        rows_built.append(args)
        return original_row(*args, **kwargs)

    # The comparison schemes check C and r at most once per block, and every
    # scheme builds its cells from integers: no Fraction is made inside a
    # block function.
    checks = []
    made = []
    built_in_cells = []
    block_calls = []
    original_check, original_new = baselines.check_counts, Fraction.__new__

    def counting_check(C, r):
        checks.append((C, r))
        return original_check(C, r)

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original_new(cls, *args, **kwargs)

    def counted(scheme, block):
        def cells(C, r, grid):
            block_calls.append((scheme, C, r))
            before = len(made)
            result = block(C, r, grid)
            built_in_cells.append(len(made) - before)
            return result
        return cells

    monkeypatch.setattr(harness, "ComparisonRow", counting_row)
    monkeypatch.setattr(baselines, "check_counts", counting_check)
    for scheme, block in baselines.CELLS.items():
        monkeypatch.setitem(baselines.CELLS, scheme, counted(scheme, block))
    spec = small_spec("mn")
    swept = run_sweep(spec)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    write_sweep_csv(swept, io.StringIO())
    comparison_blocks = (len(Scheme) - 1) * len(spec.cache_counts) * len(spec.access_degrees)
    assert len(checks) <= comparison_blocks
    assert built_in_cells and sum(built_in_cells) == 0
    assert sorted(block_calls) == sorted(
        (scheme, C, r) for scheme in Scheme for C in spec.cache_counts
        for r in spec.access_degrees if r <= C
    )
    assert rows_built == [] and made == []
    swept[0]  # the row API still builds its row and its Fractions, so both counters are live
    monkeypatch.setattr(Fraction, "__new__", original_new)
    assert len(rows_built) == 1
    assert made


class Sha256Stream:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))


def test_full_memory_fraction_sweep_csv_digest():
    # The benchmark's full sweep: every scheme, C, r = 1..16 and every p/q
    # in [0, 1] with q <= 16; digest taken before the sweep became columnar.
    memory = tuple(sorted({Fraction(p, q) for q in range(1, 17) for p in range(q + 1)}))
    spec = SweepSpec(tuple(range(1, 17)), tuple(range(1, 17)), memory, tuple(Scheme), "mn")
    swept = run_sweep(spec)
    stream = Sha256Stream()
    write_sweep_csv(swept, stream)
    assert len(swept) == 186624
    assert stream.sha.hexdigest() == (
        "882d3cb0dd166e50dc1f9c33587d05747fdbb49b51d9818338407eab61c36da8"
    )


# Digests of the verification reports as the command line printed them
# before the two ratio-table loops became one; only PASS counts are checked
# elsewhere, so these guard every other byte.
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["tables"], "9642cdfec732aaa4186c13c25261afe5372d8599016484dd6a85062bdebec125"),
        (["tables", "--json"], "e5ffd0bc1f2aa9f0e4556b69c356e2966ff3e2da8776460510153f29092b0e7d"),
        (["verify-examples"], "ff6fbd0291f050cb598ec39a3648ebf238e5f65da87ab0305fffcc3041da0785"),
        (["verify-examples", "--json"],
         "4cf2d1adf5e4b170b988244799ab57a91eaba4d9f929b5d61d2e1d7ada4cd257"),
    ],
)
def test_verification_report_golden_digest(capsys, argv, sha256):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("kind", ["mn", "t"])
def test_sweep_rows_match_evaluate_scheme(kind):
    rows = list(run_sweep(small_spec(kind)))
    for row in rows:
        assert row == evaluate_scheme(row.scheme, row.C, row.r, row.t)
        assert row.mn == row.t / row.C
    assert rows


def pointwise_rows(spec):
    """The sweep built one row at a time: the gap of an r beyond C (and t within
    C) by hand, every other row by evaluate_scheme."""
    rows = []
    for scheme in (s for s in Scheme if s in spec.schemes):
        for C in sorted(set(spec.cache_counts)):
            for r in sorted(set(spec.access_degrees)):
                for value in sorted(set(spec.cache_params)):
                    t, mn = (value, value / C) if spec.param_kind == "t" else (value * C, value)
                    if r <= C or t > C:
                        rows.append(evaluate_scheme(scheme, C, r, t))
                        continue
                    gap = Undefined(f"access degree {r} exceeds cache count {C}")
                    rows.append(ComparisonRow(scheme, C, r, t, mn, gap, gap, gap, gap, gap.reason))
    return rows


@pytest.mark.parametrize("kind", ["mn", "t"])
def test_sweep_row_api_matches_pointwise_rows(kind):
    swept = run_sweep(small_spec(kind))
    expected = pointwise_rows(small_spec(kind))
    rows = list(swept)
    assert len(swept) == len(rows) == len(expected)
    # repr also tells an int cell from an equal whole Fraction.
    assert [repr(row) for row in rows] == [repr(row) for row in expected]
    middle = len(rows) // 2 + 1
    for index in (0, -1, middle, -middle):
        assert swept[index] == rows[index]
    assert swept[middle:middle + 5] == rows[middle:middle + 5]
    with pytest.raises(IndexError):
        swept[len(rows)]


@pytest.mark.parametrize("scheme", list(Scheme), ids=[s.value for s in Scheme])
def test_cache_parameter_gap_precedes_access_degree_gap(scheme):
    # t = 5/2 is fractional and beyond C: the t gap must win over both the
    # access-degree gap and the integer-only gap.
    params = (Fraction(1), Fraction(5, 2), Fraction(3))
    spec = SweepSpec((2,), (1, 3), params, (scheme,))
    notes = {(row.r, row.t): row.note for row in run_sweep(spec)}
    for r in (1, 3):
        assert notes[(r, 3)] == "cache parameter 3 exceeds cache count 2"
        assert notes[(r, Fraction(5, 2))] == "cache parameter 5/2 exceeds cache count 2"
    assert notes[(3, 1)] == "access degree 3 exceeds cache count 2"
    row = evaluate_scheme(scheme, 2, 3, Fraction(1))
    assert row.note == notes[(3, 1)] and not row.defined
    # evaluate_scheme gives the same gap at a t beyond C as the sweep row.
    for r, t in ((1, Fraction(3)), (3, Fraction(5, 2))):
        row = evaluate_scheme(scheme, 2, r, t)
        assert row.note == notes[(r, t)] and not row.defined
    assert notes[(1, 1)] == evaluate_scheme(scheme, 2, 1, Fraction(1)).note
    if scheme is Scheme.PROPOSED:
        assert not notes[(1, 1)]


def test_sweep_refuses_negative_cache_parameter():
    spec = SweepSpec((5, 2), (3,), (Fraction(-1), Fraction(1)), (Scheme.PROPOSED,))
    with pytest.raises(ValueError, match="t must be nonnegative, got -1"):
        run_sweep(spec)


ONE = (Fraction(1),)
PROPOSED = (Scheme.PROPOSED,)
# One bad point of this package's scheme, one message, at every entry point that takes it.
BAD_POINTS = [
    ("C-0", (0, 1, 0), "cache count must be positive, got 0"),
    ("r-0", (4, 0, 1), "access degree must be positive, got 0"),
    ("r-above-C", (4, 5, 1), "access degree 5 exceeds cache count 4"),
    ("t-above-C", (4, 2, 5), r"cache parameter 5 outside 0\.\.4"),
]
SCHEME_ENTRY_POINTS = [
    ("params", lambda C, r, t: SchemeParams(C, r, t, 1)),
    ("delivery-rate", delivery_rate),
    # The curve reads t as the memory fraction t / C.
    ("curve", lambda C, r, t: rate_memory_curve(C, r, [Fraction(t, max(C, 1))])),
    ("analyze", analyze_report),
    ("simulate", simulate_report),
]
CURVE_ABOVE_ONE = r"memory fraction 5/4 outside \[0, 1\]"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evaluate_scheme(Scheme.HKD, 4, 2, Fraction(-1, 2)),
         "t must be nonnegative, got -1/2"),
        (lambda: evaluate_scheme(Scheme.HKD, 4, 0, Fraction(1)),
         "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.RK, 4, 0, Fraction(1)),
         "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.SR2, 4, 0, Fraction(1)),
         "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.PROPOSED, 0, 1, Fraction(0)),
         "cache count must be positive, got 0"),
        (lambda: SweepSpec((), (1,), ONE, PROPOSED), "at least one C, one r and one cache"),
        (lambda: SweepSpec((1,), (1,), ONE, ()), "at least one scheme"),
        (lambda: SweepSpec((1,), (1,), ONE, PROPOSED, "M"), "param_kind must be 't' or 'mn'"),
        (lambda: SweepSpec((0, 1), (1,), ONE, PROPOSED), "cache count must be positive, got 0"),
        (lambda: SweepSpec((1,), (0,), ONE, PROPOSED), "access degree must be positive, got 0"),
        (lambda: SweepSpec((1,), (1,), (Fraction(3, 2),), PROPOSED, "mn"),
         r"memory fraction 3/2 outside \[0, 1\]"),
        (lambda: make_demand(SchemeParams(4, 2, 1, 6), "random", SplitMix64(0), 0),
         r"active user count must lie in 1\.\.6, got 0"),
        (lambda: make_demand(SchemeParams(4, 2, 1, 6), "random", SplitMix64(0), 7),
         r"active user count must lie in 1\.\.6, got 7"),
        (lambda: make_demand(SchemeParams(4, 2, 1, 6), "zipf", SplitMix64(0)),
         "unknown demand mode 'zipf'"),
        (lambda: simulate_report(4, 2, 1, file_size=-1), "file size must be nonnegative, got -1"),
        (lambda: clwzc_rate(4, 2, -1), "t must be nonnegative, got -1"),
        (lambda: clwzc_subpacketization(4, 2, -1), "t must be nonnegative, got -1"),
        (lambda: sr1_rate_value(4, 2, 3), r"needs t\*r <= C, got C=4, r=2, t=3"),
        (lambda: sr1_rate_value(4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: sr1_rate_value(4, 2, -3), "t must be nonnegative, got -3"),
        (lambda: hkd_rate(4, 0, Fraction(1, 4)), "access degree must be positive, got 0"),
        (lambda: hkd_rate(4, -2, Fraction(1, 4)), "access degree must be positive, got -2"),
        (lambda: rk_rate(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: rk_lower_bound(4, 0, Fraction(0)), "access degree must be positive, got 0"),
        (lambda: spe_subpacketization(4, 0), "access degree must be positive, got 0"),
        (lambda: spe_special_rate(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: clwzc_rate(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: clwzc_subpacketization(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: clwzc_rate(4, 0, -1), "access degree must be positive, got 0"),
        (lambda: sr1_rate(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: sr1_rate(4, 0, 2), "access degree must be positive, got 0"),
        (lambda: sr1_rate_value(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: sr2_rate(4, 0, 1), "access degree must be positive, got 0"),
        (lambda: rk_rate(4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: spe_special_rate(4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: sr1_rate(4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: sr2_rate(4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: list(enumerate_subsets(3, -1)), "subset size must be nonnegative, got -1"),
        (lambda: SplitMix64(0).next_below(0), "need a positive bound, got 0"),
    ] + [
        (functools.partial(entry, *point),
         CURVE_ABOVE_ONE if (name, case) == ("curve", "t-above-C") else message)
        for name, entry in SCHEME_ENTRY_POINTS for case, point, message in BAD_POINTS
    ],
    ids=["evaluate-t-negative", "evaluate-hkd-r-0", "evaluate-rk-r-0",
         "evaluate-sr2-r-0", "evaluate-C-0", "sweep-no-C", "sweep-no-scheme",
         "sweep-param-kind", "sweep-C-0", "sweep-r-0", "sweep-mn-above-1", "demand-active-0",
         "demand-active-above-K", "demand-mode", "simulate-negative-size",
         "clwzc-rate-negative-t", "clwzc-F-negative-t", "sr1-tr-above-C",
         "sr1-value-negative-t", "sr1-value-negative-t-r-2",
         "hkd-r-0", "hkd-r-negative", "rk-r-0", "rk-lb-r-0", "spe-F-r-0", "spe-special-r-0",
         "clwzc-rate-r-0", "clwzc-F-r-0", "clwzc-rate-r-0-before-t", "sr1-r-0",
         "sr1-r-0-before-gcd", "sr1-value-r-0", "sr2-r-0", "rk-negative-t",
         "spe-special-negative-t", "sr1-negative-t", "sr2-negative-t",
         "subsets-negative-size", "next-below-0"]
    + [f"{name}-{case}" for name, _ in SCHEME_ENTRY_POINTS for case, _, _ in BAD_POINTS],
)
def test_public_entry_points_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_render_decimal_rounds_in_its_own_context():
    """12 significant digits, rounded half to even once, whatever decimal
    context the caller has set."""
    values = [Fraction(p, q) for q in range(1, 60) for p in range(-q, 3 * q + 1)]
    values += [Fraction(10 ** 30 + 7, 3), Fraction(1, 10 ** 20 + 1), Fraction(5, 8 * 10 ** 12)]
    with localcontext(Context(prec=12)):
        reference = [str(Decimal(v.numerator) / Decimal(v.denominator)) for v in values]
    assert [render_decimal(v) for v in values] == reference
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 3, ROUND_DOWN
        assert [render_decimal(v) for v in values] == reference
    assert render_decimal(Fraction(2, 3)) == "0.666666666667"
