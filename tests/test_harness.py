"""Harness pieces below the command line: the seeded generator and the sweep."""

import functools
import hashlib
import io
import re
from decimal import ROUND_DOWN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import macc.baselines as baselines
import macc.harness as harness
from macc.baselines import Scheme, Undefined
from macc.combinatorics import binom, enumerate_subsets
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
from macc.scheme import (
    DemandAssignment,
    SchemeParams,
    generate_transmissions,
    simulate_end_to_end,
)
from sweep_csv import csv_line, sweep_lines


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


@pytest.mark.parametrize("count", [-1, 1, 3, 330])
@pytest.mark.parametrize("n", [0, 7, 4096])
def test_spawned_bytes_matches_spawn_loop(count, n):
    # A negative count is refused, and the stream stays where the loop leaves it.
    fast, slow = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    expected = [slow.spawn().bytes(n) for _ in range(count)]
    if count < 0:
        with pytest.raises(ValueError, match="nonnegative count"):
            fast.spawned_bytes(count, n)
    else:
        assert fast.spawned_bytes(count, n) == expected
    assert fast.next_u64() == slow.next_u64()


def scalar_shuffle(rng, items):
    """Reference: Fisher-Yates one ``next_below`` draw at a time."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


@given(seed=st.integers(0, 2**64 - 1))
def test_shuffle_matches_scalar_fisher_yates(seed):
    for n in range(65):
        fast, slow = SplitMix64(seed + n), SplitMix64(seed + n)
        deck, reference = list(range(n)), list(range(n))
        fast.shuffle(deck)
        scalar_shuffle(slow, reference)
        assert deck == reference
        assert [fast.next_u64() for _ in range(2)] == [slow.next_u64() for _ in range(2)]


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 2**64), count=st.integers(-64, 64))
def test_draws_match_next_below_loop(seed, n, count):
    # A negative count is refused, and the stream stays where the loop leaves it.
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    expected = [slow.next_below(n) for _ in range(count)]
    if count < 0:
        with pytest.raises(ValueError, match="nonnegative count"):
            fast.draws(n, count)
    else:
        assert fast.draws(n, count) == expected
    assert [fast.next_u64() for _ in range(2)] == [slow.next_u64() for _ in range(2)]


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

    # The comparison blocks do not check C and r again, and every
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
    assert checks == []
    assert built_in_cells and sum(built_in_cells) == 0
    assert sorted(block_calls) == sorted(
        (scheme, C, r) for scheme in Scheme for C in spec.cache_counts
        for r in spec.access_degrees if r <= C
    )
    assert rows_built == [] and made == []
    evaluate_scheme(Scheme.PROPOSED, 1, 1, 0)  # a row builds its Fractions, so both counters are live
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
        (["tables"], "2903f83dc2ff07083a90b56724991d219f557cdb0ea10b4ae7a418560cd90bf2"),
        (["tables", "--json"], "fc25ef290b3e18d681c850c5ff001a4e9c94f61b319e2c5155badb98364c210e"),
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
    # Each line of the CSV is its point's row written out, so a block read
    # agrees with a point read whatever the pinned digests are.
    lines = sweep_lines(small_spec(kind))
    assert len(lines) == len(run_sweep(small_spec(kind)))
    for key, line in lines.items():
        assert line == csv_line(evaluate_scheme(*key)), key


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
    # The sweep's API is its length and the CSV it writes: the lines, in the
    # order written, are the rows built one point at a time.
    swept = run_sweep(small_spec(kind))
    expected = pointwise_rows(small_spec(kind))
    lines = list(sweep_lines(small_spec(kind)).values())
    assert len(swept) == len(lines) == len(expected)
    assert lines == [csv_line(row) for row in expected]


@pytest.mark.parametrize("scheme", list(Scheme), ids=[s.value for s in Scheme])
def test_cache_parameter_gap_precedes_access_degree_gap(scheme):
    # t = 5/2 is fractional and beyond C: the t gap must win over both the
    # access-degree gap and the integer-only gap.
    params = (Fraction(1), Fraction(5, 2), Fraction(3))
    rows = {}
    for (_, C, r, t), line in sweep_lines(SweepSpec((2,), (1, 3), params, (scheme,))).items():
        rows[(r, t)] = evaluate_scheme(scheme, C, r, t)
        assert line == csv_line(rows[(r, t)]), (r, t)
    for r in (1, 3):
        assert rows[(r, 3)].note == "cache parameter 3 exceeds cache count 2"
        assert rows[(r, Fraction(5, 2))].note == "cache parameter 5/2 exceeds cache count 2"
    assert rows[(3, 1)].note == "access degree 3 exceeds cache count 2"
    # Each gap is a row without values, in the sweep as from evaluate_scheme.
    for key in ((3, 1), (1, 3), (3, Fraction(5, 2))):
        assert not rows[key].defined
    if scheme is Scheme.PROPOSED:
        assert not rows[(1, 1)].note


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
# binom(67, 33) > 2**63 - 1: refused before the chunk matrix is asked for.
PAST_INT64, ONE_USER = SchemeParams(67, 1, 33, 1), DemandAssignment({(1,): 1})
RANKS_PAST_INT64 = re.escape("binom(67, 33) = 14226520737620288370 exceeds 2**63 - 1, "
                             "the largest subset rank the byte simulation holds")


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
        (lambda: evaluate_scheme(Scheme.CLWZC, 4, 2, -1), "t must be nonnegative, got -1"),
        (lambda: evaluate_scheme(Scheme.SR1, 4, 2, -3), "t must be nonnegative, got -3"),
        (lambda: evaluate_scheme(Scheme.HKD, 4, -2, 1), "access degree must be positive, got -2"),
        (lambda: evaluate_scheme(Scheme.RK_LB, 4, 0, 0), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.SPE, 4, 0, 2), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.SPE, 4, 0, 1), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.CLWZC, 4, 0, 1), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.CLWZC, 4, 0, -1), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.SR1, 4, 0, 1), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.SR1, 4, 0, 2), "access degree must be positive, got 0"),
        (lambda: evaluate_scheme(Scheme.RK, 4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: evaluate_scheme(Scheme.SPE, 4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: evaluate_scheme(Scheme.SR1, 4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: evaluate_scheme(Scheme.SR2, 4, 1, -1), "t must be nonnegative, got -1"),
        (lambda: evaluate_scheme(Scheme.PROPOSED, 2.5, 1, 0),
         "cache count must be an integer, got 2.5"),
        (lambda: evaluate_scheme(Scheme.CLWZC, 4, 1.5, 1),
         "access degree must be an integer, got 1.5"),
        (lambda: evaluate_scheme(Scheme.SPE, 4, 2.5, 2),
         "access degree must be an integer, got 2.5"),
        (lambda: SweepSpec((2, 3.5), (1,), ONE, PROPOSED),
         "cache count must be an integer, got 3.5"),
        (lambda: SweepSpec((4,), (1, 1.5), ONE, PROPOSED),
         "access degree must be an integer, got 1.5"),
        (lambda: SweepSpec((4, 2), (1,), ONE, PROPOSED + ("nope",)),
         "'nope' is not a valid Scheme"),
        (lambda: evaluate_scheme("nope", 4, 2, 1), "'nope' is not a valid Scheme"),
        (lambda: list(enumerate_subsets(3, -1)), "subset size must be nonnegative, got -1"),
        (lambda: SplitMix64(0).next_below(0), "need a positive bound, got 0"),
        (lambda: SplitMix64(0).draws(0, 3), "need a positive bound, got 0"),
        (lambda: simulate_report(67, 1, 33), RANKS_PAST_INT64),
        (lambda: simulate_end_to_end(PAST_INT64, [b""], ONE_USER), RANKS_PAST_INT64),
        (lambda: generate_transmissions(PAST_INT64, ONE_USER), RANKS_PAST_INT64),
    ] + [
        (functools.partial(entry, *point),
         CURVE_ABOVE_ONE if (name, case) == ("curve", "t-above-C") else message)
        for name, entry in SCHEME_ENTRY_POINTS for case, point, message in BAD_POINTS
    ],
    ids=["evaluate-t-negative", "evaluate-hkd-r-0", "evaluate-rk-r-0",
         "evaluate-sr2-r-0", "evaluate-C-0", "sweep-no-C", "sweep-no-scheme",
         "sweep-param-kind", "sweep-C-0", "sweep-r-0", "sweep-mn-above-1", "demand-active-0",
         "demand-active-above-K", "demand-mode", "simulate-negative-size",
         "evaluate-clwzc-negative-t", "evaluate-sr1-negative-t-r-2",
         "evaluate-hkd-r-negative", "evaluate-rk-lb-r-0", "evaluate-spe-r-0-t-2",
         "evaluate-spe-r-0", "evaluate-clwzc-r-0", "evaluate-clwzc-r-0-before-t",
         "evaluate-sr1-r-0", "evaluate-sr1-r-0-before-gcd", "evaluate-rk-negative-t",
         "evaluate-spe-negative-t", "evaluate-sr1-negative-t", "evaluate-sr2-negative-t",
         "evaluate-C-non-integer", "evaluate-r-non-integer", "evaluate-spe-r-non-integer",
         "sweep-C-non-integer", "sweep-r-non-integer", "sweep-unknown-scheme",
         "evaluate-unknown-scheme", "subsets-negative-size", "next-below-0", "draws-0",
         "simulate-ranks-past-int64", "end-to-end-ranks-past-int64",
         "transmissions-ranks-past-int64"]
    + [f"{name}-{case}" for name, _ in SCHEME_ENTRY_POINTS for case, _, _ in BAD_POINTS],
)
def test_public_entry_points_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sr1_tr_above_C_is_a_gap():
    """SR1's rule t*r <= C is one gap with one wording, in its row as in the sweep."""
    gap = Undefined("requires t*r <= C, got t*r = 6, C = 4")
    row = evaluate_scheme(Scheme.SR1, 4, 2, 3)
    assert (row.rate, row.note) == (gap, gap.reason)
    (line,) = sweep_lines(SweepSpec((4,), (2,), (Fraction(3),), (Scheme.SR1,))).values()
    assert line == csv_line(row)


def test_scheme_names_are_taken_as_their_members():
    """A scheme given by its value reads as its ``Scheme`` member, in a row
    and in a sweep, which then writes the same CSV."""
    row = evaluate_scheme("hkd", 4, 2, 1)
    assert row.scheme is Scheme.HKD and row == evaluate_scheme(Scheme.HKD, 4, 2, 1)
    spec = SweepSpec((4, 6), (2,), (Fraction(0), Fraction(1)), ("sr1", "hkd"))
    assert spec.schemes == (Scheme.SR1, Scheme.HKD)
    assert all(type(scheme) is Scheme for scheme in spec.schemes)
    by_name, by_member = io.StringIO(), io.StringIO()
    write_sweep_csv(run_sweep(spec), by_name)
    write_sweep_csv(run_sweep(SweepSpec((4, 6), (2,), spec.cache_params,
                                        (Scheme.SR1, Scheme.HKD))), by_member)
    assert by_name.getvalue() == by_member.getvalue()


@pytest.mark.parametrize("C, r, t, size", [(70, 1, 68, 64), (100, 2, 97, 8), (300, 1, 299, 1)])
def test_simulate_report_byte_exact_where_rank_tables_saturate(C, r, t, size):
    # rank_weights(C, t + r) holds entries past 2**63 - 1 here, at places no
    # (t + r)-subset has; simulate_report raises on any byte mismatch.
    report = simulate_report(C, r, t, file_size=size)
    assert report["decoded_ok"] == report["active_users"] == binom(C, r)
    assert report["transmissions"] == binom(C, t + r)
    assert report["rates_equal"] is True


@pytest.mark.parametrize(
    "kwargs, message",
    [({"active": 10**6}, r"active user count must lie in 1\.\.120, got 1000000"),
     ({"demand_mode": "zipf"}, "unknown demand mode 'zipf'"),
     ({"N": 3}, "distinct demands need N >= 120 files, got N = 3")],
    ids=["active", "mode", "distinct-files"],
)
def test_simulate_report_refuses_the_demand_before_any_payload(monkeypatch, kwargs, message):
    # 120 files of 4 MiB would be generated first if the demand came second.
    def no_payloads(self, count, n):
        raise AssertionError(f"{count} payloads generated before the demand was dealt")

    monkeypatch.setattr(SplitMix64, "spawned_bytes", no_payloads)
    with pytest.raises(ValueError, match=message):
        simulate_report(16, 2, 3, file_size=1 << 22, **kwargs)


def test_unknown_demand_mode_is_refused_before_any_draw():
    # With an active count the users would be shuffled first.
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="unknown demand mode 'zipf'"):
        make_demand(SchemeParams(4, 2, 1, 6), "zipf", rng, 3)
    assert rng.next_u64() == SplitMix64(5).next_u64()


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
