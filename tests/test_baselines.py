"""Analytic formulas of the comparison schemes, read as ``evaluate_scheme`` rows."""

import inspect
import math
from fractions import Fraction

import pytest

import macc
from macc import baselines
from macc.baselines import Scheme, Undefined
from macc.combinatorics import binom
from macc.golden import PROPOSED_ADVANTAGE_ROWS, SPE_ADVANTAGE_ROWS
from macc.harness import SweepSpec, evaluate_scheme
from macc.metrics import delivery_rate, rate_memory_curve
from macc.scheme import SchemeParams
from sweep_csv import csv_line, sweep_lines


def rate(scheme, C, r, t):
    """The rate of ``scheme``'s row at (C, r, t): a Fraction, or the row's gap."""
    return evaluate_scheme(scheme, C, r, t).rate


def test_undefined_marker_is_falsy():
    gap = Undefined("because")
    assert not gap


# Every public entry point that takes a cache count C and an access degree r,
# with the names it gives C and r when it refuses a non-integer: ``SchemeParams``
# (and what validates through it) takes its fields through ``operator.index``
# before any range rule, with its own field-named messages.
COUNT_ENTRY_POINTS = {
    "evaluate_scheme": (lambda C, r: evaluate_scheme(Scheme.HKD, C, r, 0),
                        ("cache count", "access degree")),
    "SweepSpec": (lambda C, r: SweepSpec((C,), (r,), (Fraction(0),), (Scheme.HKD,)),
                  ("cache count", "access degree")),
    "SchemeParams": (lambda C, r: SchemeParams(C, r, 0, 1), ("num_caches", "access_degree")),
    "delivery_rate": (lambda C, r: delivery_rate(C, r, 0), ("num_caches", "access_degree")),
    "rate_memory_curve": (lambda C, r: rate_memory_curve(C, r, [Fraction(0)]),
                          ("num_caches", "access_degree")),
}


COUNT_PARAMETERS = ({"C", "r"}, {"num_caches", "access_degree"},
                    {"cache_counts", "access_degrees"})


def takes_counts(value):
    """Whether ``value`` is a callable whose signature names a C and an r."""
    try:
        parameters = set(inspect.signature(value).parameters)
    except (TypeError, ValueError):
        return False
    return any(pair <= parameters for pair in COUNT_PARAMETERS)


def test_every_public_formula_refuses_nonpositive_counts():
    """Each public entry point that takes (C, r) refuses C < 1, then r < 1,
    and a non-integer C or r, checking C before r. The list is complete:
    every callable of ``macc.__all__`` whose signature names a C and an r is
    on it, except ``ComparisonRow``, a record of values already checked."""
    found = {name for name in macc.__all__ if takes_counts(getattr(macc, name))}
    assert COUNT_ENTRY_POINTS and set(COUNT_ENTRY_POINTS) == found - {"ComparisonRow"}
    for entry, (C_name, r_name) in COUNT_ENTRY_POINTS.values():
        for C, r, message in ((0, 1, "cache count must be positive, got 0"),
                              (-4, 1, "cache count must be positive, got -4"),
                              (4, 0, "access degree must be positive, got 0"),
                              (0, 0, "cache count must be positive, got 0"),
                              (2.5, 1, f"{C_name} must be an integer, got 2.5"),
                              (4, 1.5, f"{r_name} must be an integer, got 1.5"),
                              (2.5, 0, f"{C_name} must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                entry(C, r)


def test_rate_readers_give_the_sweep_gap_when_r_exceeds_C():
    """At r > C every comparison rate is the gap "access degree r exceeds
    cache count C", in its ``evaluate_scheme`` row and its sweep CSV line
    alike, at every point, not a number."""
    for scheme in (Scheme.HKD, Scheme.RK, Scheme.RK_LB, Scheme.CLWZC, Scheme.SR1, Scheme.SR2):
        for C, r in ((1, 2), (4, 5), (4, 6), (6, 12)):
            gap = Undefined(f"access degree {r} exceeds cache count {C}")
            lines = sweep_lines(SweepSpec((C,), (r,), tuple(map(Fraction, range(C + 1))), (scheme,)))
            for (_, _, _, t), line in lines.items():
                row = evaluate_scheme(scheme, C, r, t)
                assert row.rate == gap, (scheme, C, r, t)
                assert line == csv_line(row), (scheme, C, r, t)


def test_public_rates_at_every_t_equal_their_sweep_rows():
    """At every t, a t beyond C included, an ``evaluate_scheme`` row written
    out is its sweep CSV line: the same rate, or the same gap with the same
    reason."""
    for scheme in (Scheme.RK, Scheme.CLWZC, Scheme.SR1, Scheme.SR2):
        for C in range(1, 7):
            for r in range(1, C + 2):
                for t in range(C + 3):
                    (line,) = sweep_lines(SweepSpec((C,), (r,), (Fraction(t),), (scheme,))).values()
                    assert line == csv_line(evaluate_scheme(scheme, C, r, t)), (scheme, C, r, t)


def test_hkd_rate_values():
    # At M/N = 1/2, 1/24, 0, 0 and 3/4: t = C * M/N.
    assert rate(Scheme.HKD, 4, 2, 2) == 0
    assert rate(Scheme.HKD, 24, 2, 1) == 11
    assert rate(Scheme.HKD, 6, 2, Fraction(0)) == 6
    assert rate(Scheme.HKD, 4, 2, 0) == 4
    # Past the zero crossing the clamp holds.
    assert rate(Scheme.HKD, 4, 2, 3) == 0


def test_hkd_rate_undefined_and_errors():
    assert isinstance(rate(Scheme.HKD, 6, 4, 1), Undefined)
    # M/N = 7/6 is t = 7 beyond C = 6: the gap the sweep row shows.
    assert rate(Scheme.HKD, 6, 2, 7) == Undefined("cache parameter 7 exceeds cache count 6")
    with pytest.raises(ValueError, match="t must be nonnegative, got -1/6"):
        evaluate_scheme(Scheme.HKD, 6, 2, Fraction(-1, 6))


def test_hkd_subpacketization():
    assert evaluate_scheme(Scheme.HKD, 4, 2, 1).subpacketization == 4
    assert evaluate_scheme(Scheme.HKD, 6, 3, 2).subpacketization == 3
    assert evaluate_scheme(Scheme.HKD, 6, 3, 3).subpacketization == 0
    assert isinstance(evaluate_scheme(Scheme.HKD, 6, 4, 1).subpacketization, Undefined)


def test_rk_rate_values():
    for C in (5, 12):
        assert rate(Scheme.RK, C, 2, 0) == C
    assert rate(Scheme.RK, 12, 6, 1) == 3
    assert rate(Scheme.RK, 12, 5, 3) == 0
    assert rate(Scheme.RK, 12, 6, 2) == 0
    assert rate(Scheme.RK, 12, 5, 4) == Undefined("grid index i=4 outside 0..3 for C=12, r=5")
    with pytest.raises(ValueError):
        rate(Scheme.RK, 12, 5, -1)


def test_rk_lower_bound_pieces():
    # At M/N = 0, 1/12, 2/12, 5/12 and 1/12: t = 12 * M/N.
    assert rate(Scheme.RK_LB, 12, 6, 0) == 12
    assert rate(Scheme.RK_LB, 12, 6, 1) == Fraction(7, 4)
    assert rate(Scheme.RK_LB, 12, 6, 2) == 0
    assert rate(Scheme.RK_LB, 12, 6, 5) == 0
    assert isinstance(rate(Scheme.RK_LB, 12, 5, 1), Undefined)


def test_rk_lower_bound_breakpoint_continuity():
    for C in range(2, 25):
        for r in range((C + 1) // 2, C + 1):
            q = Fraction((C - r) * (C - r + 1), 2 * C)
            at_first = rate(Scheme.RK_LB, C, r, 1)  # M/N = 1/C
            # Both piece formulas, written out independently.
            assert at_first == C - (C - q) * Fraction(1, C) * C
            assert at_first == q * (2 - 1)
            assert rate(Scheme.RK_LB, C, r, 2) == 0


def test_spe_subpacketization():
    # SPE's F outside its special case is read at C*M/N = t = 2.
    assert evaluate_scheme(Scheme.SPE, 18, 2, 2).subpacketization == 72
    assert evaluate_scheme(Scheme.SPE, 18, 8, 2).subpacketization == 18
    assert evaluate_scheme(Scheme.SPE, 18, 8, 2).note == "subpacketization only"
    row = evaluate_scheme(Scheme.SPE, 5, 4, 2)
    assert row.subpacketization == Undefined("requires r < (C+2)/2, got C=5, r=4")
    assert row.note == "requires r < (C+2)/2, got C=5, r=4"
    # (7, 3, 2) is the special case r*t = C-1 with F = C, so the kernel is read directly.
    assert evaluate_scheme(Scheme.SPE, 7, 3, 2).subpacketization == 7
    gap = baselines._spe_subpacketization(7, 3)
    assert gap == Undefined("C(C-2r+2) = 21 not divisible by 4")


def test_spe_special_rate():
    assert rate(Scheme.SPE, 5, 2, 2) == Fraction(1, 5)
    assert rate(Scheme.SPE, 7, 3, 2) == Fraction(1, 7)
    assert isinstance(rate(Scheme.SPE, 6, 2, 2), Undefined)


def test_spe_special_spot_ratios():
    # Frozen spot rows from the two published comparison tables.
    prop = delivery_rate(5, 2, 2) / binom(5, 2)
    ratio = prop / (rate(Scheme.SPE, 5, 2, 2) / 5)
    assert ratio == Fraction(5, 4)
    prop = delivery_rate(25, 6, 4) / binom(25, 6)
    ratio = (rate(Scheme.SPE, 25, 6, 4) / 25) / prop
    assert abs(float(ratio) - 1.097) <= 0.002


def clwzc_F(C, r, t):
    return evaluate_scheme(Scheme.CLWZC, C, r, t).subpacketization


def test_clwzc_rate():
    for C in range(4, 30):
        assert rate(Scheme.CLWZC, C, C - 2, 1) == 1
    assert rate(Scheme.CLWZC, 15, 3, 2) == 3
    assert rate(Scheme.CLWZC, 12, 6, 2) == 0
    assert rate(Scheme.CLWZC, 12, 7, 2) == 0  # t*r past C clamps to zero


def test_clwzc_subpacketization():
    for C in range(4, 30):
        assert clwzc_F(C, C - 2, 1) == 3 * C
    assert clwzc_F(15, 2, 2) == 1170
    assert clwzc_F(6, 1, 2) == 6 * binom(6, 2)
    assert clwzc_F(6, 3, 2) == 6  # inner binomial is binom(2,2)
    assert clwzc_F(6, 4, 2) == 0
    assert clwzc_F(6, 5, 3) == 0  # inner count negative


def test_clwzc_equals_hkd_where_both_defined():
    for C in range(2, 41):
        for r in range(1, C + 1):
            if C % r != 0:
                continue
            for t in range(0, C + 1):
                assert rate(Scheme.HKD, C, r, t) == rate(Scheme.CLWZC, C, r, t)


def test_sr1_gcd_precondition():
    assert isinstance(rate(Scheme.SR1, 18, 8, 2), Undefined)
    assert isinstance(rate(Scheme.SR1, 18, 4, 2), Undefined)
    assert isinstance(rate(Scheme.SR1, 10, 2, 4), Undefined)
    assert isinstance(rate(Scheme.SR1, 7, 4, 2), Undefined)  # t*r > C


def sr1_sum(C, r, t):
    """SR1's sum ``baselines._sr1_sum`` as a Fraction, with no existence rule
    but t*r <= C, so its arithmetic can be exercised where SR1 does not exist."""
    assert t >= 0 and t * r <= C, (C, r, t)
    return Fraction(*baselines._sr1_sum(C, r, t))


def test_sr1_raw_arithmetic_even_branch():
    # Raw formula values at gcd-excluded points, frozen by direct evaluation.
    assert sr1_sum(18, 8, 2) == Fraction(2, 9)
    assert sr1_sum(18, 4, 2) == Fraction(13, 3)


def sr1_published(C, r, t):
    """The sr1 expression in its published three branches, m = C - t*r.

    For odd m > 1 the leading term ceil(2tr/(m+1)) is the stand-in that
    ``baselines._sr1_sum`` uses as well.
    """
    m = C - t * r
    if m == 1:
        return Fraction(1, C)
    if m % 2 == 0:
        return 2 * sum(
            (Fraction(1, 1 + math.ceil(Fraction(t * r, i))) for i in range(m // 2 + 1, m + 1)),
            Fraction(0),
        )
    head = Fraction(1, math.ceil(Fraction(2 * t * r, m + 1)) + 1)
    tail = sum(
        (Fraction(2, 1 + math.ceil(Fraction(t * r, i))) for i in range((m + 3) // 2, m + 1)),
        Fraction(0),
    )
    return head + tail


def test_sr1_value_is_the_published_expression():
    for C in range(1, 41):
        for r in range(1, C + 1):
            for t in range(C // r + 1):
                assert sr1_sum(C, r, t) == sr1_published(C, r, t), (C, r, t)


def test_sr1_defined_values():
    assert rate(Scheme.SR1, 18, 17, 1) == Fraction(1, 18)
    assert rate(Scheme.SR1, 18, 8, 1) == Fraction(13, 3)
    # m = 5 odd: head 1/(ceil(8/6)+1) = 1/3, tail i in {4, 5} gives 1 + 1.
    assert rate(Scheme.SR1, 9, 2, 2) == Fraction(7, 3)
    assert evaluate_scheme(Scheme.SR1, 18, 8, 1).note == ""
    assert evaluate_scheme(Scheme.SR1, 18, 17, 1).note == ""


def test_sr1_odd_branch_flag_and_pluggable_leading_term():
    row = evaluate_scheme(Scheme.SR1, 18, 5, 1)
    assert row.note == "interpretation-dependent odd-branch leading term"
    default = sr1_sum(18, 5, 1)
    assert row.rate == default
    # ceil(2*5/14) = 1, so the default head term is 1/2.
    tail = sum(Fraction(2, 1 + -(-5 // i)) for i in range(8, 14))
    assert default == Fraction(1, 2) + tail


def test_sr2_rate():
    assert rate(Scheme.SR2, 12, 6, 2) == 0
    assert rate(Scheme.SR2, 12, 4, 2) == 1
    assert isinstance(rate(Scheme.SR2, 18, 2, 3), Undefined)
    assert isinstance(rate(Scheme.SR2, 18, 8, 2), Undefined)
    assert isinstance(rate(Scheme.SR2, 9, 2, 2), Undefined)  # t does not divide C
    assert evaluate_scheme(Scheme.SR2, 12, 4, 2).subpacketization == 12
    assert isinstance(evaluate_scheme(Scheme.SR2, 18, 8, 2).subpacketization, Undefined)


def test_is_prime_power():
    def naive(n):
        for p in range(2, n + 1):
            if n % p != 0:
                continue
            # The smallest divisor above 1 is prime.
            m = n
            while m % p == 0:
                m //= p
            return m == 1
        return False

    for n in range(0, 300):
        assert baselines._is_prime_power(n) == naive(n), n
    assert baselines._is_prime_power(1024)
    assert not baselines._is_prime_power(1000)


def crd_affine(n):
    """The CRD_AFFINE row of the affine plane of order n: C = n(n+1), t = n+1."""
    return evaluate_scheme(Scheme.CRD_AFFINE, n * (n + 1), 1, n + 1)


def test_crd_affine_values():
    row = crd_affine(2)
    assert row.num_users == 12
    assert row.subpacketization == 4
    assert row.rate / row.num_users == Fraction(1, 16)
    assert row.rate == Fraction(1, 16) * 12

    row = crd_affine(3)
    assert row.num_users == 54
    assert row.subpacketization == 9
    assert row.rate / row.num_users == Fraction(1, 9)

    gap = crd_affine(6).rate
    assert isinstance(gap, Undefined)
    assert gap.reason == "n = 6 is not a prime power"

    row = evaluate_scheme(Scheme.CRD_AFFINE, 6, 2, 3)
    assert row.scheme is Scheme.CRD_AFFINE
    assert row.mn == Fraction(1, 2)
    assert (row.num_users, row.subpacketization) == (12, 4)
    assert row.per_user_rate == Fraction(1, 16)


def test_all_schemes_start_at_unit_per_user_rate():
    # With empty caches every defined scheme sends one file unit per user.
    for C, r in ((6, 2), (12, 6), (8, 4)):
        assert rate(Scheme.HKD, C, r, 0) / C == 1
        assert rate(Scheme.RK, C, r, 0) / C == 1
        if 2 * r >= C:
            assert rate(Scheme.RK_LB, C, r, 0) / C == 1
        assert rate(Scheme.CLWZC, C, r, 0) / C == 1
        assert delivery_rate(C, r, 0) / binom(C, r) == 1


def test_dominance_flip_between_published_tables():
    for C, r, t, _ in SPE_ADVANTAGE_ROWS:
        prop = delivery_rate(C, r, t) / binom(C, r)
        assert prop / (rate(Scheme.SPE, C, r, t) / C) > 1
    for C, r, t, _ in PROPOSED_ADVANTAGE_ROWS:
        prop = delivery_rate(C, r, t) / binom(C, r)
        assert (rate(Scheme.SPE, C, r, t) / C) / prop > 1


# Reference forms: the Fraction expressions these formulas had before the
# sweep took its cells from integer pairs. None stands for a gap.
def hkd_reference(C, r, mn):
    if C % r != 0:
        return None
    return max(Fraction(C - C * r * mn, 1 + C * mn), Fraction(0))


def rk_reference(C, r, i):
    ceil_cr = -(-C // r)
    if i > ceil_cr:
        return None
    if i == ceil_cr and C % r != 0:
        return Fraction(0)
    return C * (1 - Fraction(r * i, C)) ** 2


def rk_lower_bound_reference(C, r, mn):
    if 2 * r < C:
        return None
    q = Fraction((C - r) * (C - r + 1), 2 * C)
    if mn <= Fraction(1, C):
        return C - (C - q) * mn * C
    if mn <= Fraction(2, C):
        return q * (2 - mn * C)
    return Fraction(0)


def clwzc_reference(C, r, t):
    return max(Fraction(C - t * r, 1 + t), Fraction(0))


def spe_special_reference(C, r, t):
    return Fraction(C - r * t, 1 + r * t) if r * t == C - 1 else None


def sr1_reference(C, r, t):
    if t < 1 or math.gcd(t, C) != 1 or t * r > C:
        return None
    m = C - t * r
    return sum(
        (Fraction(1 if 2 * i == m + 1 else 2, 1 + math.ceil(Fraction(t * r, i)))
         for i in range(m // 2 + 1, m + 1)),
        Fraction(0),
    )


def sr2_reference(C, r, t):
    if t < 1 or C % t != 0 or t * r > C:
        return None
    d = C - t * r + t
    if d <= 0 or C % d != 0:
        return None
    return Fraction((C - t * r) * d, 2 * C)


def proposed_reference(C, r, mn):
    """The memory-sharing curve as ``rate_memory_curve`` computed it point by
    point in Fractions, with each integer-t rate binom(C, t+r) / binom(C, t)."""
    lo, rest = divmod(mn.numerator * C, mn.denominator)
    rate = Fraction(binom(C, lo + r), binom(C, lo))
    if rest:
        q, following = mn.denominator, Fraction(binom(C, lo + 1 + r), binom(C, lo + 1))
        a, b = rate.numerator, rate.denominator
        c, d = following.numerator, following.denominator
        rate = Fraction(a * d * q + rest * (c * b - a * d), b * d * q)
    return rate


def assert_matches(value, expected, where):
    if expected is None:
        assert isinstance(value, Undefined), where
    else:
        assert type(value) is Fraction and value == expected, where


def test_formulas_and_rows_match_the_fraction_references():
    memory = {Fraction(p, q) for q in range(1, 13) for p in range(q + 1)}
    for C in range(1, 25):
        points = sorted({mn * C for mn in memory} | {Fraction(k, 2) for k in range(2 * C + 1)})
        for r in range(1, C + 1):
            for t in points:
                mn, i = t / C, t.numerator
                integer = t.denominator == 1
                expected = {
                    Scheme.HKD: hkd_reference(C, r, mn),
                    Scheme.RK_LB: rk_lower_bound_reference(C, r, mn),
                    Scheme.RK: rk_reference(C, r, i) if integer else None,
                    Scheme.CLWZC: clwzc_reference(C, r, i) if integer else None,
                    Scheme.SPE: spe_special_reference(C, r, i) if integer else None,
                    Scheme.SR1: sr1_reference(C, r, i) if integer else None,
                    Scheme.SR2: sr2_reference(C, r, i) if integer else None,
                }
                where = (C, r, t)
                for scheme, value in expected.items():
                    row = evaluate_scheme(scheme, C, r, t)
                    assert_matches(row.rate, value, (scheme, *where))
                    if value is not None:
                        assert row.per_user_rate == value / C, (scheme, *where)
                proposed = proposed_reference(C, r, mn)
                assert_matches(rate_memory_curve(C, r, [mn])[0], proposed, where)
                if integer:
                    assert_matches(delivery_rate(C, r, i), proposed, where)
                row = evaluate_scheme(Scheme.PROPOSED, C, r, t)
                assert_matches(row.rate, proposed, where)
                assert_matches(row.per_user_rate, proposed / binom(C, r), where)
                if integer:
                    assert (row.subpacketization, row.note) == (binom(C, i), ""), where
                else:
                    assert row.subpacketization == Undefined("memory sharing point"), where
                    assert row.note == "memory sharing between adjacent integer cache parameters"


def test_crd_affine_matches_its_sweep_row():
    """At every r the row of the affine plane of order n holds the published
    (K, rate, F), K = n^3(n+1)/2, per-user rate (n-1)^2/(4n^2), F = n^2,
    and is the sweep's CSV line; where n is no prime power each cell is the gap."""
    prime_powers = {2, 3, 4, 5, 7, 8, 9, 11, 13}
    for n in range(1, 14):
        C = n * (n + 1)
        for r in (1, C):
            row = evaluate_scheme(Scheme.CRD_AFFINE, C, r, n + 1)
            (line,) = sweep_lines(SweepSpec((C,), (r,), (Fraction(n + 1),), (Scheme.CRD_AFFINE,))).values()
            assert line == csv_line(row), (n, r)
            assert row.mn == Fraction(1, n), (n, r)
            if n not in prime_powers:
                gap = Undefined(f"n = {n} is not a prime power")
                assert (row.num_users, row.rate, row.subpacketization, row.per_user_rate) == (
                    gap, gap, gap, gap), (n, r)
                continue
            K = n ** 3 * (n + 1) // 2
            assert (row.num_users, row.subpacketization) == (K, n ** 2), (n, r)
            assert row.per_user_rate == Fraction((n - 1) ** 2, 4 * n ** 2), (n, r)
            assert row.rate == row.per_user_rate * K, (n, r)
