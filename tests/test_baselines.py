"""Analytic formulas of the comparison schemes."""

import math
from fractions import Fraction

import pytest

from macc.baselines import (
    Scheme,
    Undefined,
    clwzc_rate,
    clwzc_subpacketization,
    crd_affine,
    hkd_rate,
    is_prime_power,
    rk_lower_bound,
    rk_rate,
    spe_special_rate,
    spe_subpacketization,
    sr1_rate,
    sr1_rate_value,
    sr2_rate,
)
from macc.combinatorics import binom
from macc.golden import PROPOSED_ADVANTAGE_ROWS, SPE_ADVANTAGE_ROWS
from macc.harness import evaluate_scheme
from macc.metrics import delivery_rate


def test_undefined_marker_is_falsy():
    gap = Undefined("because")
    assert not gap


def test_hkd_rate_values():
    assert hkd_rate(4, 2, Fraction(1, 2)) == 0
    assert hkd_rate(24, 2, Fraction(1, 24)) == 11
    assert hkd_rate(6, 2, Fraction(0)) == 6
    # Past the zero crossing the clamp holds.
    assert hkd_rate(4, 2, Fraction(3, 4)) == 0


def test_hkd_rate_undefined_and_errors():
    assert isinstance(hkd_rate(6, 4, Fraction(1, 6)), Undefined)
    with pytest.raises(ValueError):
        hkd_rate(6, 2, Fraction(7, 6))


def test_hkd_subpacketization():
    assert evaluate_scheme(Scheme.HKD, 4, 2, 1).subpacketization == 4
    assert evaluate_scheme(Scheme.HKD, 6, 3, 2).subpacketization == 3
    assert evaluate_scheme(Scheme.HKD, 6, 3, 3).subpacketization == 0
    assert isinstance(evaluate_scheme(Scheme.HKD, 6, 4, 1).subpacketization, Undefined)


def test_rk_rate_values():
    for C in (5, 12):
        assert rk_rate(C, 2, 0) == C
    assert rk_rate(12, 6, 1) == 3
    assert rk_rate(12, 5, 3) == 0
    assert rk_rate(12, 6, 2) == 0
    assert rk_rate(12, 5, 4) == Undefined("grid index i=4 outside 0..3 for C=12, r=5")
    with pytest.raises(ValueError):
        rk_rate(12, 5, -1)


def test_rk_lower_bound_pieces():
    assert rk_lower_bound(12, 6, Fraction(0)) == 12
    assert rk_lower_bound(12, 6, Fraction(1, 12)) == Fraction(7, 4)
    assert rk_lower_bound(12, 6, Fraction(2, 12)) == 0
    assert rk_lower_bound(12, 6, Fraction(5, 12)) == 0
    assert isinstance(rk_lower_bound(12, 5, Fraction(1, 12)), Undefined)


def test_rk_lower_bound_breakpoint_continuity():
    for C in range(2, 25):
        for r in range((C + 1) // 2, C + 1):
            q = Fraction((C - r) * (C - r + 1), 2 * C)
            at_first = rk_lower_bound(C, r, Fraction(1, C))
            # Both piece formulas, written out independently.
            assert at_first == C - (C - q) * Fraction(1, C) * C
            assert at_first == q * (2 - 1)
            assert rk_lower_bound(C, r, Fraction(2, C)) == 0


def test_spe_subpacketization():
    assert spe_subpacketization(18, 2) == 72
    assert spe_subpacketization(18, 8) == 18
    assert isinstance(spe_subpacketization(5, 4), Undefined)
    assert isinstance(spe_subpacketization(7, 3), Undefined)  # 21 not divisible by 4


def test_spe_special_rate():
    assert spe_special_rate(5, 2, 2) == Fraction(1, 5)
    assert spe_special_rate(7, 3, 2) == Fraction(1, 7)
    assert isinstance(spe_special_rate(6, 2, 2), Undefined)


def test_spe_special_spot_ratios():
    # Frozen spot rows from the two published comparison tables.
    prop = delivery_rate(5, 2, 2) / binom(5, 2)
    ratio = prop / (spe_special_rate(5, 2, 2) / 5)
    assert ratio == Fraction(5, 4)
    prop = delivery_rate(25, 6, 4) / binom(25, 6)
    ratio = (spe_special_rate(25, 6, 4) / 25) / prop
    assert abs(float(ratio) - 1.097) <= 0.002


def test_clwzc_rate():
    for C in range(4, 30):
        assert clwzc_rate(C, C - 2, 1) == 1
    assert clwzc_rate(15, 3, 2) == 3
    assert clwzc_rate(12, 6, 2) == 0
    assert clwzc_rate(12, 7, 2) == 0  # t*r past C clamps to zero


def test_clwzc_subpacketization():
    for C in range(4, 30):
        assert clwzc_subpacketization(C, C - 2, 1) == 3 * C
    assert clwzc_subpacketization(15, 2, 2) == 1170
    assert clwzc_subpacketization(6, 1, 2) == 6 * binom(6, 2)
    assert clwzc_subpacketization(6, 3, 2) == 6  # inner binomial is binom(2,2)
    assert clwzc_subpacketization(6, 4, 2) == 0
    assert clwzc_subpacketization(6, 5, 3) == 0  # inner count negative


def test_clwzc_equals_hkd_where_both_defined():
    for C in range(2, 41):
        for r in range(1, C + 1):
            if C % r != 0:
                continue
            for t in range(0, C + 1):
                hkd = hkd_rate(C, r, Fraction(t, C))
                assert hkd == clwzc_rate(C, r, t)


def test_sr1_gcd_precondition():
    assert isinstance(sr1_rate(18, 8, 2), Undefined)
    assert isinstance(sr1_rate(18, 4, 2), Undefined)
    assert isinstance(sr1_rate(10, 2, 4), Undefined)
    assert isinstance(sr1_rate(7, 4, 2), Undefined)  # t*r > C


def test_sr1_raw_arithmetic_even_branch():
    # Raw formula values at gcd-excluded points, frozen by direct evaluation.
    assert sr1_rate_value(18, 8, 2) == Fraction(2, 9)
    assert sr1_rate_value(18, 4, 2) == Fraction(13, 3)


def sr1_published(C, r, t):
    """The sr1 expression in its published three branches, m = C - t*r.

    For odd m > 1 the leading term ceil(2tr/(m+1)) is the stand-in that
    ``sr1_rate_value`` uses as well.
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
                assert sr1_rate_value(C, r, t) == sr1_published(C, r, t), (C, r, t)


def test_sr1_defined_values():
    assert sr1_rate(18, 17, 1) == Fraction(1, 18)
    assert sr1_rate(18, 8, 1) == Fraction(13, 3)
    # m = 5 odd: head 1/(ceil(8/6)+1) = 1/3, tail i in {4, 5} gives 1 + 1.
    assert sr1_rate(9, 2, 2) == Fraction(7, 3)
    assert evaluate_scheme(Scheme.SR1, 18, 8, 1).note == ""
    assert evaluate_scheme(Scheme.SR1, 18, 17, 1).note == ""


def test_sr1_odd_branch_flag_and_pluggable_leading_term():
    row = evaluate_scheme(Scheme.SR1, 18, 5, 1)
    assert row.note == "interpretation-dependent odd-branch leading term"
    default = sr1_rate(18, 5, 1)
    assert row.rate == default
    # ceil(2*5/14) = 1, so the default head term is 1/2.
    tail = sum(Fraction(2, 1 + -(-5 // i)) for i in range(8, 14))
    assert default == Fraction(1, 2) + tail


def test_sr2_rate():
    assert sr2_rate(12, 6, 2) == 0
    assert sr2_rate(12, 4, 2) == 1
    assert isinstance(sr2_rate(18, 2, 3), Undefined)
    assert isinstance(sr2_rate(18, 8, 2), Undefined)
    assert isinstance(sr2_rate(9, 2, 2), Undefined)  # t does not divide C
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
        assert is_prime_power(n) == naive(n), n
    assert is_prime_power(1024)
    assert not is_prime_power(1000)


def test_crd_affine_values():
    K, rate, F = crd_affine(2)
    assert K == 12
    assert F == 4
    assert rate / K == Fraction(1, 16)
    assert rate == Fraction(1, 16) * 12

    K, rate, F = crd_affine(3)
    assert K == 54
    assert F == 9
    assert rate / K == Fraction(1, 9)

    gap = crd_affine(6)
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
        assert hkd_rate(C, r, Fraction(0)) / C == 1
        assert rk_rate(C, r, 0) / C == 1
        if 2 * r >= C:
            assert rk_lower_bound(C, r, Fraction(0)) / C == 1
        assert clwzc_rate(C, r, 0) / C == 1
        assert delivery_rate(C, r, 0) / binom(C, r) == 1


def test_dominance_flip_between_published_tables():
    for C, r, t, _ in SPE_ADVANTAGE_ROWS:
        prop = delivery_rate(C, r, t) / binom(C, r)
        assert prop / (spe_special_rate(C, r, t) / C) > 1
    for C, r, t, _ in PROPOSED_ADVANTAGE_ROWS:
        prop = delivery_rate(C, r, t) / binom(C, r)
        assert (spe_special_rate(C, r, t) / C) / prop > 1
