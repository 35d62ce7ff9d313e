"""Closed-form metrics and the memory-sharing curve."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from macc.combinatorics import binom
from macc.metrics import analyze, delivery_rate, rate_memory_curve
from macc.scheme import DemandAssignment, SchemeParams, generate_transmissions


def full_demand(params):
    files = range(1, params.num_users + 1)
    return DemandAssignment.from_request_vector(params, list(files))


def test_analyze_first_example():
    report = analyze(SchemeParams(4, 2, 1, 6))
    assert report.rate == 1
    assert report.subpacketization == 4
    assert report.num_users == 6
    assert report.coding_gain == 3
    assert report.per_user_rate == Fraction(1, 6)
    assert report.cache_fraction == Fraction(1, 4)


def test_analyze_frozen_case():
    report = analyze(SchemeParams(5, 2, 2, 10))
    assert report.rate == Fraction(1, 2)
    assert report.num_users == 10
    assert report.subpacketization == 10
    assert report.coding_gain == 6


def test_analyze_zero_rate_when_caches_cover_all():
    report = analyze(SchemeParams(4, 3, 2, 4))
    assert report.rate == 0
    assert report.per_user_rate == 0


def test_man_identity_at_r_1():
    for C in range(2, 31):
        for t in range(1, C):
            assert analyze(SchemeParams(C, 1, t, 1)).rate == Fraction(C - t, t + 1)


def test_report_field_consistency():
    for C in range(2, 9):
        for r in range(1, C + 1):
            for t in range(1, C + 1):
                report = analyze(SchemeParams(C, r, t, 1))
                assert report.rate == Fraction(binom(C, t + r), binom(C, t))
                assert report.per_user_rate * report.num_users == report.rate
                assert report.subpacketization == binom(C, t)
                assert report.coding_gain == binom(t + r, r)
                assert report.cache_fraction == Fraction(t, C)


def test_rate_matches_construction():
    for C in range(2, 8):
        for r in range(1, C):
            for t in range(1, C - r + 1):
                params = SchemeParams(C, r, t, binom(C, r))
                txs = generate_transmissions(params, full_demand(params))
                measured = Fraction(len(txs), params.subpacketization)
                assert measured == analyze(params).rate


def test_per_user_rate_strictly_decreasing_in_t():
    for C in range(2, 21):
        for r in range(1, C + 1):
            rates = [delivery_rate(C, r, t) / binom(C, r) for t in range(0, C + 1)]
            for a, b in zip(rates, rates[1:]):
                assert b < a or (a == 0 and b == 0)


def test_delivery_rate_domain():
    assert delivery_rate(4, 2, 0) == 6
    assert delivery_rate(4, 2, 4) == 0
    with pytest.raises(ValueError, match=r"cache parameter 5 outside 0\.\.4"):
        delivery_rate(4, 2, 5)
    with pytest.raises(ValueError, match=r"cache parameter -1 outside 0\.\.4"):
        delivery_rate(4, 2, -1)
    with pytest.raises(ValueError, match="access degree must be positive, got -1"):
        delivery_rate(4, -1, 1)
    with pytest.raises(ValueError, match="access degree must be positive, got 0"):
        delivery_rate(4, 0, 1)
    # C, then r, then t, as SchemeParams refuses them.
    with pytest.raises(ValueError, match="access degree 5 exceeds cache count 4"):
        delivery_rate(4, 5, 9)


def test_curve_endpoints_and_grid():
    rates = rate_memory_curve(4, 2, [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    assert rates == [6, 1, Fraction(1, 6), 0]
    # Plain ints are memory fractions too.
    assert rate_memory_curve(4, 2, [0, 1]) == [6, 0]


def test_curve_midpoint_interpolation():
    assert rate_memory_curve(4, 2, [Fraction(3, 8)]) == [Fraction(7, 12)]


def test_curve_rejects_out_of_range():
    with pytest.raises(ValueError):
        rate_memory_curve(4, 2, [Fraction(9, 8)])
    with pytest.raises(ValueError):
        rate_memory_curve(4, 2, [Fraction(-1, 8)])
    with pytest.raises(ValueError, match=r"^memory fraction 2 outside \[0, 1\]$"):
        rate_memory_curve(4, 2, [2])
    with pytest.raises(ValueError):
        rate_memory_curve(4, 5, [Fraction(1, 2)])


def test_curve_piecewise_linear_between_grid_points():
    # On each [t/C, (t+1)/C] segment the curve is the straight line through
    # the two closed-form endpoints.
    C, r = 6, 2
    for t in range(0, C):
        left, right = Fraction(t, C), Fraction(t + 1, C)
        r_left = delivery_rate(C, r, t)
        r_right = delivery_rate(C, r, t + 1)
        for w in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)):
            mn = left + w * (right - left)
            assert rate_memory_curve(C, r, [mn]) == [r_left + w * (r_right - r_left)]


@given(
    C=st.integers(min_value=1, max_value=24),
    data=st.data(),
)
def test_curve_nonincreasing_property(C, data):
    r = data.draw(st.integers(min_value=1, max_value=C))
    fractions = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=200),
            min_size=2,
            max_size=8,
        )
    )
    mns = sorted(Fraction(f) for f in fractions)
    rates = rate_memory_curve(C, r, mns)
    for a, b in zip(rates, rates[1:]):
        assert b <= a


def test_curve_convex_on_fine_grid():
    C, r = 10, 3
    grid = [Fraction(i, 3 * C) for i in range(3 * C + 1)]
    rates = rate_memory_curve(C, r, grid)
    for left, mid, right in zip(rates, rates[1:], rates[2:]):
        assert left - 2 * mid + right >= 0


def test_integer_t_rates_are_convex():
    # Memory sharing between adjacent integer t is the lower convex envelope
    # only because R(t) is convex; rate_memory_curve relies on that theorem.
    checked = 0
    for C in range(1, 49):
        for r in range(1, C + 1):
            rates = [delivery_rate(C, r, t) for t in range(C + 1)]
            for m in range(1, C):
                assert rates[m - 1] - 2 * rates[m] + rates[m + 1] >= 0, (C, r, m)
                checked += 1
    assert checked == 36848
