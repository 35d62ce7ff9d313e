"""Closed-form performance metrics and the memory-sharing rate curve.

All quantities are exact: Fractions for rates and fractions of files,
arbitrary-precision integers for counts. Decimal rendering is left to the
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

from .baselines import check_memory_fraction
from .combinatorics import binom
from .scheme import SchemeParams, accessible_fraction


@dataclass(frozen=True)
class SchemeReport:
    """Analytic summary of one (C, r, t) operating point."""

    rate: Fraction
    per_user_rate: Fraction
    subpacketization: int
    coding_gain: int
    accessible_fraction: Fraction
    num_users: int
    cache_fraction: Fraction


@lru_cache(maxsize=4096)
def delivery_rate(C: int, r: int, t: int) -> Fraction:
    """Total delivered volume in file units: binom(C, t+r) / binom(C, t).

    Defined for t = 0 as well (no caching, rate binom(C, r): one full file
    per user). Zero once t + r > C, where caches alone cover every demand.
    A t outside 0..C or an r outside 1..C is refused. Memoised: a sweep
    asks for the same few points once per row.
    """
    if not 0 <= t <= C:
        raise ValueError(f"t must lie in 0..{C}, got {t}")
    if not 1 <= r <= C:
        raise ValueError(f"access degree must satisfy 1 <= r <= {C}, got {r}")
    return Fraction(binom(C, t + r), binom(C, t))


def analyze(params: SchemeParams) -> SchemeReport:
    """Exact metrics of the scheme at integer t."""
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    rate = delivery_rate(C, r, t)
    K = params.num_users
    return SchemeReport(
        rate=rate,
        per_user_rate=rate / K,
        subpacketization=params.subpacketization,
        coding_gain=binom(t + r, r),
        accessible_fraction=accessible_fraction(params),
        num_users=K,
        cache_fraction=params.cache_fraction,
    )


def rate_memory_curve(C: int, r: int, memory_points: Sequence[Fraction]) -> list[Fraction]:
    """Rates along M/N, sharing memory between adjacent integer-t schemes.

    At M/N = t/C with integer t the value is the closed-form rate R(t);
    between grid points it is the straight line through the two neighbours.
    Rates are returned in input order.

    That line is the lower convex envelope because R is convex on 0..C.
    Up to t = C - r + 1, R(t) = prod_{j=1..r} ((C - r + 2j)/(t + j) - 1),
    and every factor is nonnegative, nonincreasing and convex there. A
    product of two such functions is again one ((fg)'' = f''g + 2f'g' + fg'',
    each term nonnegative), and R is 0 beyond that point.
    """
    if not 1 <= r <= C:
        raise ValueError(f"access degree must satisfy 1 <= r <= {C}, got {r}")
    out = []
    for mn in memory_points:
        mn = check_memory_fraction(mn)
        lo, rest = divmod(mn.numerator * C, mn.denominator)
        rate = delivery_rate(C, r, lo)
        if rest:
            # rate + (rest / q) * (R(lo + 1) - rate) over one denominator.
            q, following = mn.denominator, delivery_rate(C, r, lo + 1)
            a, b = rate.numerator, rate.denominator
            c, d = following.numerator, following.denominator
            rate = Fraction(a * d * q + rest * (c * b - a * d), b * d * q)
        out.append(rate)
    return out
