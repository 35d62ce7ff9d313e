"""Closed-form performance metrics and the memory-sharing rate curve.

All quantities are exact: Fractions for rates and fractions of files,
arbitrary-precision integers for counts. Decimal rendering is left to the
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .baselines import CELLS, Scheme, check_memory_fraction
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


def delivery_rate(C: int, r: int, t: int) -> Fraction:
    """Total delivered volume in file units: binom(C, t+r) / binom(C, t).

    Defined for t = 0 as well (no caching, rate binom(C, r): one full file
    per user). Zero once t + r > C, where caches alone cover every demand.
    A bad point is refused as ``SchemeParams`` refuses it: C, then r, then t.
    The value is the integer-t cell of ``baselines.CELLS[Scheme.PROPOSED]``,
    the kernel the sweep reads a whole block from, made a Fraction.
    """
    SchemeParams(C, r, t, 1)
    ((_, rate, _, _),) = CELLS[Scheme.PROPOSED](C, r, [(t, 1)])
    return Fraction(*rate)


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
    Rates are returned in input order, read from the block function
    ``baselines.CELLS[Scheme.PROPOSED]`` over all the points at once.

    That line is the lower convex envelope because R is convex on 0..C.
    Up to t = C - r + 1, R(t) = prod_{j=1..r} ((C - r + 2j)/(t + j) - 1),
    and every factor is nonnegative, nonincreasing and convex there. A
    product of two such functions is again one ((fg)'' = f''g + 2f'g' + fg'',
    each term nonnegative), and R is 0 beyond that point.
    """
    SchemeParams(C, r, 0, 1)  # C and r as this scheme's range has them; t = 0 is in range
    ts = [check_memory_fraction(mn) * C for mn in memory_points]
    cells = CELLS[Scheme.PROPOSED](C, r, [(t.numerator, t.denominator) for t in ts])
    return [Fraction(*rate) for _, rate, _, _ in cells]
