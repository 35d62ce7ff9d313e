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


@dataclass(frozen=True)
class RateMemoryPoint:
    memory_fraction: Fraction
    rate: Fraction


@lru_cache(maxsize=4096)
def delivery_rate(C: int, r: int, t: int) -> Fraction:
    """Total delivered volume in file units: binom(C, t+r) / binom(C, t).

    Defined for t = 0 as well (no caching, rate binom(C, r): one full file
    per user). Zero once t + r > C, where caches alone cover every demand.
    Memoised: a sweep asks for the same few points once per row.
    """
    if not 0 <= t <= C:
        raise ValueError(f"t must lie in 0..{C}, got {t}")
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


@lru_cache(maxsize=4096)
def _check_segment_convexity(C: int, r: int, lo: int, hi: int) -> None:
    """Verify the integer-t rate sequence is convex near the segment [lo, hi].

    Interpolating between adjacent integer points is only the lower convex
    envelope if the sequence itself is convex there. This has held at every
    parameter point exercised; a violation would make the interpolated value
    non-achievable-optimal, so it aborts rather than silently returning it.
    Memoised on its integer arguments; a failing check raises on every call.
    """
    for m in range(max(lo - 1, 0) + 1, min(hi + 1, C)):
        left = delivery_rate(C, r, m - 1)
        mid = delivery_rate(C, r, m)
        right = delivery_rate(C, r, m + 1)
        if left - 2 * mid + right < 0:
            raise RuntimeError(
                f"integer-t rate sequence not convex at C={C}, r={r}, t={m}; "
                "linear interpolation would not be the lower envelope"
            )


def rate_memory_curve(
    C: int, r: int, N: int, memory_points: Sequence[Fraction]
) -> list[RateMemoryPoint]:
    """Rates along M/N, sharing memory between adjacent integer-t schemes.

    At M/N = t/C with integer t the value is the closed-form rate; between
    grid points it is the straight line through the two neighbours. Points
    are returned in input order.
    """
    if not 1 <= r <= C:
        raise ValueError(f"access degree must satisfy 1 <= r <= {C}, got {r}")
    if N < 1:
        raise ValueError(f"number of files must be positive, got {N}")
    out = []
    for mn in memory_points:
        if not isinstance(mn, Fraction):
            mn = Fraction(mn)
        if not 0 <= mn <= 1:
            raise ValueError(f"memory fraction {mn} outside [0, 1]")
        scaled = mn * C
        lo = int(scaled)
        hi = lo if scaled == lo else lo + 1
        _check_segment_convexity(C, r, lo, hi)
        r_lo = delivery_rate(C, r, lo)
        if hi == lo:
            rate = r_lo
        else:
            r_hi = delivery_rate(C, r, hi)
            rate = r_lo + (scaled - lo) * (r_hi - r_lo)
        out.append(RateMemoryPoint(mn, rate))
    return out
