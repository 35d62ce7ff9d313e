"""Analytic rate and subpacketization formulas of seven comparison schemes.

Only the published closed forms are implemented, never the constructions.
Each operation returns an exact value where the scheme exists and an
:class:`Undefined` marker (carrying the reason) where its preconditions
fail, so sweeps can render gaps instead of crashing.

Scheme tags: HKD, RK and RK_LB (the same work's converse bound), SPE,
CLWZC, SR1, SR2 all live on the cyclic setup with K = C users; CRD_AFFINE
is the design-based scheme parameterized by a prime power n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union


class Scheme(str, Enum):
    PROPOSED = "proposed"
    HKD = "hkd"
    RK = "rk"
    RK_LB = "rk_lb"
    SPE = "spe"
    CLWZC = "clwzc"
    SR1 = "sr1"
    SR2 = "sr2"
    CRD_AFFINE = "crd_affine"


@dataclass(frozen=True)
class Undefined:
    """Marker for a parameter point where a scheme does not exist."""

    reason: str

    def __bool__(self) -> bool:
        return False


Rational = Union[Fraction, Undefined]
Count = Union[int, Undefined]


def is_defined(value: object) -> bool:
    return not isinstance(value, Undefined)


def check_memory_fraction(mn: Fraction) -> Fraction:
    if not isinstance(mn, Fraction):
        mn = Fraction(mn)
    if not 0 <= mn.numerator <= mn.denominator:
        raise ValueError(f"memory fraction {mn} outside [0, 1]")
    return mn


def hkd_rate(C: int, r: int, mn: Fraction) -> Rational:
    """Rate (C - C*r*mn) / (1 + C*mn), zero once mn reaches 1/r.

    Exists only when r divides C (K = C users on consecutive caches).
    """
    mn = check_memory_fraction(mn)
    if C % r != 0:
        return Undefined(f"requires r | C, got C={C}, r={r}")
    value = Fraction(C - C * r * mn, 1 + C * mn)
    return max(value, Fraction(0))


def hkd_subpacketization(C: int, r: int, t: int) -> Count:
    """r * binom(C/r, t); zero when t exceeds C/r. A negative t is refused first."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if C % r != 0:
        return Undefined(f"requires r | C, got C={C}, r={r}")
    return r * math.comb(C // r, t) if t <= C // r else 0


def rk_rate(C: int, r: int, i: int) -> Fraction:
    """Rate C*(1 - r*i/C)^2 on the grid M/N = i/C, zero at i = ceil(C/r)."""
    ceil_cr = -(-C // r)
    if not 0 <= i <= ceil_cr:
        raise ValueError(f"grid index i={i} outside 0..{ceil_cr} for C={C}, r={r}")
    if i == ceil_cr and C % r != 0:
        return Fraction(0)
    return C * (1 - Fraction(r * i, C)) ** 2


def rk_lower_bound(C: int, r: int, mn: Fraction) -> Rational:
    """Optimal-rate lower bound under uncoded placement, valid for r >= C/2.

    Three pieces: linear down from C on [0, 1/C], then a shallower line to
    zero on [1/C, 2/C], then zero. The pieces agree exactly at both
    breakpoints.
    """
    mn = check_memory_fraction(mn)
    if 2 * r < C:
        return Undefined(f"bound stated only for r >= C/2, got C={C}, r={r}")
    q = Fraction((C - r) * (C - r + 1), 2 * C)
    if mn <= Fraction(1, C):
        return C - (C - q) * mn * C
    if mn <= Fraction(2, C):
        return q * (2 - mn * C)
    return Fraction(0)


def spe_subpacketization(C: int, r: int) -> Count:
    """C*(C - 2r + 2)/4 where integral and positive (needs r < (C+2)/2)."""
    if 2 * r >= C + 2:
        return Undefined(f"requires r < (C+2)/2, got C={C}, r={r}")
    numerator = C * (C - 2 * r + 2)
    if numerator % 4 != 0:
        return Undefined(f"C(C-2r+2) = {numerator} not divisible by 4")
    return numerator // 4


def spe_special_rate(C: int, r: int, t: int) -> Rational:
    """Rate of the optimal special case r = (C-1)/t: always 1/C, with F = C."""
    if r * t != C - 1:
        return Undefined(f"special case needs r*t = C-1, got r*t = {r * t}, C = {C}")
    return Fraction(C - r * t, 1 + r * t)


def clwzc_rate(C: int, r: int, t: int) -> Fraction:
    """Rate (C - t*r)/(1 + t), clamped to zero once caches cover everything."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return max(Fraction(C - t * r, 1 + t), Fraction(0))


def clwzc_subpacketization(C: int, r: int, t: int) -> int:
    """C * binom(C - t(r-1), t); zero when the inner binomial collapses."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    inner = C - t * (r - 1)
    if inner < t:
        return 0
    return C * math.comb(inner, t)


def sr1_odd_branch(C: int, r: int, t: int) -> bool:
    """True when sr1 evaluates through the interpretation-dependent branch."""
    m = C - t * r
    return m > 1 and m % 2 == 1


def sr1_rate_value(C: int, r: int, t: int) -> Fraction:
    """The raw piecewise sr1 expression, with no existence preconditions.

    Split out from :func:`sr1_rate` so the arithmetic can be exercised even
    at points the scheme's stated parameter set excludes. For odd
    m = C - t*r > 1 the published leading ceiling contains symbols with no
    definition in scope; ceil(2tr/(m+1)) stands in for it, extrapolating the
    even branch's pattern at i = (m+1)/2. That is an assumption, not ground
    truth.
    """
    m = C - t * r
    if m < 0:
        raise ValueError(f"needs t*r <= C, got C={C}, r={r}, t={t}")
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


def sr1_rate(C: int, r: int, t: int) -> Rational:
    """Cyclic-setup rate for cache parameters t with gcd(t, C) = 1.

    Odd C - t*r > 1 goes through the interpretation-dependent leading term
    (see :func:`sr1_rate_value`); check :func:`sr1_odd_branch` when the
    distinction matters.
    """
    if t < 1 or math.gcd(t, C) != 1:
        return Undefined(f"requires gcd(t, C) = 1 with t >= 1, got C={C}, t={t}")
    if t * r > C:
        return Undefined(f"requires t*r <= C, got t*r = {t * r}, C = {C}")
    return sr1_rate_value(C, r, t)


def sr2_rate(C: int, r: int, t: int) -> Rational:
    """Rate (C - tr)(C - tr + t) / (2C) where t | C and (C - tr + t) | C."""
    if t < 1 or C % t != 0:
        return Undefined(f"requires t | C with t >= 1, got C={C}, t={t}")
    if t * r > C:
        return Undefined(f"requires t*r <= C, got t*r = {t * r}, C = {C}")
    d = C - t * r + t
    if d <= 0 or C % d != 0:
        return Undefined(f"requires (C - tr + t) | C, got C - tr + t = {d}, C = {C}")
    return Fraction((C - t * r) * d, 2 * C)


def sr2_subpacketization(C: int, r: int, t: int) -> Count:
    """Subpacketization is simply C wherever the scheme exists."""
    rate = sr2_rate(C, r, t)
    if isinstance(rate, Undefined):
        return rate
    return C


def is_prime_power(n: int) -> bool:
    """True when n = p^k for a prime p and k >= 1. Trial division up to sqrt(n)."""
    if n < 2:
        return False
    p = None
    for candidate in range(2, math.isqrt(n) + 1):
        if n % candidate == 0:
            p = candidate
            break
    if p is None:
        return True
    while n % p == 0:
        n //= p
    return n == 1


def crd_affine(n: int) -> Union[tuple[int, Fraction, int], Undefined]:
    """(K, rate, F) of the design-based scheme built from an affine plane of order n.

    C = n(n+1) caches, K = n^3(n+1)/2 users, each file in n^2 pieces, each
    cache holding the fraction 1/n, per-user rate (n-1)^2 / (4n^2).
    """
    if not is_prime_power(n):
        return Undefined(f"n = {n} is not a prime power")
    K = n ** 3 * (n + 1) // 2
    return K, Fraction((n - 1) ** 2 * K, 4 * n ** 2), n ** 2
