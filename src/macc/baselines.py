"""Analytic rate and subpacketization formulas of every scheme in the sweep.

For the seven comparison schemes only the published closed forms are
implemented, never the constructions. Each operation returns an exact value
where the scheme exists and an :class:`Undefined` marker (carrying the
reason) where its preconditions fail, so sweeps can render gaps instead of
crashing. ``CELLS`` gives each scheme's sweep cells (K, rate, F, note) over
a whole block of points, this package's own scheme included: its rate and
memory-sharing curve are wrapped by ``macc.metrics``. Each scheme's
existence rule and rate are stated once, in integers, in that block
function, with a rate as a lowest-terms pair (p, q). A public rate is one
point of its block, read as a Fraction or a gap by ``_rate_at``. Every
public formula refuses C < 1, then r < 1, through ``check_counts``, and
one with a cache parameter t then refuses t < 0 through ``_check_t``.
``read_block`` is the one reader of a block, for the sweep and the public
formulas alike: it decides the gaps every scheme shares, a t beyond C and
then an r beyond C.

Scheme tags: PROPOSED is this package's scheme, with K = binom(C, r) users.
HKD, RK and RK_LB (the same work's converse bound), SPE, CLWZC, SR1, SR2 all
live on the cyclic setup with K = C users; CRD_AFFINE is the design-based
scheme parameterized by a prime power n.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
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
Pair = tuple[int, int]
"""A rational p/q as the integers (p, q) in lowest terms, q > 0."""

_ZERO = (0, 1)


def _lowest(p: int, q: int) -> Pair:
    g = math.gcd(p, q)
    return p // g, q // g


def _fraction(rate: Union[Pair, Undefined]) -> Rational:
    return rate if isinstance(rate, Undefined) else Fraction(*rate)


def check_memory_fraction(mn: Fraction) -> Fraction:
    if not isinstance(mn, Fraction):
        mn = Fraction(mn)
    if not 0 <= mn.numerator <= mn.denominator:
        raise ValueError(f"memory fraction {mn} outside [0, 1]")
    return mn


def check_counts(C: int, r: int) -> None:
    """Refuse a cache count C < 1, then an access degree r < 1, at every entry point."""
    if C < 1:
        raise ValueError(f"cache count must be positive, got {C}")
    if r < 1:
        raise ValueError(f"access degree must be positive, got {r}")


def _check_t(t: int) -> None:
    """Refuse t < 0 at a comparison reader; a t beyond C is ``read_block``'s gap."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")


Cells = Union[tuple[int, Union[Pair, Undefined], Count, str], Undefined]
"""(K, rate, F, note) of a scheme at one point, or the gap where it does not exist."""

Block = Union[list[Cells], Undefined]
"""The cells of one (scheme, C, r) block point by point, or one gap for all of it.

The functions in ``CELLS`` take (C, r, grid) with 1 <= r <= C, where grid
holds the pair (p, q) of each point's cache parameter t = p/q, 0 <= t <= C.
M/N is t / C.
"""

_INTEGER_ONLY_GAP = Undefined("defined only at integer cache parameters")


def _at_integer_t(cells_at: Callable[[int, int, int], Cells], C: int, r: int,
                  grid: Sequence[Pair]) -> list[Cells]:
    """``cells_at(C, r, t)`` at each integer t of ``grid``, one shared gap elsewhere."""
    return [cells_at(C, r, p) if q == 1 else _INTEGER_ONLY_GAP for p, q in grid]


def read_block(scheme: Scheme, C: int, r: int, grid: Sequence[Pair]) -> Block:
    """The cells of ``scheme`` at each t = p/q of ``grid``, which is sorted by t.

    The gaps every scheme shares are decided here, in this order: a t beyond
    C, then an r beyond C (the rest of the block). Any further gap is the
    scheme's own, from its ``CELLS`` function, called once. A block with no
    t beyond C that is a gap throughout comes back as that one gap.
    """
    n = len(grid)
    while n and grid[n - 1][0] > C * grid[n - 1][1]:
        n -= 1
    cells = (Undefined(f"access degree {r} exceeds cache count {C}") if r > C
             else CELLS[scheme](C, r, grid[:n]))
    if n == len(grid):
        return cells
    return ([cells] * n if isinstance(cells, Undefined) else cells) + [
        Undefined(f"cache parameter {Fraction(p, q)} exceeds cache count {C}") for p, q in grid[n:]
    ]


def read_point(scheme: Scheme, C: int, r: int, point: Pair) -> Cells:
    """``read_block`` at the one point t = p/q: its cells, or its gap."""
    cells = read_block(scheme, C, r, [point])
    return cells if isinstance(cells, Undefined) else cells[0]


def _rate_at(scheme: Scheme, C: int, r: int, point: Pair) -> Rational:
    """The rate of ``scheme`` at one point as a public value: a gap of the
    point's cells or of its rate comes back as that gap, a rate as a Fraction."""
    cells = read_point(scheme, C, r, point)
    return cells if isinstance(cells, Undefined) else _fraction(cells[1])


_SHARING_GAP = Undefined("memory sharing point")
_SHARING_NOTE = "memory sharing between adjacent integer cache parameters"


def _proposed(C: int, r: int, grid: Sequence[Pair]) -> list[Cells]:
    """This package's scheme: binom(C, t+r) / binom(C, t) with F = binom(C, t)
    at an integer t, and at a fractional t the chord between its two integer
    neighbours (memory sharing), which has no single F. Each integer-t rate
    the grid needs is computed once.
    """
    K = math.comb(C, r)
    needed = {t for p, q in grid for t in (p // q, -(-p // q))}
    rates = {t: _lowest(math.comb(C, t + r), math.comb(C, t)) for t in needed}
    cells = []
    for p, q in grid:
        low, rest = divmod(p, q)
        a, b = rates[low]
        if not rest:
            cells.append((K, (a, b), math.comb(C, low), ""))
            continue
        # a/b + (rest/q) * (c/d - a/b) over one denominator.
        c, d = rates[low + 1]
        cells.append((K, _lowest(a * d * q + rest * (c * b - a * d), b * d * q),
                      _SHARING_GAP, _SHARING_NOTE))
    return cells


def _cyclic_rate(C: int, r: int, p: int, q: int) -> Pair:
    """(C - r*t) / (1 + t) at t = p/q, zero once r*t reaches C: HKD's and CLWZC's rate."""
    return _lowest(C * q - r * p, q + p) if C * q > r * p else _ZERO


_NON_INTEGER_T = Undefined("non-integer t")


def _hkd(C: int, r: int, grid: Sequence[Pair]) -> Block:
    if C % r != 0:
        return Undefined(f"requires r | C, got C={C}, r={r}")
    # F = r * binom(C/r, t), zero once t exceeds C/r.
    return [
        (C, _cyclic_rate(C, r, p, q),
         r * math.comb(C // r, p) if q == 1 else _NON_INTEGER_T, "")
        for p, q in grid
    ]


def hkd_rate(C: int, r: int, mn: Fraction) -> Rational:
    """Rate (C - C*r*mn) / (1 + C*mn), zero once mn reaches 1/r.

    Exists only when r divides C (K = C users on consecutive caches).
    """
    check_counts(C, r)
    mn = check_memory_fraction(mn)
    return _rate_at(Scheme.HKD, C, r, _lowest(C * mn.numerator, mn.denominator))


_RK_OFF_GRID = Undefined("defined only on the grid M/N = i/C")
_RK_F = Undefined("subpacketization not modeled for this scheme")


def _rk_cells(C: int, r: int, i: int) -> Cells:
    ceil_cr = -(-C // r)
    if i > ceil_cr:
        return Undefined(f"grid index i={i} outside 0..{ceil_cr} for C={C}, r={r}")
    rate = _ZERO if i == ceil_cr and C % r != 0 else _lowest((C - r * i) ** 2, C)
    return C, rate, _RK_F, ""


def _rk(C: int, r: int, grid: Sequence[Pair]) -> Block:
    return [_rk_cells(C, r, p) if q == 1 else _RK_OFF_GRID for p, q in grid]


def rk_rate(C: int, r: int, i: int) -> Rational:
    """Rate C*(1 - r*i/C)^2 at M/N = i/C for i >= 0: zero at ceil(C/r), undefined past it."""
    check_counts(C, r)
    _check_t(i)
    return _rate_at(Scheme.RK, C, r, (i, 1))


_RK_LB_F = Undefined("converse bound, not a construction")


def _rk_lb(C: int, r: int, grid: Sequence[Pair]) -> Block:
    """Three pieces in t = C*mn: C - (C - Q)*t up to t = 1, then Q*(2 - t) to
    t = 2, then zero, with Q = (C - r)(C - r + 1) / (2C). The pieces agree
    exactly at both breakpoints. Over 2Cq at t = p/q: the first piece is
    2C^2*q - (2C^2 - n)*p and the second n*(2q - p), n = 2C*Q.
    """
    if 2 * r < C:
        return Undefined(f"bound stated only for r >= C/2, got C={C}, r={r}")
    n, square = (C - r) * (C - r + 1), 2 * C * C
    note = "lower bound on optimal rate under uncoded placement"
    return [
        (C,
         _lowest(square * q - (square - n) * p, 2 * C * q) if p <= q
         else _lowest(n * (2 * q - p), 2 * C * q) if p <= 2 * q
         else _ZERO,
         _RK_LB_F, note)
        for p, q in grid
    ]


def rk_lower_bound(C: int, r: int, mn: Fraction) -> Rational:
    """Optimal-rate lower bound under uncoded placement, valid for r >= C/2.

    Three pieces: linear down from C on [0, 1/C], then a shallower line to
    zero on [1/C, 2/C], then zero (see ``_rk_lb``).
    """
    check_counts(C, r)
    mn = check_memory_fraction(mn)
    return _rate_at(Scheme.RK_LB, C, r, _lowest(C * mn.numerator, mn.denominator))


def spe_subpacketization(C: int, r: int) -> Count:
    """C*(C - 2r + 2)/4 where integral and positive (needs r < (C+2)/2)."""
    check_counts(C, r)
    if 2 * r >= C + 2:
        return Undefined(f"requires r < (C+2)/2, got C={C}, r={r}")
    numerator = C * (C - 2 * r + 2)
    if numerator % 4 != 0:
        return Undefined(f"C(C-2r+2) = {numerator} not divisible by 4")
    return numerator // 4


def _spe_special(C: int, r: int, t: int) -> Union[Pair, Undefined]:
    if r * t != C - 1:
        return Undefined(f"special case needs r*t = C-1, got r*t = {r * t}, C = {C}")
    return _lowest(C - r * t, 1 + r * t)


def spe_special_rate(C: int, r: int, t: int) -> Rational:
    """Rate of the optimal special case r = (C-1)/t: always 1/C, with F = C."""
    check_counts(C, r)
    _check_t(t)
    return _fraction(_spe_special(C, r, t))


_SPE_ELSEWHERE = Undefined("exists for C*M/N = 2 or r*t = C-1 only")
_SPE_RATE = Undefined("general rate expression not reproduced here")


def _spe_cells(C: int, r: int, t: int) -> Cells:
    special = _spe_special(C, r, t)
    if not isinstance(special, Undefined):
        return C, special, C, "optimal special case r*t = C-1"
    if t != 2:
        return _SPE_ELSEWHERE
    F = spe_subpacketization(C, r)
    note = F.reason if isinstance(F, Undefined) else "subpacketization only"
    return C, _SPE_RATE, F, note


def clwzc_rate(C: int, r: int, t: int) -> Rational:
    """Rate (C - t*r)/(1 + t), clamped to zero once caches cover everything."""
    check_counts(C, r)
    _check_t(t)
    return _rate_at(Scheme.CLWZC, C, r, (t, 1))


def _clwzc_F(C: int, r: int, t: int) -> int:
    inner = C - t * (r - 1)
    return 0 if inner < t else C * math.comb(inner, t)


def clwzc_subpacketization(C: int, r: int, t: int) -> int:
    """C * binom(C - t(r-1), t); zero when the inner binomial collapses."""
    check_counts(C, r)
    _check_t(t)
    return _clwzc_F(C, r, t)


def _clwzc_cells(C: int, r: int, t: int) -> Cells:
    return C, _cyclic_rate(C, r, t, 1), _clwzc_F(C, r, t), ""


def _sr1_sum(C: int, r: int, t: int) -> Pair:
    tr, m = t * r, C - t * r
    p, q = 0, 1
    for i in range(m // 2 + 1, m + 1):
        d = 1 + -(-tr // i)
        p, q = p * d + (1 if 2 * i == m + 1 else 2) * q, q * d
    return _lowest(p, q)


def sr1_rate_value(C: int, r: int, t: int) -> Fraction:
    """Sum over i = floor(m/2)+1..m of w_i / (1 + ceil(tr/i)), m = C - tr.

    w_i = 2 except w_i = 1 at 2i = m + 1. No existence preconditions, so the
    arithmetic can be exercised at points :func:`sr1_rate` excludes. For odd
    m > 1 the published leading ceiling contains symbols with no definition
    in scope; the weight-1 term, ceil(tr/i) = ceil(2tr/(m+1)), stands in for
    it, extrapolating the even branch's pattern at i = (m+1)/2. That is an
    assumption, not ground truth.
    """
    check_counts(C, r)
    _check_t(t)
    if t * r > C:
        raise ValueError(f"needs t*r <= C, got C={C}, r={r}, t={t}")
    return Fraction(*_sr1_sum(C, r, t))


_SR1_F = Undefined("only the bound F <= C^2 is published")


def _sr1_cells(C: int, r: int, t: int) -> Cells:
    if t < 1 or math.gcd(t, C) != 1:
        return Undefined(f"requires gcd(t, C) = 1 with t >= 1, got C={C}, t={t}")
    if t * r > C:
        return Undefined(f"requires t*r <= C, got t*r = {t * r}, C = {C}")
    m = C - t * r
    note = "interpretation-dependent odd-branch leading term" if m > 1 and m % 2 == 1 else ""
    return C, _sr1_sum(C, r, t), _SR1_F, note


def sr1_rate(C: int, r: int, t: int) -> Rational:
    """Cyclic-setup rate for cache parameters t with gcd(t, C) = 1.

    Odd C - t*r > 1 goes through the interpretation-dependent leading term
    (see :func:`sr1_rate_value`); the sweep row's note flags it.
    """
    check_counts(C, r)
    _check_t(t)
    return _rate_at(Scheme.SR1, C, r, (t, 1))


def _sr2_cells(C: int, r: int, t: int) -> Cells:
    if t < 1 or C % t != 0:
        return Undefined(f"requires t | C with t >= 1, got C={C}, t={t}")
    if t * r > C:
        return Undefined(f"requires t*r <= C, got t*r = {t * r}, C = {C}")
    d = C - t * r + t
    if d <= 0 or C % d != 0:
        return Undefined(f"requires (C - tr + t) | C, got C - tr + t = {d}, C = {C}")
    return C, _lowest((C - t * r) * d, 2 * C), C, ""


def sr2_rate(C: int, r: int, t: int) -> Rational:
    """Rate (C - tr)(C - tr + t) / (2C) where t | C and (C - tr + t) | C."""
    check_counts(C, r)
    _check_t(t)
    return _rate_at(Scheme.SR2, C, r, (t, 1))


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


def _crd_at(n: int) -> Union[tuple[int, Pair, int], Undefined]:
    if not is_prime_power(n):
        return Undefined(f"n = {n} is not a prime power")
    K = n ** 3 * (n + 1) // 2
    return K, _lowest((n - 1) ** 2 * K, 4 * n ** 2), n ** 2


def crd_affine(n: int) -> Union[tuple[int, Fraction, int], Undefined]:
    """(K, rate, F) of the design-based scheme built from an affine plane of order n.

    C = n(n+1) caches, K = n^3(n+1)/2 users, each file in n^2 pieces, each
    cache holding the fraction 1/n, per-user rate (n-1)^2 / (4n^2).
    """
    cells = _crd_at(n)
    if isinstance(cells, Undefined):
        return cells
    K, rate, F = cells
    return K, Fraction(*rate), F


def _crd_cells(C: int, n: int, p: int, q: int) -> Cells:
    if n * (n + 1) != C or (p, q) != (n + 1, 1):
        t = p if q == 1 else f"{p}/{q}"
        return Undefined(f"needs C = n(n+1) and t = n+1 for a prime power n, got C={C}, t={t}")
    cells = _crd_at(n)
    if isinstance(cells, Undefined):
        return cells
    return (*cells, f"affine-plane parameters with n = {n}; r plays no role")


def _crd_affine(C: int, r: int, grid: Sequence[Pair]) -> Block:
    # Each gap names its t, so no block shares one gap.
    n = math.isqrt(C)
    return [_crd_cells(C, n, p, q) for p, q in grid]


CELLS: dict[Scheme, Callable[[int, int, Sequence[Pair]], Block]] = {
    Scheme.PROPOSED: _proposed,
    Scheme.HKD: _hkd,
    Scheme.RK: _rk,
    Scheme.RK_LB: _rk_lb,
    Scheme.SPE: functools.partial(_at_integer_t, _spe_cells),
    Scheme.CLWZC: functools.partial(_at_integer_t, _clwzc_cells),
    Scheme.SR1: functools.partial(_at_integer_t, _sr1_cells),
    Scheme.SR2: functools.partial(_at_integer_t, _sr2_cells),
    Scheme.CRD_AFFINE: _crd_affine,
}
