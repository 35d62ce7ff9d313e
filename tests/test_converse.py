"""A converse oracle for the sweep: no defined rate beats the cut-set bound.

Cut-set bound (Maddah-Ali and Niesen, "Fundamental Limits of Caching", IEEE
Trans. IT 2014, Theorem 2): s users who together read u caches, each of M
files' worth, need a rate R >= s - u*M / floor(N/s). The swept rates depend
on M/N only, so take N a multiple of every s; then R >= s * (1 - u*M/N).
The bound shares no reasoning with any scheme's construction or formula.

- This package's model: the users are the r-subsets of C caches, so the
  binom(u, r) users inside any u caches read exactly those u caches, and
  R >= max over u of binom(u, r) * (1 - u*M/N).
- The cyclic model (HKD, RK, SPE, CLWZC, SR1, SR2, with K = C users): s
  consecutive users read min(C, s + r - 1) caches, and
  R >= max over s of s * (1 - min(C, s + r - 1) * M/N).

RK_LB is itself a lower bound on the cyclic model's rate under uncoded
placement (for r >= C/2), not a rate that some scheme achieves, so it is
checked as a second converse: every defined rate of HKD, RK, SPE, CLWZC,
SR1 and SR2 is at least RK_LB at the same (C, r, M/N). PROPOSED is left out
of that check, because its users are the binom(C, r) r-subsets of the
caches, not the C cyclic users RK_LB speaks of. CRD_AFFINE is left out of
both: its users read caches by the lines of an affine plane, a model
neither count above describes.

The grid is the benchmark's full sweep: C, r = 1..16 and every M/N = p/q in
[0, 1] with q <= 16. The cells are those the sweep writes, from
``baselines.CELLS``, and every comparison is made in integers.
"""

import functools
import math
from fractions import Fraction

import pytest

from macc.baselines import CELLS, Scheme, Undefined

SIZES = range(1, 17)
MEMORY = sorted({Fraction(p, q) for q in range(1, 17) for p in range(q + 1)})


def grid_of(C):
    """The sweep's points at cache count C: each t = C*M/N as a pair (p, q)."""
    return [(t.numerator, t.denominator) for t in (mn * C for mn in MEMORY)]


@functools.cache
def proposed_bound(C, r, m, n):
    """The bound of this package's model at M/N = m/n, times n."""
    return max(math.comb(u, r) * (n - u * m) for u in range(C + 1))


@functools.cache
def cyclic_bound(C, r, m, n):
    """The bound of the cyclic model at M/N = m/n, times n."""
    return max(s * (n - min(C, s + r - 1) * m) for s in range(C + 1))


def test_bounds_at_known_points():
    # No caching: every user needs its whole file.
    assert proposed_bound(4, 2, 0, 1) == math.comb(4, 2)
    assert cyclic_bound(6, 2, 0, 1) == 6
    # One user with one cache lacks 11/12 of its file at M/N = 1/12.
    assert Fraction(cyclic_bound(1, 1, 1, 12), 12) == Fraction(11, 12)
    # (4, 2) at M/N = 1/8: the 6 users inside all 4 caches need 6 * (1 - 4/8).
    assert Fraction(proposed_bound(4, 2, 1, 8), 8) == 3
    # Full caches need nothing.
    assert proposed_bound(5, 3, 1, 1) == cyclic_bound(5, 3, 1, 1) == 0


def cut_set_floors(scheme):
    """The cut-set bound of ``scheme``'s model at each M/N, as a pair, for any (C, r)."""
    bound = proposed_bound if scheme is Scheme.PROPOSED else cyclic_bound
    return lambda C, r: [(bound(C, r, mn.numerator, mn.denominator), mn.denominator)
                         for mn in MEMORY]


def rk_lb_floors(C, r):
    """RK_LB at each M/N as a pair, or None where it is not stated (2r < C)."""
    cells = CELLS[Scheme.RK_LB](C, r, grid_of(C))
    return None if isinstance(cells, Undefined) else [cell[1] for cell in cells]


def rows_below_bound(scheme, integer_t, floors):
    """(rows checked, rows below the bound) for one scheme over the grid.

    ``floors(C, r)`` gives the bound at each M/N as a pair (a, b), or None
    where there is none. ``integer_t`` keeps only the rows at an integer t
    (True), only those at a fractional t (False), or all (None). A row whose
    rate is undefined is not checked.
    """
    checked, below = 0, []
    for C in SIZES:
        grid = grid_of(C)
        for r in range(1, C + 1):
            cells = CELLS[scheme](C, r, grid)
            bounds = None if isinstance(cells, Undefined) else floors(C, r)
            if bounds is None:
                continue
            for mn, (p, q), cell, (c, d) in zip(MEMORY, grid, cells, bounds):
                if isinstance(cell, Undefined) or isinstance(cell[1], Undefined):
                    continue
                if integer_t is not None and (q == 1) != integer_t:
                    continue
                a, b = cell[1]
                checked += 1
                if a * d < b * c:
                    below.append((C, r, str(mn), f"{a}/{b}", str(Fraction(c, d))))
    return checked, below


@pytest.mark.parametrize(
    "scheme, integer_t",
    [
        (Scheme.PROPOSED, None),
        (Scheme.HKD, True),
        pytest.param(Scheme.HKD, False, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 7: HKD evaluates its closed form at a fractional t, "
                   "which beats the bound at 431 rows (C = r = 1, M/N = 1/12: 11/13 < 11/12)",
        )),
        (Scheme.RK, None),
        (Scheme.SPE, None),
        (Scheme.CLWZC, None),
        (Scheme.SR1, None),
        (Scheme.SR2, None),
    ],
    ids=["proposed", "hkd-integer-t", "hkd-fractional-t", "rk", "spe", "clwzc", "sr1", "sr2"],
)
def test_every_defined_rate_meets_the_cut_set_bound(scheme, integer_t):
    checked, below = rows_below_bound(scheme, integer_t, cut_set_floors(scheme))
    assert checked > 0
    assert below == [], f"{len(below)} of {checked} rows below the bound, e.g. {below[:3]}"


@pytest.mark.parametrize(
    "scheme, integer_t",
    [
        (Scheme.HKD, True),
        pytest.param(Scheme.HKD, False, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 7: HKD evaluates its closed form at a fractional t, "
                   "which falls below RK_LB at 355 rows (C = r = 1, M/N = 1/16: 15/17 < 15/16)",
        )),
        (Scheme.RK, None),
        (Scheme.SPE, None),
        (Scheme.CLWZC, None),
        (Scheme.SR1, None),
        (Scheme.SR2, None),
    ],
    ids=["hkd-integer-t", "hkd-fractional-t", "rk", "spe", "clwzc", "sr1", "sr2"],
)
def test_every_defined_cyclic_rate_meets_rk_lb(scheme, integer_t):
    checked, below = rows_below_bound(scheme, integer_t, rk_lb_floors)
    assert checked > 0
    assert below == [], f"{len(below)} of {checked} rows below RK_LB, e.g. {below[:3]}"
