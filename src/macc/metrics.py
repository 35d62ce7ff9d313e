"""The closed-form delivery rate and the memory-sharing rate curve.

Both are exact Fractions, read through ``baselines.read_block`` from the
PROPOSED block; decimal rendering is left to the harness. The other values
at a point (K, the per-user rate, F) are read from its
``harness.evaluate_scheme`` row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .baselines import Scheme, check_memory_fraction, read_block
from .scheme import SchemeParams


def delivery_rate(C: int, r: int, t: int) -> Fraction:
    """Total delivered volume in file units: binom(C, t+r) / binom(C, t).

    Defined for t = 0 as well (no caching, rate binom(C, r): one full file
    per user). Zero once t + r > C, where caches alone cover every demand.
    A bad point is refused as ``SchemeParams`` refuses it: C, then r, then t.
    The value is the integer-t cell of the PROPOSED block that
    ``baselines.read_block`` reads, made a Fraction.
    """
    SchemeParams(C, r, t, 1)
    ((_, rate, _, _),) = read_block(Scheme.PROPOSED, C, r, [(t, 1)])
    return Fraction(*rate)


def rate_memory_curve(C: int, r: int, memory_points: Sequence[Fraction]) -> list[Fraction]:
    """Rates along M/N, sharing memory between adjacent integer-t schemes.

    At M/N = t/C with integer t the value is the closed-form rate R(t);
    between grid points it is the straight line through the two neighbours.
    Rates are returned in input order, read through ``baselines.read_block``
    from the PROPOSED block over all the points at once.

    That line is the lower convex envelope because R is convex on 0..C.
    Up to t = C - r + 1, R(t) = prod_{j=1..r} ((C - r + 2j)/(t + j) - 1),
    and every factor is nonnegative, nonincreasing and convex there. A
    product of two such functions is again one ((fg)'' = f''g + 2f'g' + fg'',
    each term nonnegative), and R is 0 beyond that point.
    """
    SchemeParams(C, r, 0, 1)  # C and r as this scheme's range has them; t = 0 is in range
    ts = [check_memory_fraction(mn) * C for mn in memory_points]
    cells = read_block(Scheme.PROPOSED, C, r, [(t.numerator, t.denominator) for t in ts])
    return [Fraction(*rate) for _, rate, _, _ in cells]
