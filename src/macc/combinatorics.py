"""Exact subset combinatorics: binomial counts and lexicographic (un)ranking.

Every identifier in the multi-access caching scheme is a k-element subset of
the cache-label universe [n] = {1, ..., n}: users are r-subsets, subfile
indices are t-subsets, and coded transmissions are addressed by (t+r)-subsets.
This module fixes one canonical order over those subsets, lexicographic on the
sorted element tuple, and provides exact arbitrary-precision counting plus
rank/unrank conversion against that order.

Conventions: subsets are sorted tuples (or array rows) of 1-based labels,
ranks are 0-based. All functions are pure and safe for concurrent use. The
array forms return numpy arrays and import numpy on their first call; the
exact functions work on plain ints and never load it.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exact at any size, 0 outside 0 <= k <= n.

    The out-of-range zero is load-bearing: the accessible fraction
    1 - C(C-r, t)/C(C, t) relies on C(C-r, t) vanishing once t exceeds C - r.
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def validate_subset(elements: Iterable[int], n: int, size: int | None = None) -> tuple[int, ...]:
    """Normalize a subset of [n] to a sorted tuple, rejecting invalid input.

    Raises ValueError on duplicate elements, labels outside 1..n, or (when
    ``size`` is given) wrong cardinality.
    """
    subset = tuple(sorted(elements))
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate elements in subset {subset}")
    if subset and not (1 <= subset[0] and subset[-1] <= n):
        raise ValueError(f"subset {subset} has elements outside 1..{n}")
    if size is not None and len(subset) != size:
        raise ValueError(f"subset {subset} has size {len(subset)}, expected {size}")
    return subset


def rank_subset(elements: Iterable[int], n: int) -> int:
    """0-based lexicographic rank of a k-subset among all k-subsets of [n]:
    the identity of :func:`rank_weights`, in exact integers at any size."""
    subset = validate_subset(elements, n)
    k = len(subset)
    return binom(n, k) - 1 - sum(binom(n - c, k - i) for i, c in enumerate(subset))


def unrank_subset(rank: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`: the k-subset of [n] at a given rank.

    Inverts the identity of :func:`rank_weights` greedily: c_i is the first
    label after c_{i-1} whose term C(n - c_i, k - i) fits in what is left of
    the C(n, k) - 1 - rank subsets after it. Raises IndexError when ``rank``
    is outside 0 .. C(n, k) - 1.
    """
    if k < 0 or k > n:
        raise IndexError(f"no {k}-subsets of [{n}] exist")
    total = binom(n, k)
    if not 0 <= rank < total:
        raise IndexError(f"rank {rank} out of range for {k}-subsets of [{n}] (0..{total - 1})")
    out, after = [0], total - 1 - rank
    for i in range(k):
        out.append(next(c for c in range(out[-1] + 1, n + 1) if binom(n - c, k - i) <= after))
        after -= binom(n - out[-1], k - i)
    return tuple(out[1:])


def enumerate_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield all k-subsets of [n] in lexicographic order (C(n, k) of them)."""
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    yield from combinations(range(1, n + 1), k)


# The (n, k) tables are built once each and shared: at most this many are kept.
_TABLES = 32
INT64_MAX = (1 << 63) - 1


@functools.lru_cache(maxsize=_TABLES)
def subset_array(n: int, k: int) -> np.ndarray:
    """All k-subsets of [n] as the rows of a (C(n, k), k) int64 array, in lex
    order. Built once per (n, k): the array is shared, read-only."""
    import numpy as np

    flat = np.fromiter(chain.from_iterable(combinations(range(1, n + 1), k)), np.int64)
    rows = flat.reshape(binom(n, k), k)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=_TABLES)
def rank_weights(n: int, k: int) -> np.ndarray:
    """The (n + 1, k) int64 table of C(n - x, k - i) at row x, column i, each
    entry saturated at 2**63 - 1. Built once per (n, k): shared, read-only.

    The lex rank of a k-subset c_0 < ... < c_{k-1} of [n] is
    C(n, k) - 1 - sum_i table[c_i, i]: the subsets after it number
    sum_i C(n - c_i, k - i). Each term is at most that sum, so at most
    C(n, k) - 1: when C(n, k) fits in int64, no entry a rank reads is
    saturated. Only entries at a (label, place) that no k-subset of [n] has,
    such as C(69, 35) at row 1, column 34 of the (70, 69) table, can be.
    """
    import numpy as np

    table = np.array([[min(binom(n - x, k - i), INT64_MAX) for i in range(k)]
                      for x in range(n + 1)], np.int64).reshape(n + 1, k)
    table.flags.writeable = False
    return table


def rank_subsets(subsets: np.ndarray, n: int) -> np.ndarray:
    """:func:`rank_subset` of every row of an array of sorted k-subsets of [n],
    read from :func:`rank_weights`. Rows are not validated."""
    import numpy as np

    k = subsets.shape[-1]
    weights, rank = rank_weights(n, k), np.full(subsets.shape[:-1], binom(n, k) - 1, np.int64)
    for i in range(k):
        rank -= weights[subsets[..., i], i]
    return rank
