"""Exact subset combinatorics: binomial counts and lexicographic (un)ranking.

Every identifier in the multi-access caching scheme is a k-element subset of
the cache-label universe [n] = {1, ..., n}: users are r-subsets, subfile
indices are t-subsets, and coded transmissions are addressed by (t+r)-subsets.
This module fixes one canonical order over those subsets, lexicographic on the
sorted element tuple, and provides exact arbitrary-precision counting plus
rank/unrank conversion against that order.

Conventions: subsets are sorted tuples (or array rows) of 1-based labels,
ranks are 0-based. All functions are pure and safe for concurrent use. The
array forms return numpy arrays; the exact functions work on plain ints.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Iterator

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
    """0-based lexicographic rank of a k-subset among all k-subsets of [n]."""
    subset = validate_subset(elements, n)
    k = len(subset)
    rank = 0
    prev = 0
    for pos, e in enumerate(subset):
        for skipped in range(prev + 1, e):
            rank += binom(n - skipped, k - pos - 1)
        prev = e
    return rank


def unrank_subset(rank: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`: the k-subset of [n] at a given rank.

    Raises IndexError when ``rank`` is outside 0 .. C(n, k) - 1.
    """
    if k < 0 or k > n:
        raise IndexError(f"no {k}-subsets of [{n}] exist")
    total = binom(n, k)
    if not 0 <= rank < total:
        raise IndexError(f"rank {rank} out of range for {k}-subsets of [{n}] (0..{total - 1})")
    out = []
    candidate = 1
    remaining = rank
    for pos in range(k):
        # Advance past candidates whose branch of the lex tree is too small.
        while True:
            branch = binom(n - candidate, k - pos - 1)
            if remaining < branch:
                break
            remaining -= branch
            candidate += 1
        out.append(candidate)
        candidate += 1
    return tuple(out)


def enumerate_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield all k-subsets of [n] in lexicographic order (C(n, k) of them)."""
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    yield from combinations(range(1, n + 1), k)


def subset_array(n: int, k: int) -> np.ndarray:
    """All k-subsets of [n] as the rows of a (C(n, k), k) int64 array, in lex order."""
    flat = np.fromiter(chain.from_iterable(combinations(range(1, n + 1), k)), np.int64)
    return flat.reshape(binom(n, k), k)


def rank_subsets(subsets: np.ndarray, n: int) -> np.ndarray:
    """:func:`rank_subset` of every row of an array of sorted k-subsets of [n].

    Vectorised through rank = C(n, k) - 1 - sum_i C(n - c_i, k - i) over the
    row's labels c_0 < ... < c_{k-1}, one gather per column i from the
    column C(n - c, k - i) of a binomial table. Rows are not validated, and
    C(n, k) must stay below 2**63.
    """
    k = subsets.shape[-1]
    rank = np.full(subsets.shape[:-1], binom(n, k) - 1, np.int64)
    for i in range(k):
        rank -= np.array([binom(n - c, k - i) for c in range(n + 1)], np.int64)[subsets[..., i]]
    return rank
