"""Subset counting and lexicographic ranking.

The independent oracle for binomial values is a Pascal triangle built by
addition only; ranking is checked against full lexicographic enumeration.
"""

import pytest
from hypothesis import given, strategies as st

from macc.combinatorics import (
    binom,
    enumerate_subsets,
    rank_subset,
    rank_subsets,
    subset_array,
    unrank_subset,
    validate_subset,
)


def pascal_triangle(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def test_binom_spot_values():
    assert binom(4, 1) == 4
    assert binom(5, 2) == 10
    assert binom(5, 3) == 10
    assert binom(0, 0) == 1


def test_binom_out_of_range_is_zero():
    assert binom(2, -1) == 0
    assert binom(2, 3) == 0
    assert binom(0, 1) == 0


def test_binom_negative_n_rejected():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_matches_additive_pascal_triangle_up_to_128():
    rows = pascal_triangle(128)
    for n in range(129):
        for k in range(n + 1):
            assert binom(n, k) == rows[n][k]


def test_binom_pascal_identity_exhaustive():
    for n in range(1, 21):
        for k in range(n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_rank_spot_values():
    assert rank_subset((1, 2), 4) == 0
    assert rank_subset((3, 4), 4) == 5
    assert rank_subset((2, 3), 4) == 3
    for n in range(1, 8):
        for k in range(n + 1):
            assert rank_subset(tuple(range(1, k + 1)), n) == 0


def test_unrank_spot_values():
    assert unrank_subset(3, 2, 4) == (2, 3)
    assert unrank_subset(0, 1, 1) == (1,)
    assert unrank_subset(9, 2, 5) == (4, 5)


def test_unrank_out_of_range():
    with pytest.raises(IndexError):
        unrank_subset(6, 2, 4)
    with pytest.raises(IndexError):
        unrank_subset(-1, 2, 4)
    with pytest.raises(IndexError):
        unrank_subset(0, 5, 4)


def test_enumerate_matches_expected_listing():
    assert list(enumerate_subsets(4, 2)) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]
    assert list(enumerate_subsets(3, 3)) == [(1, 2, 3)]
    assert len(list(enumerate_subsets(5, 3))) == 10
    assert list(enumerate_subsets(3, 0)) == [()]


def test_enumerate_strictly_increasing_and_counted():
    for n in range(9):
        for k in range(n + 1):
            subsets = list(enumerate_subsets(n, k))
            assert len(subsets) == binom(n, k)
            assert subsets == sorted(subsets)
            assert len(set(subsets)) == len(subsets)


def test_roundtrip_bijection_exhaustive():
    for n in range(13):
        for k in range(n + 1):
            for i, subset in enumerate(enumerate_subsets(n, k)):
                assert rank_subset(subset, n) == i
                assert unrank_subset(i, k, n) == subset


def test_validate_subset_rejections():
    with pytest.raises(ValueError):
        validate_subset((1, 1), 4)
    with pytest.raises(ValueError):
        validate_subset((0, 2), 4)
    with pytest.raises(ValueError):
        validate_subset((3, 5), 4)
    with pytest.raises(ValueError):
        validate_subset((1, 2), 4, size=3)
    assert validate_subset((3, 1), 4) == (1, 3)


@given(st.data())
def test_rank_unrank_roundtrip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    k = data.draw(st.integers(min_value=0, max_value=n))
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=k, max_size=k)
    )))
    rank = rank_subset(subset, n)
    assert 0 <= rank < binom(n, k)
    assert unrank_subset(rank, k, n) == subset


def test_subset_array_and_rank_subsets_match_scalar_versions():
    for n in range(1, 10):
        for k in range(1, n + 1):
            rows = subset_array(n, k)
            assert [tuple(row) for row in rows.tolist()] == list(enumerate_subsets(n, k))
            assert rank_subsets(rows, n).tolist() == list(range(binom(n, k)))
    # Any leading shape, one subset per last-axis row.
    rows = subset_array(7, 3)[[[4, 0], [34, 9]]]
    assert rank_subsets(rows, 7).tolist() == [[4, 0], [34, 9]]
