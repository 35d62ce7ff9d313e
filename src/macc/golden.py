"""Frozen reference data for regression checks.

Three hand-checked worked examples pin down the exact transmissions the
delivery rule must emit, and two published comparison tables pin down
per-user-rate ratios against the special-case competitor at r*t = C - 1.

Each example stores two listings, written as the nested tuples
``(coded_set, ((file_index, index_set), ...))`` that a ``Transmission`` equals:

* ``expected`` — the rule's output, terms in lexicographic order of the user
  subset they serve. Regression tests require the generator to match this
  exactly.
* ``as_listed`` — the sequence as it appears in the original reference
  listing of these examples. It is mathematically the same set of XOR
  messages, but two transmissions of the first example permute their terms,
  and the final transmission of the third example misprints two terms
  (a file index 4 that should be 7, and an index set {1,5} that should be
  {2,5}). Verification reports these differences as notes instead of
  failures, since an XOR is order-free and the rule output is what decodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheme import SchemeParams, Transmission


@dataclass(frozen=True)
class ReferenceExample:
    label: str
    params: SchemeParams
    requests: tuple[int, ...]
    expected: tuple[Transmission, ...]
    as_listed: tuple[Transmission, ...]


_EX1_EXPECTED: tuple[Transmission, ...] = (
    ((1, 2, 3), ((1, (3,)), (2, (2,)), (4, (1,)))),
    ((1, 2, 4), ((1, (4,)), (3, (2,)), (5, (1,)))),
    ((1, 3, 4), ((2, (4,)), (3, (3,)), (6, (1,)))),
    ((2, 3, 4), ((4, (4,)), (5, (3,)), (6, (2,)))),
)

_EX1_LISTED: tuple[Transmission, ...] = (
    ((1, 2, 3), ((1, (3,)), (2, (2,)), (4, (1,)))),
    ((1, 2, 4), ((1, (4,)), (5, (1,)), (3, (2,)))),
    ((1, 3, 4), ((2, (4,)), (3, (3,)), (6, (1,)))),
    ((2, 3, 4), ((5, (3,)), (6, (2,)), (4, (4,)))),
)

_EX2_EXPECTED: tuple[Transmission, ...] = (
    (
        (1, 2, 3, 4, 5),
        (
            (1, (4, 5)),
            (2, (3, 5)),
            (3, (3, 4)),
            (4, (2, 5)),
            (5, (2, 4)),
            (6, (2, 3)),
            (7, (1, 5)),
            (8, (1, 4)),
            (9, (1, 3)),
            (10, (1, 2)),
        ),
    ),
)

_EX3_EXPECTED: tuple[Transmission, ...] = (
    (
        (1, 2, 3, 4),
        ((1, (3, 4)), (2, (2, 4)), (3, (2, 3)), (5, (1, 4)), (6, (1, 3)), (8, (1, 2))),
    ),
    (
        (1, 2, 3, 5),
        ((1, (3, 5)), (2, (2, 5)), (4, (2, 3)), (5, (1, 5)), (7, (1, 3)), (9, (1, 2))),
    ),
    (
        (1, 2, 4, 5),
        ((1, (4, 5)), (3, (2, 5)), (4, (2, 4)), (6, (1, 5)), (7, (1, 4)), (10, (1, 2))),
    ),
    (
        (1, 3, 4, 5),
        ((2, (4, 5)), (3, (3, 5)), (4, (3, 4)), (8, (1, 5)), (9, (1, 4)), (10, (1, 3))),
    ),
    (
        (2, 3, 4, 5),
        ((5, (4, 5)), (6, (3, 5)), (7, (3, 4)), (8, (2, 5)), (9, (2, 4)), (10, (2, 3))),
    ),
)

_EX3_LISTED: tuple[Transmission, ...] = _EX3_EXPECTED[:4] + (
    (
        (2, 3, 4, 5),
        ((5, (4, 5)), (6, (3, 5)), (4, (3, 4)), (8, (1, 5)), (9, (2, 4)), (10, (2, 3))),
    ),
)

REFERENCE_EXAMPLES: tuple[ReferenceExample, ...] = (
    ReferenceExample(
        label="case 1 (C=4, r=2, t=1)",
        params=SchemeParams(num_caches=4, access_degree=2, cache_param=1, num_files=6),
        requests=(1, 2, 3, 4, 5, 6),
        expected=_EX1_EXPECTED,
        as_listed=_EX1_LISTED,
    ),
    ReferenceExample(
        label="case 2 (C=5, r=3, t=2)",
        params=SchemeParams(num_caches=5, access_degree=3, cache_param=2, num_files=10),
        requests=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
        expected=_EX2_EXPECTED,
        as_listed=_EX2_EXPECTED,
    ),
    ReferenceExample(
        label="case 3 (C=5, r=2, t=2)",
        params=SchemeParams(num_caches=5, access_degree=2, cache_param=2, num_files=10),
        requests=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
        expected=_EX3_EXPECTED,
        as_listed=_EX3_LISTED,
    ),
)

# Published parameter points where the r*t = C - 1 competitor beats this
# scheme on per-user rate. Columns: C, r, t, published ratio
# (per-user rate of this scheme) / (per-user rate of the competitor),
# rounded to 3-4 significant figures in the original table.
SPE_ADVANTAGE_ROWS: tuple[tuple[int, int, int, float], ...] = (
    (5, 2, 2, 1.25),
    (7, 3, 2, 1.4),
    (7, 2, 3, 1.4),
    (9, 4, 2, 1.5),
    (9, 2, 4, 1.5),
    (10, 3, 3, 1.458),
    (11, 5, 2, 1.571),
    (11, 2, 5, 1.571),
    (13, 6, 2, 1.625),
    (13, 4, 3, 1.418),
    (13, 3, 4, 1.418),
    (13, 2, 6, 1.625),
    (15, 7, 2, 1.667),
    (15, 2, 7, 1.667),
    (16, 5, 3, 1.347),
    (16, 3, 5, 1.347),
    (17, 8, 2, 1.7),
    (17, 4, 4, 1.24),
    (17, 2, 8, 1.7),
    (19, 9, 2, 1.727),
    (19, 6, 3, 1.268),
    (19, 3, 6, 1.268),
    (19, 2, 9, 1.727),
    (21, 10, 2, 1.75),
    (21, 5, 4, 1.064),
    (21, 4, 5, 1.064),
    (21, 2, 10, 1.75),
    (22, 7, 3, 1.192),
    (22, 3, 7, 1.192),
    (23, 11, 2, 1.769),
    (23, 2, 11, 1.769),
    (25, 12, 2, 1.786),
)

# Points with r*t = C - 1 where this scheme wins instead. Columns: C, r, t,
# published ratio (per-user rate of the competitor) / (per-user rate here).
PROPOSED_ADVANTAGE_ROWS: tuple[tuple[int, int, int, float], ...] = (
    (25, 6, 4, 1.097),
    (25, 4, 6, 1.097),
    (26, 5, 5, 1.205),
    (29, 7, 4, 1.274),
    (29, 4, 7, 1.274),
    (31, 10, 3, 1.006),
    (31, 6, 5, 1.537),
    (31, 5, 6, 1.537),
    (31, 3, 10, 1.006),
    (33, 8, 4, 1.47),
    (33, 4, 8, 1.47),
    (34, 11, 3, 1.064),
    (34, 3, 11, 1.064),
    (36, 7, 5, 1.94),
    (36, 5, 7, 1.94),
    (37, 12, 3, 1.123),
    (37, 9, 4, 1.685),
    (37, 6, 6, 2.131),
    (37, 4, 9, 1.685),
    (37, 3, 12, 1.123),
    (40, 13, 3, 1.182),
)

# Published ratio tables round to at most 4 significant figures.
TABLE_RATIO_TOLERANCE = 0.002
