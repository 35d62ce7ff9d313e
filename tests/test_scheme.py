"""Placement, delivery, decoding and byte-level simulation."""

import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import macc.scheme as scheme
from macc.combinatorics import binom, enumerate_subsets, rank_subset, unrank_subset
from macc.golden import REFERENCE_EXAMPLES, plain
from macc.harness import SplitMix64, make_demand, scheme_dump, simulate_report
from macc.scheme import (
    CacheContent,
    DecodingError,
    DemandAssignment,
    DemandError,
    SchemeParams,
    SubfileId,
    Transmission,
    accessible_fraction,
    build_placement,
    cache_subfiles,
    decode_user,
    generate_transmissions,
    simulate_end_to_end,
)

EX1, EX2, EX3 = REFERENCE_EXAMPLES

# Frozen: decoding trace of the first example's user {1,2} demanding file 1.
EX1_USER_12_PEELED = {SubfileId(1, (3,)), SubfileId(1, (4,))}
EX1_USER_12_CACHED = {SubfileId(1, (1,)), SubfileId(1, (2,))}

# Frozen: accessible index count for C=5, t=2, user {1,2,3} (brute force).
ACCESSIBLE_C5_T2_R3_COUNT = 9


def full_demand(params, offset=0):
    files = [1 + (i + offset) % params.num_files for i in range(params.num_users)]
    return DemandAssignment.from_request_vector(params, files)


def accessible(params, user):
    """Index sets a user reads: the union of its caches under ``cache_subfiles``."""
    per_cache = cache_subfiles(params)
    return {subfile.index_set for k in user for subfile in per_cache[k]}


def plan_for(params, demand):
    """``_delivery_plan`` over the users and files ``_check_demand`` reads from ``demand``."""
    _, users, files = scheme._check_demand(params, demand, strict=False)
    return scheme._delivery_plan(params, users, files)


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(0, 1, 1, 1)
    with pytest.raises(ValueError):
        SchemeParams(4, 5, 1, 1)
    with pytest.raises(ValueError):
        SchemeParams(4, 0, 1, 1)
    with pytest.raises(ValueError):
        SchemeParams(4, 2, 5, 1)
    with pytest.raises(ValueError):
        SchemeParams(4, 2, -1, 1)
    with pytest.raises(ValueError):
        SchemeParams(4, 2, 1, 0)
    # A field that is not an integer is refused by name, before any range.
    with pytest.raises(ValueError, match=r"^cache_param must be an integer, got 1\.5$"):
        SchemeParams(4, 2, 1.5, 6)
    with pytest.raises(ValueError, match=r"^num_files must be an integer, got 0\.5$"):
        SchemeParams(4, 2, 1, 0.5)
    assert SchemeParams(*np.array([4, 2, 1, 6])) == SchemeParams(4, 2, 1, 6)
    # t = 0 is no caching: one subfile per file.
    assert SchemeParams(4, 2, 0, 1).subpacketization == 1
    p = SchemeParams(4, 3, 2, 6)
    assert p.num_users == 4
    assert p.subpacketization == 6


def test_placement_small_case_exact():
    caches = build_placement(EX1.params)
    assert len(caches) == 4
    z1 = caches[0]
    assert z1.cache_label == 1
    assert z1.subfiles == frozenset(SubfileId(i, (1,)) for i in range(1, 7))


def test_placement_pair_index_sets():
    params = SchemeParams(5, 3, 2, 10)
    caches = build_placement(params)
    index_sets = {s.index_set for s in caches[0].subfiles}
    assert index_sets == {(1, 2), (1, 3), (1, 4), (1, 5)}
    for i in range(1, 11):
        assert SubfileId(i, (1, 4)) in caches[0].subfiles


def test_placement_full_replication_at_t_equal_C():
    params = SchemeParams(3, 1, 3, 2)
    caches = build_placement(params)
    for cache in caches:
        assert cache.subfiles == frozenset({SubfileId(1, (1, 2, 3)), SubfileId(2, (1, 2, 3))})


def test_placement_size_invariant():
    for C in range(1, 7):
        for t in range(1, C + 1):
            params = SchemeParams(C, 1, t, 3)
            for cache in build_placement(params):
                assert len(cache.subfiles) == 3 * binom(C - 1, t - 1)
                for subfile in cache.subfiles:
                    assert cache.cache_label in subfile.index_set


def test_dump_caches_are_the_placement():
    # The dump's tokens and order against the caches decode_user reads.
    for C in range(1, 7):
        for r in range(1, C + 1):
            for t in range(C + 1):
                for N in (1, 3):
                    params = SchemeParams(C, r, t, N)
                    demand = make_demand(params, "random", SplitMix64(C * r + t))
                    dump = scheme_dump(params, demand, strict=False)
                    assert list(dump["caches"].items()) == [
                        (str(cache.cache_label), [
                            f"{s.file_index}:{{{','.join(map(str, s.index_set))}}}"
                            for s in sorted(cache.subfiles)
                        ])
                        for cache in build_placement(params)
                    ], (C, r, t, N)


def test_accessible_indices_examples():
    got = accessible(SchemeParams(5, 3, 2, 1), (1, 2, 3))
    assert len(got) == ACCESSIBLE_C5_T2_R3_COUNT
    assert (4, 5) not in got
    assert accessible(SchemeParams(4, 2, 1, 1), (1, 2)) == {(1,), (2,)}
    for c in (1, 3):
        assert (c,) in accessible(SchemeParams(4, 2, 1, 1), (1, 3))


def test_accessible_fraction_examples():
    assert accessible_fraction(SchemeParams(5, 3, 2, 1)) == Fraction(9, 10)
    assert accessible_fraction(SchemeParams(4, 2, 1, 1)) == Fraction(1, 2)
    for C in range(2, 9):
        for r in range(1, C + 1):
            assert accessible_fraction(SchemeParams(C, r, 1, 1)) == Fraction(r, C)


def test_accessible_fraction_matches_brute_force():
    for C in range(1, 9):
        for r in range(1, C + 1):
            for t in range(1, C + 1):
                params = SchemeParams(C, r, t, 1)
                user = tuple(range(1, r + 1))
                count = len(accessible(params, user))
                assert accessible_fraction(params) == Fraction(count, binom(C, t))


def test_accessible_fraction_complement_identity():
    # A user misses exactly the t-subsets of the C - r caches it does not read.
    for C in range(1, 11):
        for r in range(1, C + 1):
            for t in range(1, C + 1):
                params = SchemeParams(C, r, t, 1)
                expected = 1 - Fraction(binom(C - r, t), binom(C, t))
                assert accessible_fraction(params) == expected


def test_generated_transmissions_match_frozen_references():
    for example in REFERENCE_EXAMPLES:
        demand = DemandAssignment.from_request_vector(example.params, example.requests)
        assert plain(generate_transmissions(example.params, demand)) == example.expected


def test_reference_listing_relationship():
    # First example: same coded sets, two transmissions with permuted terms.
    permuted = 0
    for (s, expected_terms), (s2, listed_terms) in zip(EX1.expected, EX1.as_listed):
        assert s == s2
        assert sorted(expected_terms) == sorted(listed_terms)
        permuted += expected_terms != listed_terms
    assert permuted == 2
    # Second example: listing is exactly the rule output.
    assert EX2.expected == EX2.as_listed
    # Third example: final transmission's listing misprints exactly two terms.
    (_, expected_terms), (_, listed_terms) = EX3.expected[-1], EX3.as_listed[-1]
    assert set(expected_terms) - set(listed_terms) == {(7, (3, 4)), (8, (2, 5))}
    assert set(listed_terms) - set(expected_terms) == {(4, (3, 4)), (8, (1, 5))}
    assert EX3.expected[:4] == EX3.as_listed[:4]


def test_no_transmissions_when_t_plus_r_exceeds_C():
    params = SchemeParams(4, 3, 2, 4)
    demand = full_demand(params)
    assert generate_transmissions(params, demand) == []


def test_transmission_counts_and_term_counts():
    for C in range(2, 7):
        for r in range(1, C):
            for t in range(1, C - r + 1):
                params = SchemeParams(C, r, t, binom(C, r))
                txs = generate_transmissions(params, full_demand(params))
                assert len(txs) == binom(C, t + r)
                for tx in txs:
                    assert len(tx.terms) == binom(t + r, r)
                    # The user of a term is the coded set minus its index set.
                    users = [tuple(x for x in tx.coded_set if x not in term.index_set)
                             for term in tx.terms]
                    assert users == sorted(users)


def test_single_user_transmission_count():
    params = SchemeParams(6, 2, 2, 15)
    demand = DemandAssignment({(1, 2): 1})
    txs = generate_transmissions(params, demand)
    assert len(txs) == binom(6 - 2, 2)
    for tx in txs:
        assert set((1, 2)).issubset(tx.coded_set)
        assert len(tx.terms) == 1


def test_demand_validation_errors():
    params = SchemeParams(4, 2, 1, 6)
    with pytest.raises(DemandError):
        generate_transmissions(params, DemandAssignment({(1, 2, 3): 1}))
    with pytest.raises(DemandError):
        generate_transmissions(params, DemandAssignment({(1, 2): 9}))
    with pytest.raises(DemandError):
        generate_transmissions(params, DemandAssignment({(1, 2): 1, (1, 3): 1}))
    # Permissive mode allows repeated demands.
    txs = generate_transmissions(params, DemandAssignment({(1, 2): 1, (1, 3): 1}), strict=False)
    assert txs
    with pytest.raises(DemandError):
        DemandAssignment.from_request_vector(params, (1, 2, 3))
    with pytest.raises(DemandError):
        DemandAssignment({(1, 1): 2})
    with pytest.raises(DemandError, match=r"user \(1, 2\) assigned more than one demand"):
        DemandAssignment({(1, 2): 1, (2, 1): 2})
    # A file index must be an integer: no float or string is truncated or parsed.
    with pytest.raises(DemandError, match=r"user \(1, 2\) demands 1\.9, not an integer"):
        DemandAssignment({(1, 2): 1.9, (1, 3): 2})
    with pytest.raises(DemandError, match=r"user \(1, 3\) demands '2', not an integer"):
        DemandAssignment({(1, 2): 1, (1, 3): "2"})
    assert DemandAssignment({(1, 2): np.int64(3), (1, 3): np.uint8(2)}).entries == {
        (1, 2): 3, (1, 3): 2}
    # So must a cache label: (1.5, 2) or ("1", "2") is not user (1, 2).
    for user in [(1.5, 2), (1.0, 2.0), ("1", "2")]:
        with pytest.raises(DemandError) as caught:
            DemandAssignment({(3, 4): 1, user: 2})
        assert str(caught.value) == f"user {user} has a cache label that is not an integer"
    assert DemandAssignment({(np.int64(2), np.uint8(1)): 1}).entries == {(1, 2): 1}
    # A key that is not a collection of labels at all is told apart.
    for user in [5, 2.0, None]:
        with pytest.raises(DemandError) as caught:
            DemandAssignment({(3, 4): 1, user: 2})
        assert str(caught.value) == f"user {user} is not a subset of cache labels"


def test_decode_user_first_example_trace():
    caches = build_placement(EX1.params)
    demand = DemandAssignment.from_request_vector(EX1.params, EX1.requests)
    txs = generate_transmissions(EX1.params, demand)
    peeled = decode_user(EX1.params, (1, 2), demand, txs, caches)
    assert peeled == EX1_USER_12_PEELED
    assert {SubfileId(1, T) for T in accessible(EX1.params, (1, 2))} == EX1_USER_12_CACHED


def test_decode_user_single_transmission_example():
    caches = build_placement(EX2.params)
    demand = DemandAssignment.from_request_vector(EX2.params, EX2.requests)
    txs = generate_transmissions(EX2.params, demand)
    assert decode_user(EX2.params, (1, 2, 3), demand, txs, caches) == {SubfileId(1, (4, 5))}


def test_decode_user_r_equals_C_needs_nothing():
    params = SchemeParams(3, 3, 1, 3)
    demand = DemandAssignment({(1, 2, 3): 2})
    txs = generate_transmissions(params, demand)
    assert txs == []
    caches = build_placement(params)
    assert decode_user(params, (1, 2, 3), demand, txs, caches) == set()
    assert accessible(params, (1, 2, 3)) == {(1,), (2,), (3,)}


def test_decode_coverage_all_small_params():
    for C in range(2, 7):
        for r in range(1, C):
            for t in range(1, C - r + 1):
                params = SchemeParams(C, r, t, binom(C, r))
                demand = full_demand(params, offset=1)
                caches = build_placement(params)
                txs = generate_transmissions(params, demand)
                all_indices = set(params.subfile_index_sets())
                for user in params.users():
                    peeled = decode_user(params, user, demand, txs, caches)
                    wanted = demand.entries[user]
                    assert all(s.file_index == wanted for s in peeled)
                    got = {s.index_set for s in peeled}
                    have = accessible(params, user)
                    assert got.isdisjoint(have)
                    assert got | have == all_indices


def test_decode_rejects_uncancellable_term():
    caches = build_placement(EX1.params)
    demand = DemandAssignment.from_request_vector(EX1.params, EX1.requests)
    txs = generate_transmissions(EX1.params, demand)
    # A term for a file outside the library intersects the user's caches but
    # is stored nowhere, so the peel must abort.
    bad = Transmission(txs[0].coded_set, (txs[0].terms[0], SubfileId(99, (1,))))
    with pytest.raises(DecodingError):
        decode_user(EX1.params, (1, 2), demand, [bad], caches)


def test_decode_rejects_unknown_user():
    params = SchemeParams(4, 2, 1, 6)
    demand = DemandAssignment({(1, 2): 1})
    with pytest.raises(DemandError):
        decode_user(params, (3, 4), demand, [], build_placement(params))


def test_dynamism_partial_population_is_consistent_subset():
    params = SchemeParams(5, 2, 2, 10)
    full = full_demand(params)
    full_txs = {tx.coded_set: tx for tx in generate_transmissions(params, full)}
    partial = DemandAssignment({u: full.entries[u] for u in [(1, 2), (2, 5), (3, 4)]})
    caches = build_placement(params)
    partial_txs = generate_transmissions(params, partial)
    assert len(partial_txs) <= len(full_txs)
    for tx in partial_txs:
        assert set(tx.terms).issubset(full_txs[tx.coded_set].terms)
    for user in partial.entries:
        peeled = decode_user(params, user, partial, partial_txs, caches)
        got = {s.index_set for s in peeled}
        assert got | accessible(params, user) == set(
            params.subfile_index_sets()
        )


def test_disjointness_of_per_cache_views():
    # At t=1 the caches a user reads hold pairwise disjoint index sets; at
    # t >= 2 any two caches share every index set containing both labels.
    def per_cache_indices(params, user):
        caches = build_placement(params)
        return [
            {s.index_set for s in caches[k - 1].subfiles} for k in user
        ]

    views = per_cache_indices(SchemeParams(5, 3, 1, 2), (1, 3, 5))
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            assert views[i].isdisjoint(views[j])

    views = per_cache_indices(SchemeParams(5, 2, 2, 2), (2, 4))
    assert (2, 4) in views[0] & views[1]


def test_simulate_end_to_end_byte_exact():
    rng_bytes = bytes(range(256))
    payloads = [bytes((b * (i + 3)) % 256 for b in rng_bytes[:64]) for i in range(6)]
    demand = DemandAssignment.from_request_vector(EX1.params, EX1.requests)
    outputs = simulate_end_to_end(EX1.params, payloads, demand)
    assert set(outputs) == set(demand.entries)
    for user, got in outputs.items():
        assert got == payloads[demand.entries[user] - 1]


def test_simulate_exercises_corrected_final_transmission():
    payloads = [bytes((i * 17 + j) % 256 for j in range(50)) for i in range(10)]
    demand = DemandAssignment.from_request_vector(EX3.params, EX3.requests)
    outputs = simulate_end_to_end(EX3.params, payloads, demand)
    for user, got in outputs.items():
        assert got == payloads[demand.entries[user] - 1]


def test_simulate_identical_files_any_demand():
    params = SchemeParams(4, 2, 2, 6)
    payloads = [b"same-content-everywhere" for _ in range(6)]
    demand = full_demand(params)
    outputs = simulate_end_to_end(params, payloads, demand)
    assert all(got == payloads[0] for got in outputs.values())


def test_simulate_padding_and_short_payloads():
    params = SchemeParams(4, 2, 1, 6)  # F = 4
    for size in (0, 1, 3, 13):
        payloads = [bytes((i + j) % 256 for j in range(size)) for i in range(6)]
        demand = full_demand(params)
        outputs = simulate_end_to_end(params, payloads, demand)
        for user, got in outputs.items():
            assert got == payloads[demand.entries[user] - 1]


def test_simulate_payload_errors():
    params = SchemeParams(4, 2, 1, 6)
    demand = full_demand(params)
    with pytest.raises(ValueError):
        simulate_end_to_end(params, [b"x"] * 5, demand)
    with pytest.raises(ValueError):
        simulate_end_to_end(params, [b"x"] * 5 + [b"xy"], demand)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_random_partial_populations_decode(data):
    C = data.draw(st.integers(min_value=2, max_value=6))
    r = data.draw(st.integers(min_value=1, max_value=C - 1))
    t = data.draw(st.integers(min_value=1, max_value=C - r))
    params = SchemeParams(C, r, t, binom(C, r))
    users = list(params.users())
    active = data.draw(
        st.sets(st.sampled_from(users), min_size=1, max_size=len(users))
    )
    files = data.draw(
        st.permutations(range(1, params.num_files + 1))
    )[: len(active)]
    demand = DemandAssignment(dict(zip(sorted(active), files)))
    caches = build_placement(params)
    txs = generate_transmissions(params, demand)
    for user in demand.entries:
        peeled = decode_user(params, user, demand, txs, caches)
        got = {s.index_set for s in peeled}
        assert got | accessible(params, user) == set(
            params.subfile_index_sets()
        )


def test_placement_union_matches_access_predicate():
    # The decoder reads the rule "user U reads W_{i,T} iff T meets U" instead
    # of cache contents; the placement must realise exactly that rule.
    for C in range(1, 8):
        for t in range(1, C + 1):
            params = SchemeParams(C, 1, t, 2)
            caches = build_placement(params)
            for r in range(1, C + 1):
                for user in combinations(range(1, C + 1), r):
                    union = set().union(*(caches[k - 1].subfiles for k in user))
                    assert union == {
                        SubfileId(i, T)
                        for i in (1, 2)
                        for T in combinations(range(1, C + 1), t)
                        if set(T) & set(user)
                    }


def brute_force_delivery(params, demand):
    """The paper's delivery spelled out: every (t+r)-subset S with an active
    user, one term W_{d_U, S minus U} per active r-subset U of S."""
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    out = []
    for S in combinations(range(1, C + 1), t + r):
        terms = tuple(
            SubfileId(demand.entries[U], tuple(x for x in S if x not in U))
            for U in combinations(S, r)
            if U in demand.entries
        )
        if terms:
            out.append(Transmission(S, terms))
    return out


def reference_decode(params, payloads, demand, strict=True):
    """The per-user decoder the batched one replaced, kept as a reference.

    For each active user in turn: find its messages as the coded sets that
    contain it, take the one term whose index set misses the user as the
    target, and cancel the other terms of the message by gathering their
    chunks.
    """
    _, users, files = scheme._check_demand(params, demand, strict)
    chunks, length = scheme._chunk_matrix(params, payloads)
    plan = scheme._delivery_plan(params, users, files)
    # The encoder's rows follow its place-major buffer: a message's row is the
    # buffer row of its first term.
    _, places, row = scheme._gather(plan, chunks)
    coded = scheme._encode(places)
    outputs = {}
    for user, wanted in sorted(demand.entries.items()):
        in_user = np.zeros(params.num_caches + 1, dtype=bool)
        in_user[list(user)] = True
        readable = in_user[plan.subfile_sets].any(axis=1)
        pieces = np.empty(chunks.shape[1:], dtype=np.uint8)
        pieces[readable] = chunks[wanted - 1, readable]
        covered = readable.copy()
        for m, S in enumerate(plan.coded_sets.tolist()):
            if not set(user) <= set(S):
                continue
            terms = np.flatnonzero(plan.term_message == m)
            files, ranks = plan.term_file[terms], plan.term_rank[terms]
            assert ((files >= 1) & (files <= params.num_files)).all()
            unreadable = ~readable[ranks]
            assert unreadable.sum() == 1
            assert files[unreadable][0] == wanted
            others = ~unreadable
            cancel = np.bitwise_xor.reduce(chunks[files[others] - 1, ranks[others]], axis=0)
            pieces[ranks[unreadable][0]] = coded[row[terms[0]]] ^ cancel
            covered[ranks[unreadable][0]] = True
        assert covered.all()
        outputs[user] = pieces.tobytes()[:length]
    return outputs


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_simulation_and_delivery_match_the_construction(data):
    C = data.draw(st.integers(min_value=1, max_value=8))
    r = data.draw(st.integers(min_value=1, max_value=C))
    t = data.draw(st.integers(min_value=0, max_value=C))
    N = data.draw(st.integers(min_value=1, max_value=4))
    params = SchemeParams(C, r, t, N)
    users = list(params.users())
    active = data.draw(st.sets(st.sampled_from(users), min_size=1, max_size=len(users)))
    files = data.draw(st.lists(st.integers(1, N), min_size=len(active), max_size=len(active)))
    demand = DemandAssignment(dict(zip(sorted(active), files)))
    size = data.draw(st.integers(min_value=0, max_value=40))
    payloads = [bytes((7 * i + 3 * j) % 256 for j in range(size)) for i in range(N)]
    outputs = simulate_end_to_end(params, payloads, demand, strict=False)
    assert outputs == {u: payloads[f - 1] for u, f in demand.entries.items()}
    assert outputs == reference_decode(params, payloads, demand, strict=False)
    txs = generate_transmissions(params, demand, strict=False)
    assert txs == brute_force_delivery(params, demand)
    assert outputs.messages == len(txs)
    # decode_user, reading the caches, peels what the batched check delivers.
    active, users, wanted = scheme._check_demand(params, demand, strict=False)
    plan = scheme._delivery_plan(params, users, wanted)
    pair_user, target = scheme._peeling(params, plan, users, wanted)
    delivered = plan.subfile_sets[plan.term_rank[target]].tolist()
    caches = build_placement(params)
    for a, user in enumerate(active):
        assert decode_user(params, user, demand, txs, caches) == {
            SubfileId(demand.entries[user], tuple(T))
            for T, p in zip(delivered, pair_user.tolist()) if p == a}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_plan_holds_one_term_per_active_user_and_index_set(data):
    # The term list is the paper's delivery, term for term: W_{d_U, T} for
    # every active U and t-subset T of the other labels, in message U ∪ T.
    C = data.draw(st.integers(min_value=2, max_value=8))
    r = data.draw(st.integers(min_value=1, max_value=C - 1))
    t = data.draw(st.integers(min_value=1, max_value=C - r))
    params = SchemeParams(C, r, t, 3)
    active = data.draw(st.sets(st.sampled_from(list(params.users())), min_size=1))
    files = data.draw(st.lists(st.integers(1, 3), min_size=len(active), max_size=len(active)))
    demand = DemandAssignment(dict(zip(sorted(active), files)))
    plan = plan_for(params, demand)
    assert len(plan.term_message) == len(plan.term_file) == len(plan.term_rank)
    assert len(plan.term_rank) == len(active) * binom(C - r, t)
    terms = []
    for m, f, k in zip(plan.term_message.tolist(), plan.term_file.tolist(),
                       plan.term_rank.tolist()):
        S, T = tuple(plan.coded_sets[m].tolist()), unrank_subset(k, t, C)
        user = tuple(x for x in S if x not in T)
        assert set(T) <= set(S) and user in demand.entries and f == demand.entries[user]
        terms.append((S, user, T))
    assert terms == sorted(terms)  # messages in lex order, terms by user within each
    assert sorted((U, T) for _, U, T in terms) == sorted(
        (U, T) for U in active for T in combinations(sorted(set(range(1, C + 1)) - set(U)), t))
    assert [S for S, _, _ in terms] == [tuple(plan.coded_sets[m].tolist())
                                      for m in plan.term_message.tolist()]
    assert np.array_equal(np.unique(plan.term_message), np.arange(len(plan.coded_sets)))


def _tx_with(txs, user):
    return next(i for i, tx in enumerate(txs) if set(user) <= set(tx.coded_set))


def _swap_own_file(txs, user, params):
    i = _tx_with(txs, user)
    terms = tuple(
        SubfileId(term.file_index % params.num_files + 1, term.index_set)
        if not set(term.index_set) & set(user) else term
        for term in txs[i].terms
    )
    return txs[:i] + [replace(txs[i], terms=terms)] + txs[i + 1:]


def _add_second_unreadable_term(txs, user, params):
    i = _tx_with(txs, user)
    own = next(term for term in txs[i].terms if not set(term.index_set) & set(user))
    extra = SubfileId(own.file_index % params.num_files + 1, own.index_set)
    return txs[:i] + [replace(txs[i], terms=txs[i].terms + (extra,))] + txs[i + 1:]


def _drop_message(txs, user, params):
    i = _tx_with(txs, user)
    return txs[:i] + txs[i + 1:]


def _file_out_of_range(bad_file):
    def corrupt(txs, user, params):
        i = _tx_with(txs, user)
        other = next(k for k, term in enumerate(txs[i].terms) if set(term.index_set) & set(user))
        terms = list(txs[i].terms)
        terms[other] = SubfileId(bad_file, terms[other].index_set)
        return txs[:i] + [replace(txs[i], terms=tuple(terms))] + txs[i + 1:]
    return corrupt


def _drop_own_term(txs, user, params):
    i = _tx_with(txs, user)
    terms = tuple(term for term in txs[i].terms if set(term.index_set) & set(user))
    return txs[:i] + [replace(txs[i], terms=terms)] + txs[i + 1:]


def _term_outside_coded_set(txs, user, params):
    i = _tx_with(txs, user)
    outside = next(T for T in combinations(range(1, params.num_caches + 1), params.cache_param)
                   if not set(T) <= set(txs[i].coded_set))
    first = txs[i].terms[0]
    terms = (SubfileId(first.file_index, outside),) + txs[i].terms[1:]
    return txs[:i] + [replace(txs[i], terms=terms)] + txs[i + 1:]


def _repeat_term(txs, user, params):
    i = _tx_with(txs, user)
    return txs[:i] + [replace(txs[i], terms=txs[i].terms + txs[i].terms[:1])] + txs[i + 1:]


def _index_set_in_coded_set(pick):
    """The first term of the user's first message gets the labels ``pick(S)`` of its S."""
    def corrupt(txs, user, params):
        i = _tx_with(txs, user)
        first = txs[i].terms[0]
        terms = (SubfileId(first.file_index, pick(txs[i].coded_set)),) + txs[i].terms[1:]
        return txs[:i] + [replace(txs[i], terms=terms)] + txs[i + 1:]
    return corrupt


_MALFORMED_TERM = "needs a 2-subset of it no other term uses and a file in 1..15"


@pytest.mark.parametrize(
    "corrupt, reason",
    [(_swap_own_file, "serves the user a file other than its demand"),
     # The extra term reuses the index set of the user's own term.
     (_add_second_unreadable_term, _MALFORMED_TERM),
     (_drop_message, "never obtained subfile indices"),
     (_file_out_of_range(0), _MALFORMED_TERM),
     (_file_out_of_range(16), _MALFORMED_TERM),
     (_term_outside_coded_set, _MALFORMED_TERM),
     (_repeat_term, _MALFORMED_TERM),
     # Index sets inside S that are not 2-subsets.
     (_index_set_in_coded_set(lambda S: (S[0], S[0])), _MALFORMED_TERM),
     (_index_set_in_coded_set(lambda S: S[:3]), _MALFORMED_TERM),
     (_index_set_in_coded_set(lambda S: S[:1]), _MALFORMED_TERM),
     (_drop_own_term, "does not hold exactly one term the user cannot read")],
    ids=["swapped-file", "second-unreadable-term", "dropped-message", "file-0", "file-N+1",
         "term-outside-coded-set", "repeated-term", "repeated-label", "t+1-labels",
         "t-1-labels", "dropped-own-term"],
)
def test_decode_user_rejects_corrupted_transmissions(corrupt, reason):
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    caches = build_placement(params)
    txs = generate_transmissions(params, demand)
    user = (2, 5)
    assert decode_user(params, user, demand, txs, caches)
    with pytest.raises(DecodingError) as caught:
        decode_user(params, user, demand, corrupt(txs, user, params), caches)
    assert (caught.value.user, caught.value.reason) == (user, reason)


def test_decode_user_reads_the_caches_it_is_given():
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    txs = generate_transmissions(params, demand)
    caches = build_placement(params)
    user = (2, 5)
    expected = decode_user(params, user, demand, txs, caches)
    with pytest.raises(DecodingError) as caught:
        decode_user(params, user, demand, txs, [])
    assert caught.value.user == user
    # A piece of the user's own file it reads from cache 2 only, and a term
    # of another user's file it must cancel.
    interfering = next(term for term in txs[_tx_with(txs, user)].terms
                       if set(term.index_set) & set(user) == {2})
    own = SubfileId(demand.entries[user], (1, 2))
    for needed, reason in [(own, "never obtained subfile indices"),
                           (interfering, "does not hold exactly one term the user cannot read")]:
        thinned = [replace(c, subfiles=c.subfiles - {needed}) if c.cache_label == 2 else c
                   for c in caches]
        with pytest.raises(DecodingError) as caught:
            decode_user(params, user, demand, txs, thinned)
        assert (caught.value.user, caught.value.reason) == (user, reason)
    shuffled = list(caches)
    np.random.default_rng(0).shuffle(shuffled)
    assert decode_user(params, user, demand, txs, shuffled) == expected
    # Were a cache outside the user read, its own pieces would be readable.
    everything = frozenset().union(*(c.subfiles for c in caches))
    others = [CacheContent(k, everything) for k in (1, 3, 4, 6)]
    assert decode_user(params, user, demand, txs, others + caches) == expected


def test_decode_user_accepts_repeated_messages_and_unsorted_index_sets():
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    txs = generate_transmissions(params, demand)
    caches = build_placement(params)
    unsorted = [replace(tx, terms=tuple(SubfileId(f, T[::-1]) for f, T in tx.terms)) for tx in txs]
    for user in params.users():
        expected = decode_user(params, user, demand, txs, caches)
        assert decode_user(params, user, demand, txs + txs[::3], caches) == expected
        assert decode_user(params, user, demand, unsorted, caches) == expected


def _nth(k, corrupt):
    """``corrupt`` applied to the k-th message naming the user, not the first."""
    def apply(txs, user, params):
        i = [n for n, tx in enumerate(txs) if set(user) <= set(tx.coded_set)][k]
        return txs[:i] + corrupt(txs[i:], user, params)
    return apply


@pytest.mark.parametrize(
    "corruptions, failing, reason",
    [([_nth(0, _swap_own_file), _nth(1, _drop_own_term)], 1,
      "does not hold exactly one term the user cannot read"),
     ([_nth(0, _swap_own_file), _nth(1, _drop_own_term), _nth(2, _repeat_term)], 2,
      _MALFORMED_TERM),
     ([_nth(2, _swap_own_file), _nth(1, _drop_message)], 2,
      "serves the user a file other than its demand")],
    ids=["no-term-before-demand", "malformed-before-all", "demand-before-coverage"],
)
def test_decode_user_takes_each_check_over_all_messages(corruptions, failing, reason):
    # A later message failing an earlier check wins over an earlier message
    # failing a later one.
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    txs = generate_transmissions(params, demand)
    user = (2, 5)
    coded_set = [tx for tx in txs if set(user) <= set(tx.coded_set)][failing].coded_set
    for corrupt in corruptions:
        txs = corrupt(txs, user, params)
    with pytest.raises(DecodingError) as caught:
        decode_user(params, user, demand, txs, build_placement(params))
    assert (caught.value.user, caught.value.coded_set, caught.value.reason) == (
        user, coded_set, reason)


def _plan_swap_file(plan, params):
    term_file = plan.term_file.copy()
    term_file[0] = term_file[0] % params.num_files + 1
    return plan._replace(term_file=term_file)


def _plan_second_unreadable_term(plan, params):
    # Term 1 takes the index set of term 0, which misses term 0's user.
    term_rank = plan.term_rank.copy()
    term_rank[1] = term_rank[0]
    return plan._replace(term_rank=term_rank)


def _plan_terms(plan, terms):
    """The plan with only the terms at ``terms``, in that order."""
    return plan._replace(term_message=plan.term_message[terms], term_file=plan.term_file[terms],
                         term_rank=plan.term_rank[terms])


def _plan_rows(plan, rows):
    """The plan with only the messages at ``rows``, in that order, each with its terms."""
    rows = np.arange(len(plan.coded_sets))[rows]
    picks = [np.flatnonzero(plan.term_message == m) for m in rows]
    terms = np.concatenate([np.zeros(0, dtype=np.int64)] + picks)
    return _plan_terms(plan, terms)._replace(
        coded_sets=plan.coded_sets[rows],
        term_message=np.repeat(np.arange(len(rows)), [len(p) for p in picks]))


def _plan_drop_message(plan, params):
    return _plan_rows(plan, slice(1, None))


def _plan_negative_file(plan, params):
    term_file = plan.term_file.copy()
    term_file[0] = -1
    return plan._replace(term_file=term_file)


def _plan_repeat_message(plan, params):
    return _plan_rows(plan, np.insert(np.arange(len(plan.coded_sets)), 3, 3))


def _plan_swap_messages(plan, params):
    rows = np.arange(len(plan.coded_sets))
    rows[[3, 4]] = rows[[4, 3]]
    return _plan_rows(plan, rows)


def _term(plan, params, coded_set, user):
    """Row of a coded set in the plan and the index of the term serving ``user`` in it."""
    row = plan.coded_sets.tolist().index(list(coded_set))
    T = tuple(x for x in coded_set if x not in user)
    terms = np.flatnonzero(plan.term_message == row)
    return row, int(terms[plan.term_rank[terms] == rank_subset(T, params.num_caches)][0])


def _plan_misdirect(coded_set, user, index_set):
    def corrupt(plan, params):
        _, k = _term(plan, params, coded_set, user)
        term_rank = plan.term_rank.copy()
        term_rank[k] = rank_subset(index_set, params.num_caches)
        return plan._replace(term_rank=term_rank)
    return corrupt


def _plan_drop_coded_set(coded_set):
    def corrupt(plan, params):
        return _plan_rows(plan, np.flatnonzero((plan.coded_sets != coded_set).any(axis=1)))
    return corrupt


# The full plan at (6, 2, 2) sends every 4-subset of [6] in lex order:
# (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 5), (1, 2, 4, 6), ...
# A plan of the wrong shape is refused at its first malformed message.
@pytest.mark.parametrize(
    "corrupt, malformed",
    [(_plan_swap_file, None), (_plan_second_unreadable_term, None),
     (_plan_drop_message, None), (_plan_negative_file, None),
     (_plan_misdirect((1, 2, 3, 6), (1, 2), (4, 5)), (1, 2, 3, 6)),
     (_plan_repeat_message, (1, 2, 4, 5)), (_plan_swap_messages, (1, 2, 4, 5))],
    ids=["swapped-file", "second-unreadable-term", "dropped-message", "negative-file",
         "term-outside-message", "repeated-message", "swapped-messages"],
)
def test_simulate_rejects_corrupted_plans(corrupt, malformed, monkeypatch):
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    payloads = [bytes([i]) * 30 for i in range(15)]
    build = scheme._delivery_plan
    monkeypatch.setattr(scheme, "_delivery_plan", lambda p, u, f: corrupt(build(p, u, f), p))
    with pytest.raises(DecodingError) as caught:
        simulate_end_to_end(params, payloads, demand)
    error = caught.value
    if malformed:
        assert (error.user, error.coded_set, error.reason) == (
            None, malformed, "is out of lex order or holds a term outside it")
    else:
        assert error.user is not None


def test_flipped_coded_byte_is_a_byte_mismatch(monkeypatch):
    encode = scheme._encode

    def flip_one_byte(places):
        coded = encode(places)
        coded[len(coded) // 2, 0] ^= 1
        return coded

    assert simulate_report(6, 2, 2, file_size=90)["decoded_ok"] == 15
    monkeypatch.setattr(scheme, "_encode", flip_one_byte)
    with pytest.raises(RuntimeError, match="byte mismatch"):
        simulate_report(6, 2, 2, file_size=90)


def test_a_term_corrupted_after_encoding_spoils_only_the_other_pieces(monkeypatch):
    # After the message XOR, flip a byte of the term at place 1 of the first
    # message, (1, 2, 3, 4): the term that serves user (1, 3). Every other
    # user of the message cancels that term from its caches and so decodes
    # wrong bytes; the piece of user (1, 3) never reads its own term.
    encode = scheme._encode

    def corrupt_a_term(places):
        coded = encode(places)
        places[1][0, 0] ^= 1
        return coded

    monkeypatch.setattr(scheme, "_encode", corrupt_a_term)
    mismatch = "byte mismatch for users [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]"
    with pytest.raises(RuntimeError, match=re.escape(mismatch)):
        simulate_report(6, 2, 2, file_size=90)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_message_bytes_and_pieces_match_an_independent_xor(data):
    C = data.draw(st.integers(min_value=1, max_value=7))
    r = data.draw(st.integers(min_value=1, max_value=C))
    t = data.draw(st.integers(min_value=0, max_value=C))
    N = data.draw(st.integers(min_value=1, max_value=3))
    params = SchemeParams(C, r, t, N)
    users = list(params.users())
    full = data.draw(st.booleans())
    active = users if full else sorted(data.draw(st.sets(st.sampled_from(users), min_size=1)))
    demand = DemandAssignment({u: data.draw(st.integers(1, N)) for u in active})
    size = data.draw(st.sampled_from([0, 1]) | st.integers(min_value=0, max_value=50))
    payloads = [bytes(data.draw(st.binary(min_size=size, max_size=size))) for _ in range(N)]
    F = params.subpacketization
    L = -(-size // F)
    chunks = np.zeros((N, F * L), dtype=np.uint8)
    for i, payload in enumerate(payloads):
        chunks[i, :size] = list(payload)
    chunks = chunks.reshape(N, F, L)
    plan = plan_for(params, demand)
    pieces, places, row = scheme._gather(plan, scheme._chunk_matrix(params, payloads)[0])
    coded = scheme._encode(places)
    M = len(plan.coded_sets)
    assert len(coded) == M
    if t + r > C:
        assert M == 0
    for m in range(M):
        terms = np.flatnonzero(plan.term_message == m)
        rows = chunks[plan.term_file[terms] - 1, plan.term_rank[terms]]
        assert (coded[row[terms[0]]] == np.bitwise_xor.reduce(rows, axis=0)).all()
    scheme._leave_one_out(places, coded)
    assert (pieces[row] == chunks[plan.term_file - 1, plan.term_rank]).all()


def test_simulate_holds_one_term_buffer_at_a_time():
    # Traced peak of one run, in bytes, against the chunk matrix, one
    # (terms, chunk_len) buffer, three (messages, chunk_len) buffers, the
    # decoded outputs and 1 MiB of slack. One file keeps the chunk matrix
    # small, so a second term buffer (3.9 MB here) would exceed the slack.
    params, size = SchemeParams(8, 2, 2, 1), 256 * 1024
    users = list(params.users())
    demand = DemandAssignment(dict.fromkeys(users, 1))
    payloads = [bytes(range(256)) * (size // 256)]
    F, M, terms = params.subpacketization, binom(8, 4), len(users) * binom(6, 2)
    L = -(-size // F)
    tracemalloc.start()
    try:
        outputs = simulate_end_to_end(params, payloads, demand, strict=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outputs == dict.fromkeys(users, payloads[0])
    assert peak <= F * L + terms * L + 3 * M * L + len(users) * size + 2 ** 20


def _plan_swap_demand(coded_set, user):
    def corrupt(plan, params):
        _, k = _term(plan, params, coded_set, user)
        term_file = plan.term_file.copy()
        term_file[k] = term_file[k] % params.num_files + 1
        return plan._replace(term_file=term_file)
    return corrupt


def _plan_drop_term(coded_set, user):
    def corrupt(plan, params):
        _, k = _term(plan, params, coded_set, user)
        return _plan_terms(plan, np.delete(np.arange(len(plan.term_rank)), k))
    return corrupt


@pytest.mark.parametrize(
    "corrupt_smaller, coded_set, reason, message",
    [
        (_plan_swap_demand((1, 4, 5, 6), (1, 6)), (1, 4, 5, 6),
         "serves the user a file other than its demand",
         "transmission (1, 4, 5, 6) serves the user a file other than its demand: user (1, 6), "
         "demand {demand}, term files {term_files}"),
        # Without the coded set, the piece (4, 5) is never delivered.
        (_plan_drop_coded_set((1, 4, 5, 6)), None,
         "never obtained subfile indices",
         "user (1, 6) never obtained subfile indices [(4, 5)]"),
        (_plan_drop_term((1, 4, 5, 6), (1, 6)), (1, 4, 5, 6),
         "does not hold exactly one term the user cannot read",
         "transmission (1, 4, 5, 6) does not hold exactly one term the user cannot read: "
         "user (1, 6), demand {demand}, term files {term_files}"),
    ],
    ids=["demand-vs-demand", "coverage-vs-demand", "no-term-vs-demand"],
)
def test_decoding_error_names_the_smallest_failing_user(
        corrupt_smaller, coded_set, reason, message, monkeypatch):
    # User (2, 3) fails in the first message, (1, 6) only in a later one; the
    # error must still name (1, 6), the smaller user, with its own failure.
    # (1, 2) decodes; the other active users share no corrupted term.
    params = SchemeParams(6, 2, 2, 15)
    demand = DemandAssignment({(1, 2): 4, (1, 6): 1, (2, 3): 2, (3, 5): 3})
    payloads = [bytes([i]) * 30 for i in range(15)]
    build = scheme._delivery_plan
    corrupt_larger = _plan_swap_demand((1, 2, 3, 4), (2, 3))
    corrupted = {}

    def plan_with_two_failures(p, u, f):
        corrupted["plan"] = corrupt_smaller(corrupt_larger(build(p, u, f), p), p)
        return corrupted["plan"]

    monkeypatch.setattr(scheme, "_delivery_plan", plan_with_two_failures)
    with pytest.raises(DecodingError) as caught:
        simulate_end_to_end(params, payloads, demand)
    error = caught.value
    assert (error.user, error.coded_set, error.reason) == ((1, 6), coded_set, reason)
    plan, term_files = corrupted["plan"], None
    if coded_set:
        row = plan.coded_sets.tolist().index(list(coded_set))
        term_files = plan.term_file[plan.term_message == row].tolist()
    assert str(error) == message.format(demand=demand.entries[(1, 6)], term_files=term_files)


def test_decode_user_error_fields():
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    txs = _swap_own_file(generate_transmissions(params, demand), (2, 5), params)
    with pytest.raises(DecodingError) as caught:
        decode_user(params, (2, 5), demand, txs, build_placement(params))
    assert caught.value.user == (2, 5)
    assert caught.value.coded_set == txs[_tx_with(txs, (2, 5))].coded_set
    assert caught.value.reason == "serves the user a file other than its demand"
    assert str(caught.value).startswith(f"transmission {caught.value.coded_set} serves the user")


@pytest.mark.parametrize(
    "params, active, size",
    [
        (SchemeParams(4, 3, 2, 4), None, 20),  # t + r > C: no message at all
        (SchemeParams(6, 2, 2, 15), None, 0),  # empty files
        (SchemeParams(6, 2, 2, 15), [(2, 5)], 45),  # a single active user
        (SchemeParams(7, 2, 3, 21), None, 101),  # 101 bytes over F = 35 pieces
    ],
    ids=["t+r>C", "file-size-0", "single-user", "length-not-divisible-by-F"],
)
def test_edge_cases_decode_byte_exact(params, active, size):
    full = full_demand(params)
    demand = DemandAssignment({u: full.entries[u] for u in active or full.entries})
    payloads = [bytes((31 * i + 5 * j) % 256 for j in range(size)) for i in range(params.num_files)]
    outputs = simulate_end_to_end(params, payloads, demand)
    assert outputs == {u: payloads[f - 1] for u, f in demand.entries.items()}
    assert outputs == reference_decode(params, payloads, demand)
    assert outputs.messages == len(generate_transmissions(params, demand))


def test_empty_demand_sends_and_decodes_nothing():
    params = SchemeParams(5, 2, 2, 3)
    demand = DemandAssignment({})
    assert generate_transmissions(params, demand) == []
    outputs = simulate_end_to_end(params, [b"abc"] * 3, demand)
    assert outputs == {} and outputs.messages == 0


def test_simulate_decodes_messages_with_permuted_terms(monkeypatch):
    # XOR does not care where a term sits in its message, so a plan whose
    # messages list their terms in reverse must still decode: each user's
    # piece is taken at the term the check finds, not where it was built.
    params = SchemeParams(6, 2, 2, 15)
    demand = full_demand(params)
    payloads = [bytes((11 * i + j) % 256 for j in range(50)) for i in range(15)]
    build = scheme._delivery_plan

    def reversed_terms(p, u, f):
        plan = build(p, u, f)
        return _plan_terms(plan, np.lexsort((-np.arange(len(plan.term_rank)), plan.term_message)))

    monkeypatch.setattr(scheme, "_delivery_plan", reversed_terms)
    outputs = simulate_end_to_end(params, payloads, demand)
    assert outputs == {u: payloads[f - 1] for u, f in demand.entries.items()}


@pytest.mark.parametrize(
    "entries, strict, message",
    [
        ({(1, 2): 1, (0, 3): 2, (4, 9): 3}, True,
         "user (0, 3) is not a valid user identity: subset (0, 3) has elements outside 1..4"),
        ({(1, 2): 1, (2, 5): 2}, True,
         "user (2, 5) is not a valid user identity: subset (2, 5) has elements outside 1..4"),
        ({(1, 2): 1, (1, 2, 3): 2, (4,): 3}, True,
         "user (1, 2, 3) is not a valid user identity: subset (1, 2, 3) has size 3, expected 2"),
        ({(1, 2): 1, (): 2}, True,
         "user () is not a valid user identity: subset () has size 0, expected 2"),
        # Labels are checked before the size, and both before the file.
        ({(0, 1, 2): 9}, True,
         "user (0, 1, 2) is not a valid user identity: subset (0, 1, 2) has elements outside 1..4"),
        ({(3, 4): 1, (1, 5): 0}, True,
         "user (1, 5) is not a valid user identity: subset (1, 5) has elements outside 1..4"),
        ({(1, 2): 1, (3, 4): 7, (1, 3): 0}, True, "user (3, 4) demands file 7, outside 1..6"),
        ({(2, 3): 0, (1, 2): 1}, False, "user (2, 3) demands file 0, outside 1..6"),
        ({(1, 2): -1, (0, 3): 2}, False, "user (1, 2) demands file -1, outside 1..6"),
        ({(1, 2): 1, (1, 3): 1}, True, "demands must be pairwise distinct in strict mode"),
        # Every user is checked before the strict repeat check.
        ({(1, 2): 1, (1, 3): 1, (2, 4): 9}, True, "user (2, 4) demands file 9, outside 1..6"),
    ],
    ids=["bad-label", "label-above-C", "wrong-size", "empty-user", "label-before-size",
         "label-before-file", "file-above-N", "file-0", "file-first-in-order",
         "strict-repeat", "file-before-repeat"],
)
def test_demand_errors_name_the_first_offending_user(entries, strict, message):
    # The offending user is the first one in ``entries`` order, not in sorted order.
    params = SchemeParams(4, 2, 1, 6)
    demand = DemandAssignment(entries)
    for run in (lambda: generate_transmissions(params, demand, strict=strict),
                lambda: simulate_end_to_end(params, [b"x"] * 6, demand, strict=strict)):
        with pytest.raises(DemandError) as caught:
            run()
        assert str(caught.value) == message


def test_valid_demands_pass_in_both_modes():
    params = SchemeParams(4, 2, 1, 6)
    scheme._check_demand(params, DemandAssignment({(3, 4): 6, (1, 2): 1}), strict=True)
    scheme._check_demand(params, DemandAssignment({(3, 4): 6, (1, 2): 6}), strict=False)
    scheme._check_demand(params, DemandAssignment({}), strict=True)


@pytest.mark.parametrize("C, r, t", [(64, 2, 1), (70, 1, 1)])
def test_simulate_byte_exact_past_64_cache_labels(C, r, t):
    # Labels above 63 would overflow a 64-bit set encoding of users or terms.
    params = SchemeParams(C, r, t, 3)
    demand = DemandAssignment({u: 1 + k % 3 for k, u in enumerate(params.users())})
    payloads = [bytes((5 * i + j) % 256 for j in range(2 * C + 1)) for i in range(3)]
    outputs = simulate_end_to_end(params, payloads, demand, strict=False)
    assert outputs == {u: payloads[f - 1] for u, f in demand.entries.items()}
    assert outputs.messages == binom(C, t + r)


_REFERENCE_REASONS = (
    "names a file not in 1..N",
    "does not hold exactly one term the user cannot read",
    "serves the user a file other than its demand",
)


def reference_check(params, plan, users, wanted):
    """Brute-force decodability check of a plan, one (user, message) pair at a
    time with Python sets: a user cannot read a term exactly when the term's
    index set misses it. Returns the passing pairs (user position, term) in
    user then message order, or the failure as
    ``(user, coded_set, reason, message)``. A plan of the wrong shape, with a
    message not after the one before it or holding a term outside it, is
    refused first, with no user."""
    C, t, N = params.num_caches, params.cache_param, params.num_files
    coded_sets = [tuple(S) for S in plan.coded_sets.tolist()]
    files = plan.term_file.tolist()
    index_sets = [unrank_subset(k, t, C) for k in plan.term_rank.tolist()]
    terms_of = [[] for _ in coded_sets]
    for k, m in enumerate(plan.term_message.tolist()):
        terms_of[m].append(k)
    for m, S in enumerate(coded_sets):
        if (m > 0 and S <= coded_sets[m - 1]) or any(
                not set(index_sets[k]) <= set(S) for k in terms_of[m]):
            reason = "is out of lex order or holds a term outside it"
            return (None, S, reason, f"transmission {S} {reason}")
    pairs = []
    for a, user in enumerate(users):
        failure, delivered = None, set()
        for m, S in enumerate(coded_sets):
            if not set(user) <= set(S):
                continue
            unread = [k for k in terms_of[m] if not set(user) & set(index_sets[k])]
            if not all(1 <= files[k] <= N for k in terms_of[m]):
                check = 1
            elif len(unread) != 1:
                check = 2
            elif files[unread[0]] != wanted[a]:
                check = 3
            else:
                check = 0
                delivered.add(index_sets[unread[0]])
                pairs.append((a, unread[0]))
            if check and (failure is None or check < failure[0]):
                failure = (check, m)
        if failure:
            check, m = failure
            reason = _REFERENCE_REASONS[check - 1]
            return (user, coded_sets[m], reason,
                    f"transmission {coded_sets[m]} {reason}: user {user}, "
                    f"demand {wanted[a]}, term files {[files[k] for k in terms_of[m]]}")
        missing = [T for T in combinations(range(1, C + 1), t)
                   if not set(T) & set(user) and T not in delivered]
        if missing:
            return (user, None, "never obtained subfile indices",
                    f"user {user} never obtained subfile indices {missing}")
    return [list(column) for column in zip(*pairs)] or [[], []]


_PLAN_CORRUPTIONS = ["none", "swap-file", "drop-term", "move-inside", "move-outside",
                     "duplicate-set", "drop-message", "repeat-message", "repeat-message-less-a-term",
                     "file-0", "file--1", "file-N+1", "permute-terms"]


def _corrupt_plan(data, params, plan, kind):
    C, t = params.num_caches, params.cache_param
    every = np.arange(len(plan.term_rank))
    if kind in ("drop-message", "repeat-message", "repeat-message-less-a-term"):
        m = data.draw(st.integers(0, len(plan.coded_sets) - 1))
        rows = np.arange(len(plan.coded_sets))
        rows = np.delete(rows, m) if kind == "drop-message" else np.insert(rows, m, m)
        plan = _plan_rows(plan, rows)
        if kind == "repeat-message-less-a-term":
            # The first copy of message m lacks one of its terms. Under
            # "two-kinds" the first kind may have left message m no term.
            copy = np.flatnonzero(plan.term_message == m)
            assume(len(copy) > 0)
            dropped = data.draw(st.sampled_from(copy.tolist()))
            plan = _plan_terms(plan, np.delete(np.arange(len(plan.term_rank)), dropped))
        return plan
    k = data.draw(st.sampled_from(every.tolist()))
    m = plan.term_message[k]
    if kind == "drop-term":
        return _plan_terms(plan, np.delete(every, k))
    if kind == "permute-terms":
        terms = np.flatnonzero(plan.term_message == m)
        every[terms] = data.draw(st.permutations(terms.tolist()))
        return _plan_terms(plan, every)
    term_file, term_rank = plan.term_file.copy(), plan.term_rank.copy()
    S, same_message = plan.coded_sets[m].tolist(), np.flatnonzero(plan.term_message == m)
    if kind == "swap-file":
        term_file[k] = term_file[k] % params.num_files + 1
    elif kind in ("file-0", "file--1", "file-N+1"):
        term_file[k] = {"file-0": 0, "file--1": -1, "file-N+1": params.num_files + 1}[kind]
    elif kind == "move-inside":
        term_rank[k] = rank_subset(data.draw(st.sampled_from(list(combinations(S, t)))), C)
    elif kind == "move-outside":
        outside = [T for T in combinations(range(1, C + 1), t) if not set(T) <= set(S)]
        if outside:
            term_rank[k] = rank_subset(data.draw(st.sampled_from(outside)), C)
    elif kind == "duplicate-set":
        term_rank[k] = term_rank[data.draw(st.sampled_from(same_message.tolist()))]
    return plan._replace(term_file=term_file, term_rank=term_rank)


def test_peeling_agrees_with_a_brute_force_check_on_terms_partly_outside():
    # A term whose index set has some labels in its message and some outside
    # is refused at its message; every such move of every term is checked.
    params = SchemeParams(5, 1, 3, 2)
    users, wanted = [(1,), (2,), (4,)], np.array([1, 2, 1])
    plan = plan_for(params, DemandAssignment(dict(zip(users, wanted.tolist()))))
    user_array = np.array(users, dtype=np.int64)
    for k, m in enumerate(plan.term_message.tolist()):
        S = set(plan.coded_sets[m].tolist())
        for T in combinations(range(1, 6), 3):
            if not 0 < len(S & set(T)) < 3:
                continue
            term_rank = plan.term_rank.copy()
            term_rank[k] = rank_subset(T, 5)
            moved = plan._replace(term_rank=term_rank)
            try:
                got = [column.tolist()
                       for column in scheme._peeling(params, moved, user_array, wanted)]
            except DecodingError as error:
                got = (error.user, error.coded_set, error.reason, str(error))
            assert got == reference_check(params, moved, users, wanted)


# Each kind draws its own examples; "two-kinds" applies two drawn kinds in turn.
@pytest.mark.parametrize("kind", _PLAN_CORRUPTIONS + ["two-kinds"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_peeling_agrees_with_a_brute_force_check(kind, data):
    C = data.draw(st.integers(min_value=2, max_value=8))
    r = data.draw(st.integers(min_value=1, max_value=C - 1))
    t = data.draw(st.integers(min_value=1, max_value=C - r))
    N = data.draw(st.integers(min_value=1, max_value=4))
    params = SchemeParams(C, r, t, N)
    active = data.draw(st.sets(st.sampled_from(list(params.users())), min_size=1, max_size=12))
    users = sorted(active)
    wanted = np.array(data.draw(st.lists(st.integers(1, N), min_size=len(users),
                                         max_size=len(users))), dtype=np.int64)
    plan = plan_for(params, DemandAssignment(dict(zip(users, wanted.tolist()))))
    if kind == "two-kinds":
        plan = _corrupt_plan(data, params, plan, data.draw(st.sampled_from(_PLAN_CORRUPTIONS)))
        assume(len(plan.term_rank) > 0)  # the second kind needs a term to act on
        kind = data.draw(st.sampled_from(_PLAN_CORRUPTIONS))
    plan = _corrupt_plan(data, params, plan, kind)
    expected = reference_check(params, plan, users, wanted)
    try:
        got = [column.tolist() for column in
               scheme._peeling(params, plan, np.array(users, dtype=np.int64), wanted)]
    except DecodingError as error:
        got = (error.user, error.coded_set, error.reason, str(error))
    assert got == expected


def seeded_partial_demand(C, r, t, active, mode, seed=0):
    """Parameters and demand as ``simulate_report`` draws them for ``active`` users."""
    params = SchemeParams(C, r, t, min(binom(C, r), active))
    demand = make_demand(params, mode, SplitMix64(seed).spawn(), active)
    return params, demand, mode != "random"


# Digests of scheme_dump (as compact JSON) and of generate_transmissions
# (as the repr of ``plain``) for partial populations, taken while the plan
# still held one slot per (message, user) with file 0 for inactive users.
@pytest.mark.parametrize(
    "point, messages, dump_sha256, transmissions_sha256",
    [
        ((14, 3, 4, 60, "random"), 3429,
         "aad88941d04e81bd0d6818a743d761a9e630270d83953c02e60bf084198059cd",
         "6258c14a2feab72770e2ccc054e38c7f05f95e42853d2b3bd343c8c395f2b910"),
        ((9, 3, 3, 5, "random"), 68,
         "b27a4c063cc3ec05923ba45bb52baefb0532e388d712d7083d753df91596582d",
         "efcab20c63389d149db7cecbd3370696ce23307709945231c77be68d5d5a486b"),
        ((8, 2, 3, 10, "distinct"), 55,
         "cef6cd3e8e539c64e3ad58fada649470f7f87d932f306a39ea15a8d13a2f218e",
         "3b448f9ed6c75128cad2195122d61ef05fa1c1c8226d8e3eca4beb31a518f96f"),
    ],
    ids=["14-3-4-60-random", "9-3-3-5-random", "8-2-3-10-strict"],
)
def test_partial_population_delivery_golden_digest(point, messages, dump_sha256,
                                                   transmissions_sha256):
    params, demand, strict = seeded_partial_demand(*point)
    txs = generate_transmissions(params, demand, strict)
    assert len(txs) == messages
    assert hashlib.sha256(repr(plain(txs)).encode()).hexdigest() == transmissions_sha256
    dump = json.dumps(scheme_dump(params, demand, strict)).encode()
    assert hashlib.sha256(dump).hexdigest() == dump_sha256


def test_partial_random_simulate_report_is_frozen():
    # The benchmark's partial-random operation at seed 0.
    assert simulate_report(14, 3, 4, file_size=4096, seed=0, demand_mode="random",
                           active=60) == {
        "params": {"C": 14, "r": 3, "t": 4, "N": 60}, "seed": 0, "demand_mode": "random",
        "file_size": 4096, "active_users": 60, "population": 364, "decoded_ok": 60,
        "transmissions": 3429, "subpacketization": 1001, "measured_rate": "3429/1001",
        "analytic_rate": "24/7", "rates_equal": False,
    }
