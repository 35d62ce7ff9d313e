"""Acceptance gate: the ten go/no-go checks, one test and one PASS line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines). Criteria 3, 4 and 5 share one byte-level sweep over every
parameter point with C <= 8, executed once per session.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from macc.baselines import Scheme
from macc.combinatorics import binom
from macc.golden import (
    PROPOSED_ADVANTAGE_ROWS,
    REFERENCE_EXAMPLES,
    SPE_ADVANTAGE_ROWS,
    TABLE_RATIO_TOLERANCE,
)
from macc.harness import SplitMix64, evaluate_scheme, run_tables, verify_reference_cases
from macc.metrics import delivery_rate
from macc.scheme import (
    DemandAssignment,
    SchemeParams,
    SubfileId,
    accessible_fraction,
    build_placement,
    decode_user,
    generate_transmissions,
    simulate_end_to_end,
)


def _proposed_per_user(C: int, r: int, t: int) -> Fraction:
    return delivery_rate(C, r, t) / binom(C, r)


def rate(scheme: Scheme, C: int, r: int, t: int):
    """The rate of ``scheme``'s comparison row at (C, r, t), or its gap."""
    return evaluate_scheme(scheme, C, r, t).rate


@pytest.fixture(scope="module")
def decodability_sweep():
    """Byte-level end-to-end run at every (C, r, t) with C <= 8, t + r <= C."""
    rng = SplitMix64(20260816)
    results = []
    start = time.perf_counter()
    for C in range(2, 9):
        for r in range(1, C):
            for t in range(1, C - r + 1):
                K = binom(C, r)
                params = SchemeParams(C, r, t, K)
                stream = rng.spawn()
                payloads = [stream.spawn().bytes(16) for _ in range(K)]
                deck = list(range(1, K + 1))
                stream.shuffle(deck)
                demand = DemandAssignment(dict(zip(params.users(), deck)))
                outputs = simulate_end_to_end(params, payloads, demand)
                byte_exact = len(outputs) == K and all(
                    outputs[u] == payloads[demand.entries[u] - 1]
                    for u in demand.entries
                )
                transmissions = generate_transmissions(params, demand)
                results.append(
                    {
                        "C": C,
                        "r": r,
                        "t": t,
                        "byte_exact": byte_exact,
                        "num_transmissions": len(transmissions),
                        "term_counts": {len(tx.terms) for tx in transmissions},
                    }
                )
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_01_golden_examples():
    start = time.perf_counter()
    ok, lines = verify_reference_cases()
    elapsed = time.perf_counter() - start
    assert ok, lines

    by_label = {ex.label: ex for ex in REFERENCE_EXAMPLES}
    regenerated = {}
    for label, ex in by_label.items():
        demand = DemandAssignment.from_request_vector(ex.params, ex.requests)
        regenerated[label] = tuple(generate_transmissions(ex.params, demand))
        assert regenerated[label] == ex.expected, label

    first = regenerated["case 1 (C=4, r=2, t=1)"]
    assert len(first) == 4 and all(len(terms) == 3 for _, terms in first)

    second = regenerated["case 2 (C=5, r=3, t=2)"]
    assert len(second) == 1 and len(second[0][1]) == 10

    third = by_label["case 3 (C=5, r=2, t=2)"]
    assert regenerated[third.label][:4] == third.as_listed[:4]
    formula_fifth = regenerated[third.label][4]
    listed_fifth = third.as_listed[4]
    assert formula_fifth != listed_fifth
    assert set(formula_fifth[1]) - set(listed_fifth[1]) == {(7, (3, 4)), (8, (2, 5))}
    assert any("misprints" in line for line in lines)

    assert elapsed < 1.0, f"verification took {elapsed:.3f}s"
    print(f"PASS criterion 1: all three reference cases regenerate verbatim, "
          f"known misprint flagged ({elapsed:.3f}s)")


def test_criterion_02_ratio_tables():
    start = time.perf_counter()
    ok, lines = run_tables()
    elapsed = time.perf_counter() - start
    assert ok, [line for line in lines if line.startswith("FAIL")]

    for C, r, t, published in SPE_ADVANTAGE_ROWS:
        ratio = _proposed_per_user(C, r, t) / (rate(Scheme.SPE, C, r, t) / C)
        assert abs(float(ratio) - published) <= TABLE_RATIO_TOLERANCE, (C, r, t)
    for C, r, t, published in PROPOSED_ADVANTAGE_ROWS:
        ratio = (rate(Scheme.SPE, C, r, t) / C) / _proposed_per_user(C, r, t)
        assert abs(float(ratio) - published) <= TABLE_RATIO_TOLERANCE, (C, r, t)

    spot = _proposed_per_user(5, 2, 2) / (rate(Scheme.SPE, 5, 2, 2) / 5)
    assert spot == Fraction(5, 4)
    spot = (rate(Scheme.SPE, 25, 6, 4) / 25) / _proposed_per_user(25, 6, 4)
    assert abs(float(spot) - 1.097) <= TABLE_RATIO_TOLERANCE

    for C in range(4, 41):
        assert delivery_rate(C, C - 2, 1) == 1
        row = evaluate_scheme(Scheme.CLWZC, C, C - 2, 1)
        assert row.rate == 1
        assert binom(C, 1) == C
        assert row.subpacketization == 3 * C

    assert elapsed < 5.0, f"table recomputation took {elapsed:.3f}s"
    print(f"PASS criterion 2: 32 + 21 ratio rows within {TABLE_RATIO_TOLERANCE}, "
          f"symbolic column identities hold ({elapsed:.3f}s)")


def test_criterion_03_decodability_sweep(decodability_sweep):
    results, elapsed = decodability_sweep
    assert len(results) == 84
    failures = [(x["C"], x["r"], x["t"]) for x in results if not x["byte_exact"]]
    assert not failures, failures
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"PASS criterion 3: {len(results)} parameter points, every user "
          f"byte-exact ({elapsed:.1f}s)")


def test_criterion_04_measured_rate_matches_formula(decodability_sweep):
    results, _ = decodability_sweep
    for x in results:
        C, r, t = x["C"], x["r"], x["t"]
        measured = Fraction(x["num_transmissions"], binom(C, t))
        assert measured == delivery_rate(C, r, t), (C, r, t)
    print(f"PASS criterion 4: measured rate equals the closed form at all "
          f"{len(results)} points")


def test_criterion_05_coding_gain_invariant(decodability_sweep):
    results, _ = decodability_sweep
    for x in results:
        expected = binom(x["t"] + x["r"], x["r"])
        assert x["term_counts"] == {expected}, (x["C"], x["r"], x["t"])
    print("PASS criterion 5: every transmission carries exactly binom(t+r, r) terms")


def test_criterion_06_accessible_fraction_oracle():
    checked = 0
    for C in range(1, 11):
        population = list(range(1, C + 1))
        for r in range(1, C + 1):
            user = set(population[:r])
            for t in range(1, C + 1):
                count = sum(
                    1 for T in combinations(population, t) if user.intersection(T)
                )
                brute = Fraction(count, binom(C, t))
                params = SchemeParams(C, r, t, 1)
                assert accessible_fraction(params) == brute, (C, r, t)
                checked += 1
    assert accessible_fraction(SchemeParams(5, 3, 2, 1)) == Fraction(9, 10)
    print(f"PASS criterion 6: closed form equals brute force at {checked} points, "
          f"spot value 9/10 confirmed")


def test_criterion_07_single_access_reduction():
    for C in range(2, 31):
        for t in range(1, C):
            assert evaluate_scheme(Scheme.PROPOSED, C, 1, t).rate == Fraction(C - t, t + 1), (C, t)
    print("PASS criterion 7: r=1 rate equals (C-t)/(t+1) for all 1 <= t < C <= 30")


def test_criterion_08_baseline_consistency():
    for C in range(2, 41):
        for r in range(1, C + 1):
            if C % r != 0:
                continue
            for t in range(0, C + 1):
                assert rate(Scheme.HKD, C, r, t) == rate(Scheme.CLWZC, C, r, t), (C, r, t)

    for C in range(2, 41):
        for r in range((C + 1) // 2, C + 1):
            q = Fraction((C - r) * (C - r + 1), 2 * C)
            # Both closed forms at the first breakpoint, written out directly.
            assert C - (C - q) * Fraction(1, C) * C == q * (2 - Fraction(1, C) * C)
            assert rate(Scheme.RK_LB, C, r, 1) == q  # M/N = 1/C
            assert q * (2 - Fraction(2, C) * C) == 0
            assert rate(Scheme.RK_LB, C, r, 2) == 0
    print("PASS criterion 8: clwzc and hkd rates identical where both defined "
          "(C <= 40); lower-bound pieces agree exactly at both breakpoints")


def test_criterion_09_dynamism():
    params = SchemeParams(6, 2, 2, 15)
    caches = build_placement(params)
    users_all = list(params.users())
    all_T = list(params.subfile_index_sets())
    full_count = binom(6, 4)
    rng = SplitMix64(99)
    byte_checked = 0
    for trial in range(200):
        stream = rng.spawn()
        chosen = []
        while not chosen:
            chosen = [u for u in users_all if stream.next_below(2)]
        deck = list(range(1, 16))
        stream.shuffle(deck)
        demand = DemandAssignment(dict(zip(chosen, deck)))
        transmissions = generate_transmissions(params, demand)
        assert len(transmissions) <= full_count
        for user in chosen:
            wanted = demand.entries[user]
            recovered = decode_user(params, user, demand, transmissions, caches)
            missing = {T for T in all_T if not set(T).intersection(user)}
            assert recovered == {SubfileId(wanted, T) for T in missing}, user
        if trial % 10 == 0:
            payloads = [stream.spawn().bytes(8) for _ in range(15)]
            outputs = simulate_end_to_end(params, payloads, demand)
            assert all(
                outputs[u] == payloads[demand.entries[u] - 1] for u in chosen
            )
            byte_checked += 1
    print(f"PASS criterion 9: 200 seeded active subsets decode "
          f"({byte_checked} byte-verified), transmission count never above "
          f"{full_count}")


def test_criterion_10_figure_dominance():
    # Competitor on C = 24 caches, access degrees from its figure.
    hkd_points = 0
    for r in (2, 3, 4, 6, 8):
        t = 1
        while t * r < 24:
            competitor = rate(Scheme.HKD, 24, r, t) / 24
            assert _proposed_per_user(24, r, t) < competitor, (24, r, t)
            hkd_points += 1
            t += 1

    # Cyclic scheme with the converse bound, C = 12, r in 6..11. The only
    # integer grid point below 1/r is t = 1. At r = 11 the proposed curve
    # meets the bound exactly, so dominance is non-strict there.
    for r in range(6, 12):
        bound = rate(Scheme.RK_LB, 12, r, 1) / 12
        achievable = rate(Scheme.RK, 12, r, 1) / 12
        proposed = _proposed_per_user(12, r, 1)
        assert bound <= achievable
        if r < 11:
            assert proposed < bound, r
        else:
            assert proposed == bound == achievable == Fraction(1, 144)

    # Third competitor, C = 15, access degrees from its figure.
    clwzc_points = 0
    for r in range(2, 7):
        t = 1
        while t * r < 15:
            competitor = rate(Scheme.CLWZC, 15, r, t) / 15
            assert _proposed_per_user(15, r, t) < competitor, (15, r, t)
            clwzc_points += 1
            t += 1

    print(f"PASS criterion 10: per-user dominance at {hkd_points} + 6 + "
          f"{clwzc_points} grid points below M/N = 1/r (equality only at the "
          f"known boundary case)")
