"""Constructive core of the multi-access caching scheme.

Placement fills C caches with subfiles indexed by t-subsets of [C]; delivery
sends one XOR-coded message per (t+r)-subset; each user, identified with the
r-subset of caches it reads, peels every message whose index set contains it.
The byte path reads the placement as a rule (U reads W_{i,T} exactly when
T meets U) and runs one integer delivery plan through encoder and decoder;
``decode_user`` peels one user from the cache contents it is given.

Parameters follow the usual naming: C caches, access degree r, cache
parameter t (each cache holds the fraction t/C of the library), N files.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, product, starmap
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .combinatorics import binom, enumerate_subsets, rank_subsets, subset_array
from .combinatorics import validate_subset
from .combinatorics import rank_subset  # noqa: F401  perfbench/layers.py wraps macc.scheme.rank_subset


class DemandError(ValueError):
    """A demand assignment violates the rules of the active mode."""


class DecodingError(RuntimeError):
    """A user hit a coded term it cannot cancel from its caches.

    This cannot happen for a correct placement/delivery pair, so it is raised
    loudly instead of being swallowed: it always indicates a construction bug.
    ``user`` is the failing user (None for a malformed plan, which is refused
    before any user is checked), ``coded_set`` the message it failed on (None
    when a subfile was never delivered) and ``reason`` the rule it broke.
    """

    def __init__(self, message: str, user: tuple[int, ...] | None,
                 coded_set: tuple[int, ...] | None, reason: str) -> None:
        super().__init__(message)
        self.user, self.coded_set, self.reason = user, coded_set, reason


class SubfileId(NamedTuple):
    """Identifier of one subfile: file index i and t-subset index set T."""

    file_index: int
    index_set: tuple[int, ...]


@dataclass(frozen=True)
class SchemeParams:
    """Validated parameter tuple (C, r, t, N).

    t = 0 is no caching: every file is one subfile, sent uncoded once per
    active user. t + r > C is permitted: the delivery phase is then empty
    (every user already reaches all subfiles of every file through its caches).
    """

    num_caches: int
    access_degree: int
    cache_param: int
    num_files: int

    def __post_init__(self) -> None:
        C, r, t, N = self.num_caches, self.access_degree, self.cache_param, self.num_files
        if C < 1:
            raise ValueError(f"num_caches must be positive, got {C}")
        if not 1 <= r <= C:
            raise ValueError(f"access_degree must satisfy 1 <= r <= {C}, got {r}")
        if not 0 <= t <= C:
            raise ValueError(f"cache_param must satisfy 0 <= t <= {C}, got {t}")
        if N < 1:
            raise ValueError(f"num_files must be positive, got {N}")

    @property
    def num_users(self) -> int:
        """Maximum population: one user per r-subset of caches."""
        return binom(self.num_caches, self.access_degree)

    @property
    def subpacketization(self) -> int:
        """Number of subfiles each file is split into."""
        return binom(self.num_caches, self.cache_param)

    @property
    def cache_fraction(self) -> Fraction:
        """Fraction of the library each single cache stores (M/N = t/C)."""
        return Fraction(self.cache_param, self.num_caches)

    def users(self) -> Iterator[tuple[int, ...]]:
        """All user identities in lexicographic order."""
        return enumerate_subsets(self.num_caches, self.access_degree)

    def subfile_index_sets(self) -> Iterator[tuple[int, ...]]:
        """All subfile index sets in lexicographic order."""
        return enumerate_subsets(self.num_caches, self.cache_param)


@dataclass(frozen=True)
class CacheContent:
    """Everything one cache stores: all subfiles whose index set names it."""

    cache_label: int
    subfiles: frozenset[SubfileId]


@dataclass(frozen=True)
class Transmission:
    """One coded message: the XOR of ``terms``, addressed by ``coded_set``.

    There is one term per active user U inside the coded set, carrying
    W_{d_U, coded_set \\ U}: binom(t+r, r) of them when every user is active.
    Terms are ordered lexicographically by the user subset they serve.
    """

    coded_set: tuple[int, ...]
    terms: tuple[SubfileId, ...]

    def user_of_term(self, term: SubfileId) -> tuple[int, ...]:
        """The user a term serves: the coded set minus the term's index set."""
        return tuple(x for x in self.coded_set if x not in term.index_set)


@dataclass(frozen=True)
class DemandAssignment:
    """Map from active user (r-subset of cache labels) to demanded file index.

    Keys are normalized to sorted tuples of integer labels and values to
    integer file indices; a float or string in either is refused. Any subset
    of the user population may be active; validation against concrete
    parameters happens inside the operations that consume the assignment.
    """

    entries: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        normalized = {}
        for user, file_index in dict(self.entries).items():
            try:
                labels = iter(user)
            except TypeError as exc:
                raise DemandError(f"user {user} is not a subset of cache labels") from exc
            try:
                key = tuple(sorted(map(operator.index, labels)))
            except TypeError as exc:
                raise DemandError(f"user {user} has a cache label that is not an integer") from exc
            if len(set(key)) != len(key):
                raise DemandError(f"user {user} repeats a cache label")
            if key in normalized:
                raise DemandError(f"user {key} assigned more than one demand")
            try:
                normalized[key] = operator.index(file_index)
            except TypeError as exc:
                raise DemandError(f"user {key} demands {file_index!r}, not an integer "
                                  "file index") from exc
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def from_request_vector(cls, params: SchemeParams, requests: Sequence[int]) -> "DemandAssignment":
        """Demands for the full population, one per user in lexicographic order."""
        if len(requests) != params.num_users:
            raise DemandError(
                f"request vector has {len(requests)} entries, expected {params.num_users}"
            )
        return cls(dict(zip(params.users(), requests)))

    def active_users(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)


def _check_demand(params: SchemeParams, demand: DemandAssignment, strict: bool) -> None:
    """Validate a demand assignment against concrete parameters.

    Keys are sorted integer tuples without repeats, so a user is valid
    exactly when it has r labels, the first at least 1 and the last at most
    C. The first offending user in ``entries`` order is reported. Strict mode
    additionally requires pairwise-distinct file indices, the regime the rate
    analysis assumes. Decoding itself never needs it.
    """
    C, r, N = params.num_caches, params.access_degree, params.num_files
    for user, file_index in demand.entries.items():
        if len(user) != r or user[0] < 1 or user[-1] > C:
            try:
                validate_subset(user, C, r)
            except ValueError as exc:
                raise DemandError(f"user {user} is not a valid user identity: {exc}") from exc
        if not 1 <= file_index <= N:
            raise DemandError(f"user {user} demands file {file_index}, outside 1..{N}")
    if strict and len(set(demand.entries.values())) != len(demand.entries):
        raise DemandError("demands must be pairwise distinct in strict mode")


def cache_subfiles(params: SchemeParams) -> dict[int, list[SubfileId]]:
    """The placement rule: cache k holds W_{i,T} for every file i and every T
    containing k, N * binom(C-1, t-1) subfiles listed in (file, T) order."""
    per_cache: dict[int, list[SubfileId]] = {k: [] for k in range(1, params.num_caches + 1)}
    files = range(1, params.num_files + 1)
    for subfile in starmap(SubfileId, product(files, params.subfile_index_sets())):
        for k in subfile.index_set:
            per_cache[k].append(subfile)
    return per_cache


def build_placement(params: SchemeParams) -> list[CacheContent]:
    """The C caches of :func:`cache_subfiles`, each a fraction t/C of the library."""
    return [CacheContent(k, frozenset(subfiles)) for k, subfiles in cache_subfiles(params).items()]


def accessible_subfile_indices(params: SchemeParams, user: Sequence[int]) -> set[tuple[int, ...]]:
    """Index sets a user can read: exactly the T with T intersecting the user."""
    user_set = set(validate_subset(user, params.num_caches, params.access_degree))
    return {T for T in params.subfile_index_sets() if user_set.intersection(T)}


def accessible_fraction(params: SchemeParams) -> Fraction:
    """Fraction of each file a user reaches through its r caches.

    A user misses exactly the t-subsets of the C - r caches it does not
    read, so the fraction is 1 - binom(C-r, t)/binom(C, t), the same for
    every user; binom(C-r, t) = 0 when t > C - r.
    """
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    return 1 - Fraction(binom(C - r, t), binom(C, t))


class _Plan(NamedTuple):
    """A delivery as integer arrays: one row per message, one entry per term.

    The terms of message m are the run of entries whose ``term_message`` is
    m, so they are grouped by message in row order; within a message they
    follow the lex order of the users they serve. That order is only where
    the encoder puts a term: the decoder finds the user a term serves from
    its index set ``term_rank`` (the lex rank of T) and its message. User U
    reads subfile T exactly when T meets U: ``subfile_sets`` lists every T
    by rank, and that rule is the whole placement.
    """

    coded_sets: np.ndarray  # (M, t+r) cache labels
    term_message: np.ndarray  # (terms,) row of the term's message, nondecreasing
    term_file: np.ndarray  # (terms,) file index
    term_rank: np.ndarray  # (terms,) lex rank of the term's index set
    subfile_sets: np.ndarray  # (F, t) every index set, by rank


def _delivery_plan(params: SchemeParams, demand: DemandAssignment) -> _Plan:
    """The term list: W_{d_U, T} for every active user U and every t-subset T
    of [C] \\ U, sent in the message S = U ∪ T.

    That is A·binom(C-r, t) terms for A active users, with no work for an
    inactive one. The ranks of T and S come from a binomial table and the
    place of each label in S. The label x at place p of [C] \\ U has
    x - 1 - p labels of U below it, so as the i-th label of T it sits at
    place i + x - 1 - p of S; the j-th label of U sits at place j plus the
    number of labels of T below it. One stable sort by the rank of S puts
    the messages in lex order and keeps the terms of each in the lex order
    of their users.
    """
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    k, active = t + r, demand.active_users()
    users = np.array(active, dtype=np.int64).reshape(-1, r)
    A = len(users)
    free = np.ones((A, C + 1), dtype=bool)
    free[:, 0] = False
    free[np.arange(A)[:, None], users] = False
    rest = np.nonzero(free)[1].reshape(A, C - r)  # each user's other labels, increasing
    picks = subset_array(C - r, t) - 1  # (K, t) places in the rest, in lex order
    K = len(picks)
    # below[q, b]: how many of the places in pick b lie below place q of the rest.
    below = (picks[:, :, None] < np.arange(C - r + 1)).sum(axis=1).T
    # The lex rank of a k-subset is C(C, k) - 1 - the sum of C(C - x, k - i) over
    # its labels x at places i; weight[x, i] is that term, and weight[x, r + i]
    # the one of a t-subset.
    weight = np.array([[binom(C - x, k - i) for i in range(k)] for x in range(C + 1)], np.int64)
    set_rank = np.full((A, K), binom(C, k) - 1, dtype=np.int64)
    term_rank = np.full((A, K), binom(C, t) - 1, dtype=np.int64)
    for i in range(t):
        set_rank -= np.take(weight[rest, i + rest - 1 - np.arange(C - r)], picks[:, i], axis=1)
        term_rank -= np.take(weight[rest, r + i], picks[:, i], axis=1)
    for j in range(r):
        set_rank -= weight.reshape(-1)[(users[:, j] * k + j)[:, None] + below[users[:, j] - 1 - j]]
    set_rank = set_rank.reshape(-1)
    order = np.argsort(set_rank.astype(np.min_scalar_type(binom(C, k))), kind="stable")
    new = np.diff(set_rank[order], prepend=-1) != 0
    # Each message's labels, placed from its first term.
    a, b = np.divmod(order[new], K)
    T, rows = rest[a[:, None], picks[b]], np.arange(len(a))[:, None]
    coded_sets = np.empty((len(a), k), dtype=np.int64)
    coded_sets[rows, np.arange(t) + T - 1 - picks[b]] = T
    coded_sets[rows, np.arange(r) + below[users[a] - 1 - np.arange(r), b[:, None]]] = users[a]
    files = np.array([demand.entries[u] for u in active], dtype=np.int64)
    return _Plan(coded_sets, np.cumsum(new) - 1, files[order // K],
                 term_rank.reshape(-1)[order], subset_array(C, t))


_PAIR_CHECKS = (
    "names a file not in 1..N",
    "does not hold exactly one term the user cannot read",
    "serves the user a file other than its demand",
)
_MALFORMED = "is out of lex order or holds a term outside it"


def _victims(params: SchemeParams, plan: _Plan) -> np.ndarray:
    """The one user each term misses, as its lex rank among the r-subsets of
    [C], in term order.

    The scheme sends each coded set once, in lex order, with every term's
    index set T inside its message S; the first message that breaks this is
    refused before any user is checked. A term W_{f,T} with T inside S misses
    exactly one user of S, its victim S \\ T; every other r-subset of S meets
    T. Its labels are the labels of S at the places T does not take: from
    the places q_0 < ... < q_{t-1} of T, the victim's places are the
    r-subset of places at lex position sum C(t+r-1-q_i, t-i).
    """
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    k, M, n = t + r, len(plan.coded_sets), len(plan.term_rank)
    place = np.full((M, C + 1), k, dtype=np.min_scalar_type(k))  # k: not in S
    place[np.arange(M)[:, None], plan.coded_sets] = np.arange(k)
    at = plan.term_message * (C + 1)
    inside, slot = np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64)
    for i, labels in enumerate(plan.subfile_sets.T):
        index = labels[plan.term_rank]
        index += at
        q = place.reshape(-1)[index]
        inside &= q < k
        slot += np.array([binom(k - 1 - p, t - i) for p in range(k)] + [0])[q]
    step = np.diff(plan.coded_sets, axis=0)
    malformed = np.zeros(M, dtype=bool)
    malformed[1:] = step[np.arange(M - 1), (step != 0).argmax(axis=1)] <= 0
    malformed[plan.term_message[~inside]] = True
    if malformed.any():
        S = tuple(plan.coded_sets[malformed.argmax()].tolist())
        raise DecodingError(f"transmission {S} {_MALFORMED}", None, S, _MALFORMED)
    # The victim's rank: C(C, r) - 1 - the sum of C(C - x, r - j) over its labels
    # x at places j, read from one (k, r) table per message.
    weight = np.array([[binom(C - x, r - j) for j in range(r)] for x in range(C + 1)], np.int64)
    table, places = weight[plan.coded_sets].reshape(-1), subset_array(k, r) - 1
    victims, at = np.full(n, binom(C, r) - 1, dtype=np.int64), plan.term_message * (k * r)
    for offset in (places * r + np.arange(r)).T:  # flat (place, j) of the victim's j-th label
        index = offset[slot]
        index += at
        victims -= table[index]
    return victims


def _peeling(
    params: SchemeParams, plan: _Plan, users: Sequence[tuple[int, ...]], wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (user, message) pair of a message serving one of ``users`` (sorted),
    as the position in ``users`` and the term the pair delivers, ordered by
    user, then message.

    Checks the decodability argument for all pairs at once, in O(terms),
    after ``_victims`` has refused a plan of the wrong shape: each term's
    one victim S \\ T is found from its index set and its message,
    never from where it sits, and then each message containing a user must
    name files in 1..N and hold exactly one term the user cannot read (no
    term misses it twice, none is missing), for its demand ``wanted``; the
    other terms meet the user, so its caches hold them. Coverage follows by
    counting: the pieces a user cannot read are the binom(C-r, t) t-subsets
    of the rest, and each message S containing it delivers a different one,
    S minus the user, so it must be the victim in exactly that many messages.
    Then no message containing it is left out, as there are no more such
    coded sets. The first failing user in ``users`` order is reported, with
    the first of these checks it fails; only then are its messages listed
    and its missing pieces found.
    """
    C, r, t, N = params.num_caches, params.access_degree, params.cache_param, params.num_files
    M, A = len(plan.coded_sets), len(users)
    user_sets = np.array(users, dtype=np.int64).reshape(A, r)
    # User rank -> position, -1 for an inactive user, in the smallest type that holds A.
    where = np.full(params.num_users, -1, dtype=np.min_scalar_type(-1 - A))
    where[rank_subsets(user_sets, C)] = np.arange(A)
    at = where[_victims(params, plan)]
    # The terms come in message order, so one stable sort orders the pairs.
    terms = np.flatnonzero(at >= 0)
    terms = terms[np.argsort(at[terms].astype(np.min_scalar_type(A)), kind="stable")]
    at = at[terms]
    messages = plan.term_message[terms]
    new = np.ones(len(at), dtype=bool)
    new[1:] = (at[1:] != at[:-1]) | (messages[1:] != messages[:-1])
    first = np.flatnonzero(new)
    unread = np.diff(first, append=len(at))
    pair_user, messages, target = at[first], messages[first], terms[first]
    bad_file = np.zeros(M, dtype=bool)
    bad_file[plan.term_message[(plan.term_file < 1) | (plan.term_file > N)]] = True
    served = plan.term_file[target]
    failed = bad_file[messages] | (unread != 1) | (served != wanted[pair_user])
    short = np.bincount(pair_user, minlength=A) != binom(C - r, t)
    failing = np.concatenate([pair_user[failed], np.flatnonzero(short)])
    if len(failing):
        a = int(failing.min())
        user, mine = tuple(users[a]), pair_user == a
        holding = np.flatnonzero(np.isin(plan.coded_sets, user).sum(axis=1) == r)
        count, file = np.zeros(M, dtype=np.int64), np.zeros(M, dtype=np.int64)
        count[messages[mine]], file[messages[mine]] = unread[mine], served[mine]
        count, file = count[holding], file[holding]
        check = np.select([bad_file[holding], count != 1, file != wanted[a]], [1, 2, 3], 0)
        if check.any():
            first_check = int(check[check != 0].min())
            m = holding[(check == first_check).argmax()]
            reason, S = _PAIR_CHECKS[first_check - 1], tuple(plan.coded_sets[m].tolist())
            raise DecodingError(f"transmission {S} {reason}: user {user}, demand {wanted[a]}, "
                                f"term files {plan.term_file[plan.term_message == m].tolist()}",
                                user, S, reason)
        covered = np.isin(plan.subfile_sets, user).any(axis=1)
        covered[plan.term_rank[target[mine]]] = True
        missing = [tuple(T) for T in plan.subfile_sets[~covered].tolist()]
        raise DecodingError(f"user {user} never obtained subfile indices {missing}",
                            user, None, "never obtained subfile indices")
    return pair_user, target


def generate_transmissions(
    params: SchemeParams, demand: DemandAssignment, strict: bool = True
) -> list[Transmission]:
    """Delivery phase: one Transmission per useful (t+r)-subset, in lex order.

    Each transmission XORs W_{d_U, S \\ U} over the active users U inside its
    coded set S, terms ordered lexicographically by U; none when t + r > C.
    This is the object view of the plan ``simulate_end_to_end`` runs on.
    """
    _check_demand(params, demand, strict)
    plan = _delivery_plan(params, demand)
    terms = [SubfileId(f, tuple(T)) for f, T in
             zip(plan.term_file.tolist(), plan.subfile_sets[plan.term_rank].tolist())]
    bounds = np.searchsorted(plan.term_message, np.arange(len(plan.coded_sets) + 1)).tolist()
    return [Transmission(tuple(S), tuple(terms[lo:hi]))
            for S, lo, hi in zip(plan.coded_sets.tolist(), bounds, bounds[1:])]


def decode_user(
    params: SchemeParams, user: Sequence[int], demand: DemandAssignment,
    transmissions: Sequence[Transmission], caches: Sequence[CacheContent],
) -> set[SubfileId]:
    """Subfiles of the demanded file a user recovers from the transmissions.

    The user reads the entries of ``caches`` it names. Each message whose coded
    set S contains the user must carry terms W_{f,T} with T a t-subset of S, no
    T twice and f in 1..N; exactly one term none of those caches holds; and that
    one for the user's demand, which it peels. Every piece of the demanded file
    must be cached or peeled. Each rule is checked over all of the user's
    messages before the next; the first failure raises DecodingError. Each
    call scans the whole list, so it costs O(len(transmissions)).

    A repeated coded set is accepted: this decodes what it receives, and a
    repeat carries no new piece; ``_peeling`` refuses plans the scheme cannot send.
    """
    C, r, t, N = params.num_caches, params.access_degree, params.cache_param, params.num_files
    user = validate_subset(user, C, r)
    if user not in demand.entries:
        raise DemandError(f"user {user} has no demand assigned")
    wanted, valid = demand.entries[user], set(params.subfile_index_sets())
    held = [cache.subfiles for cache in caches if cache.cache_label in user]  # never merged
    messages = []
    for tx in [tx for tx in transmissions if set(user).issubset(tx.coded_set)]:
        S, terms, sets = validate_subset(tx.coded_set, C, t + r), tx.terms, {T for _, T in tx.terms}
        if not (len(sets) == len(terms) and valid.issuperset(sets)
                and set(S).issuperset(chain.from_iterable(sets))
                and all(1 <= f <= N for f, _ in terms)):
            # A malformed term, or index sets out of order: check term by term.
            terms, sets = [], set()
            for term in tx.terms:
                f, T = term.file_index, tuple(sorted(term.index_set))
                if T not in valid or not set(T) <= set(S) or T in sets or not 1 <= f <= N:
                    reason = f"needs a {t}-subset of it no other term uses and a file in 1..{N}"
                    raise DecodingError(f"term {term} of transmission {S} {reason}",
                                        user, S, reason)
                sets.add(T)
                terms.append((f, T))
        # The terms none of the caches holds; a set difference hashes each term once.
        messages.append((S, terms, reduce(set.difference, held, set(terms))))
    wrong = ([m for m in messages if len(m[2]) != 1]
             or [m for m in messages if {f for f, _ in m[2]} != {wanted}])
    if wrong:
        S, terms, unread = wrong[0]
        reason = _PAIR_CHECKS[1] if len(unread) != 1 else _PAIR_CHECKS[2]
        raise DecodingError(f"transmission {S} {reason}: user {user}, demand {wanted}, "
                            f"terms {[tuple(term) for term in terms]}", user, S, reason)
    peeled = set().union(*(unread for _, _, unread in messages))
    missing = reduce(set.difference, held, {(wanted, T) for T in valid} - peeled)
    if missing:
        raise DecodingError(f"user {user} never obtained subfile indices "
                            f"{sorted(T for _, T in missing)}",
                            user, None, "never obtained subfile indices")
    return {SubfileId(*piece) for piece in peeled}


def _chunk_matrix(params: SchemeParams, file_payloads: Sequence[bytes]) -> tuple[np.ndarray, int]:
    """Split payloads into the (N, F, chunk_len) uint8 matrix, zero-padded,
    and return it with the payload length. Subfile T of file i is row
    (i - 1, rank(T))."""
    N = params.num_files
    if len(file_payloads) != N:
        raise ValueError(f"expected {N} payloads, got {len(file_payloads)}")
    lengths = {len(p) for p in file_payloads}
    if len(lengths) > 1:
        raise ValueError(f"payloads must share one length, got lengths {sorted(lengths)}")
    (length,) = lengths or {0}
    F = params.subpacketization
    chunks = np.zeros((N, F, -(-length // F)), dtype=np.uint8)
    for i, payload in enumerate(file_payloads):
        chunks[i].reshape(-1)[:length] = np.frombuffer(payload, dtype=np.uint8)
    return chunks, length


def _places(
    plan: _Plan, F: int
) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """How the byte passes walk the terms, a place at a time: the messages in
    decreasing order of their term counts, the index of each message's first
    term, c_j for each place j, and the chunk row (f - 1)·F + rank(T) of
    each term. The messages with more than j terms, which hold a term at
    place j, are the first c_j of that order."""
    M, n = len(plan.coded_sets), len(plan.term_message)
    starts = np.searchsorted(plan.term_message, np.arange(M))
    sizes = np.diff(starts, append=n)
    most = sizes.max(initial=0)
    by_size = np.argsort((most - sizes).astype(np.min_scalar_type(most)), kind="stable")
    rows = plan.term_file - 1
    rows *= F
    rows += plan.term_rank
    counts = (M - np.cumsum(np.bincount(sizes, minlength=2))[:-1]).tolist()
    return by_size, starts, counts, rows


def _encode(plan: _Plan, chunks: np.ndarray) -> np.ndarray:
    """XOR each message's terms into one (M, chunk_len) buffer, a place at a
    time (see ``_places``)."""
    N, F, L = chunks.shape
    by_size, starts, counts, rows = _places(plan, F)
    first, flat = starts[by_size], chunks.reshape(N * F, L)
    coded = np.zeros((len(by_size), L), dtype=np.uint8)
    for j, c in enumerate(counts):
        coded[:c] ^= flat[rows[first[:c] + j]]
    out = np.empty_like(coded)
    out[by_size] = coded
    return out


def _leave_one_out(
    plan: _Plan, chunks: np.ndarray, coded: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The piece of each term, its coded message XOR every other term of the
    message, as a (terms, chunk_len) buffer and the row of each term's piece.

    One forward and one backward scan run over the terms of each message, a
    place at a time (see ``_places``). The buffer holds the pieces place by
    place, so each step of a scan XORs whole runs of rows.
    """
    N, F, L = chunks.shape
    M, n = len(coded), len(plan.term_message)
    by_size, starts, counts, rows = _places(plan, F)
    first, flat = starts[by_size], chunks.reshape(N * F, L)
    offsets = np.cumsum([0] + counts).tolist()

    def terms(j: int, c: int) -> np.ndarray:
        """The chunks of the terms at place j of the first c messages."""
        return flat[rows[first[:c] + j]]

    pieces = np.empty((n, L), dtype=np.uint8)
    pieces[:counts[0]] = coded[by_size[:counts[0]]]
    for j in range(1, len(counts)):
        previous, c = offsets[j - 1], counts[j]
        np.bitwise_xor(pieces[previous:previous + c], terms(j - 1, c),
                       out=pieces[offsets[j]:offsets[j] + c])
    after = np.zeros_like(coded)
    for j in range(len(counts) - 1, 0, -1):
        previous, c = offsets[j - 1], counts[j]
        after[:c] ^= terms(j, c)
        pieces[previous:previous + c] ^= after[:c]
    # The piece of term j of message m is at row offsets[j] + the place of m in by_size.
    position = np.empty(M, dtype=np.int64)
    position[by_size] = np.arange(M)
    m = plan.term_message
    return pieces, np.array(offsets)[np.arange(n) - starts[m]] + position[m]


class Decoded(dict):
    """User -> reassembled bytes; ``messages`` counts the coded messages sent."""

    messages: int = 0


def simulate_end_to_end(
    params: SchemeParams, file_payloads: Sequence[bytes], demand: DemandAssignment,
    strict: bool = True,
) -> Decoded:
    """Run placement, delivery and decoding on real bytes.

    Every file is chopped into binom(C, t) chunks (zero-padded to divide
    evenly); coded messages are bytewise XORs of chunks. Returns the bytes
    each active user reassembles, which must equal its demanded payload.
    """
    _check_demand(params, demand, strict)
    chunks, length = _chunk_matrix(params, file_payloads)
    plan = _delivery_plan(params, demand)
    users = demand.active_users()
    wanted = np.array([demand.entries[u] for u in users], dtype=np.int64)
    pair_user, target = _peeling(params, plan, users, wanted)
    pieces, row = _leave_one_out(plan, chunks, _encode(plan, chunks))
    del chunks
    delivered, row = plan.term_rank[target], row[target]
    bounds = np.searchsorted(pair_user, np.arange(len(users) + 1)).tolist()
    decoded = np.empty((params.subpacketization, pieces.shape[1]), dtype=np.uint8)
    flat = decoded.reshape(-1)
    outputs = Decoded()
    for user, f, lo, hi in zip(users, wanted.tolist(), bounds, bounds[1:]):
        # Start from the cached file: _peeling proved that the pieces the user
        # cannot read are exactly the delivered ones, and those are overwritten.
        flat[:length] = np.frombuffer(file_payloads[f - 1], dtype=np.uint8)
        decoded[delivered[lo:hi]] = pieces[row[lo:hi]]
        outputs[user] = flat[:length].tobytes()
    outputs.messages = len(plan.coded_sets)
    return outputs
