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
from itertools import accumulate, product, starmap
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .baselines import check_counts
from .combinatorics import INT64_MAX, binom, enumerate_subsets, rank_subsets, rank_weights
from .combinatorics import subset_array, validate_subset
from .combinatorics import rank_subset  # noqa: F401  perfbench/layers.py wraps macc.scheme.rank_subset

if TYPE_CHECKING:
    import numpy as np


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
    """Validated parameter tuple (C, r, t, N) of integers, the owner of this
    scheme's range: C and r as ``check_counts`` has them, then r <= C, then t in 0..C.

    t = 0 is no caching: every file is one subfile, sent uncoded once per
    active user. t + r > C is permitted: the delivery phase is then empty
    (every user already reaches all subfiles of every file through its caches).
    """

    num_caches: int
    access_degree: int
    cache_param: int
    num_files: int

    def __post_init__(self) -> None:
        for field in ("num_caches", "access_degree", "cache_param", "num_files"):
            value = getattr(self, field)
            try:
                object.__setattr__(self, field, operator.index(value))
            except TypeError as exc:
                raise ValueError(f"{field} must be an integer, got {value!r}") from exc
        C, r, t, N = self.num_caches, self.access_degree, self.cache_param, self.num_files
        check_counts(C, r)
        if r > C:
            raise ValueError(f"access degree {r} exceeds cache count {C}")
        if not 0 <= t <= C:
            raise ValueError(f"cache parameter {t} outside 0..{C}")
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


class Transmission(NamedTuple):
    """One coded message: the XOR of ``terms``, addressed by ``coded_set``.

    There is one term per active user U inside the coded set, carrying
    W_{d_U, coded_set \\ U}: binom(t+r, r) of them when every user is active.
    Terms are ordered lexicographically by the user subset they serve. Like
    ``SubfileId`` it is a tuple: equal to, and hashing like, its nested form.
    """

    coded_set: tuple[int, ...]
    terms: tuple[SubfileId, ...]


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


def check_rank_range(params: SchemeParams) -> None:
    """Refuse a point whose subset ranks do not fit in int64: the integer
    plan needs binom(C, t), binom(C, r) and binom(C, t + r) each at most
    2**63 - 1, and nothing more.

    Under that no saturated entry of a ``rank_weights`` table enters the
    arithmetic. The ranks of users, victims, index sets T and coded sets S
    each start from binom(C, k) - 1, for k = r, r, t and t + r, and subtract
    entries of ``rank_weights(C, k)`` at the label and place of a real
    k-subset of [C], each at most that start. The entries that a fancy index
    gathers at other places are dropped by the pick or slot index before any
    subtraction. The victims' slot weights C(t+r-1-p, t-i) sum to a lex
    position below binom(t + r, t) <= binom(C, t); when t + r > C there is
    no term to read.
    """
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    for k in (t, r, t + r):
        if binom(C, k) > INT64_MAX:
            raise ValueError(f"binom({C}, {k}) = {binom(C, k)} exceeds 2**63 - 1, "
                             "the largest subset rank the byte simulation holds")


def _check_demand(
    params: SchemeParams, demand: DemandAssignment, strict: bool
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Validate a demand assignment against concrete parameters, and return
    the active users sorted, as an (A, r) int64 array, and their files.
    A point :func:`check_rank_range` refuses is refused first.

    Keys are sorted integer tuples without repeats, so a user is valid
    exactly when it has r labels, the first at least 1 and the last at most
    C. The first offending user in ``entries`` order is reported. Strict mode
    additionally requires pairwise-distinct file indices, the regime the rate
    analysis assumes. Decoding itself never needs it.
    """
    import numpy as np

    check_rank_range(params)
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
    active = demand.active_users()
    files = np.array([demand.entries[u] for u in active], dtype=np.int64)
    return active, np.array(active, dtype=np.int64).reshape(len(active), r), files


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
    reads subfile T exactly when T meets U: that rule is the whole
    placement, and ``subset_array(C, t)`` lists every T by rank.
    """

    coded_sets: np.ndarray  # (M, t+r) cache labels
    term_message: np.ndarray  # (terms,) row of the term's message, nondecreasing
    term_file: np.ndarray  # (terms,) file index
    term_rank: np.ndarray  # (terms,) lex rank of the term's index set


def _delivery_plan(params: SchemeParams, users: np.ndarray, files: np.ndarray) -> _Plan:
    """The term list: W_{d_U, T} for every active user U of ``users`` (sorted,
    (A, r)) and every t-subset T of [C] \\ U, sent in the message S = U ∪ T;
    ``files`` holds each user's demand d_U.

    That is A·binom(C-r, t) terms for A active users, with no work for an
    inactive one. The ranks of T and S come from ``rank_weights`` and the
    place of each label in S. The label x at place p of [C] \\ U has
    x - 1 - p labels of U below it, so as the i-th label of T it sits at
    place i + x - 1 - p of S; the j-th label of U sits at place j plus the
    number of labels of T below it. One stable sort by the rank of S puts
    the messages in lex order and keeps the terms of each in the lex order
    of their users; each message's labels are the sorted union of its first
    term's U and T.
    """
    import numpy as np

    C, r, t = params.num_caches, params.access_degree, params.cache_param
    k, A = t + r, len(users)
    free = np.ones((A, C + 1), dtype=bool)
    free[:, 0] = False
    free[np.arange(A)[:, None], users] = False
    rest = np.nonzero(free)[1].reshape(A, C - r)  # each user's other labels, increasing
    picks = subset_array(C - r, t) - 1  # (K, t) places in the rest, in lex order
    K = len(picks)
    # below[q, b]: how many of the places in pick b lie below place q of the rest.
    below = (picks[:, :, None] < np.arange(C - r + 1)).sum(axis=1).T
    weight, subfile_weight = rank_weights(C, k), rank_weights(C, t)
    set_rank = np.full((A, K), binom(C, k) - 1, dtype=np.int64)
    term_rank = np.full((A, K), binom(C, t) - 1, dtype=np.int64)
    for i in range(t):
        set_rank -= np.take(weight[rest, i + rest - 1 - np.arange(C - r)], picks[:, i], axis=1)
        term_rank -= np.take(subfile_weight[rest, i], picks[:, i], axis=1)
    for j in range(r):
        set_rank -= weight.reshape(-1)[(users[:, j] * k + j)[:, None] + below[users[:, j] - 1 - j]]
    set_rank = set_rank.reshape(-1)
    order = np.argsort(set_rank.astype(np.min_scalar_type(binom(C, k))), kind="stable")
    new = np.diff(set_rank[order], prepend=-1) != 0
    a, b = np.divmod(order[new], K)
    coded_sets = np.sort(np.concatenate([users[a], rest[a[:, None], picks[b]]], axis=1), axis=1)
    return _Plan(coded_sets, np.cumsum(new) - 1, files[order // K], term_rank.reshape(-1)[order])


_PAIR_CHECKS = (
    "names a file not in 1..N",
    "does not hold exactly one term the user cannot read",
    "serves the user a file other than its demand",
)
_MALFORMED = "is out of lex order or holds a term outside it"
_MISSING = "never obtained subfile indices"


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
    import numpy as np

    C, r, t = params.num_caches, params.access_degree, params.cache_param
    k, M, n = t + r, len(plan.coded_sets), len(plan.term_rank)
    place = np.full((M, C + 1), k, dtype=np.min_scalar_type(k))  # k: not in S
    place[np.arange(M)[:, None], plan.coded_sets] = np.arange(k)
    at = plan.term_message * (C + 1)
    inside, slot = np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64)
    weight = np.vstack([rank_weights(k, t)[1:], np.zeros(t, np.int64)])  # [p, i]: C(k-1-p, t-i)
    for i, labels in enumerate(subset_array(C, t).T):
        index = labels[plan.term_rank]
        index += at
        q = place.reshape(-1)[index]
        inside &= q < k
        slot += weight[q, i]
    malformed = np.zeros(M, dtype=bool)
    malformed[1:] = np.diff(rank_subsets(plan.coded_sets, C)) <= 0
    malformed[plan.term_message[~inside]] = True
    if malformed.any():
        S = tuple(plan.coded_sets[malformed.argmax()].tolist())
        raise DecodingError(f"transmission {S} {_MALFORMED}", None, S, _MALFORMED)
    # The victim's rank, from one (k, r) table of rank weights per message.
    table = np.take(rank_weights(C, r), plan.coded_sets, axis=0).reshape(-1)
    places = subset_array(k, r) - 1
    victims, at = np.full(n, binom(C, r) - 1, dtype=np.int64), plan.term_message * (k * r)
    for offset in (places * r + np.arange(r)).T:  # flat (place, j) of the victim's j-th label
        index = offset[slot]
        index += at
        victims -= table[index]
    return victims


def _peeling(
    params: SchemeParams, plan: _Plan, users: np.ndarray, wanted: np.ndarray
) -> np.ndarray:
    """The term each message serving one of ``users`` (sorted, (A, r))
    delivers to it, as an (A, binom(C-r, t)) array: row a holds user a's
    terms, in message order.

    Checks the decodability argument for every (user, message) pair at once,
    in O(terms), after ``_victims`` has refused a plan of the wrong shape:
    each term's one victim S \\ T is found from its index set and its
    message, never from where it sits, and then each message containing a
    user must name files in 1..N and hold exactly one term the user cannot
    read (no term misses it twice, none is missing), for its demand
    ``wanted``; the other terms meet the user, so its caches hold them.
    Coverage follows by counting: the pieces a user cannot read are the
    binom(C-r, t) t-subsets of the rest, and each message S containing it
    delivers a different one, S minus the user, so it must be the victim in
    exactly that many messages, the width of the array. Then no message
    containing it is left out, as there are no more such coded sets. The
    first failing user in ``users`` order is reported, with the first of
    these checks it fails; only then are its messages listed and its
    missing pieces found.
    """
    import numpy as np

    C, r, t, N = params.num_caches, params.access_degree, params.cache_param, params.num_files
    M, A = len(plan.coded_sets), len(users)
    # User rank -> position, -1 for an inactive user, in the smallest type that holds A.
    where = np.full(params.num_users, -1, dtype=np.min_scalar_type(-1 - A))
    where[rank_subsets(users, C)] = np.arange(A)
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
        user, mine = tuple(users[a].tolist()), pair_user == a
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
        covered = np.isin(subset_array(C, t), user).any(axis=1)
        covered[plan.term_rank[target[mine]]] = True
        missing = [tuple(T) for T in subset_array(C, t)[~covered].tolist()]
        raise DecodingError(f"user {user} {_MISSING} {missing}", user, None, _MISSING)
    return target.reshape(A, binom(C - r, t))


def generate_transmissions(
    params: SchemeParams, demand: DemandAssignment, strict: bool = True
) -> list[Transmission]:
    """Delivery phase: one Transmission per useful (t+r)-subset, in lex order.

    Each transmission XORs W_{d_U, S \\ U} over the active users U inside its
    coded set S, terms ordered lexicographically by U; none when t + r > C.
    This is the object view of the plan ``simulate_end_to_end`` runs on.
    """
    import numpy as np

    _, users, files = _check_demand(params, demand, strict)
    plan = _delivery_plan(params, users, files)
    index_sets = subset_array(params.num_caches, params.cache_param)[plan.term_rank].tolist()
    terms = [SubfileId(f, tuple(T)) for f, T in zip(plan.term_file.tolist(), index_sets)]
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
    wanted = demand.entries[user]
    held = [cache.subfiles for cache in caches if cache.cache_label in user]  # never merged
    bad_term = f"needs a {t}-subset of it no other term uses and a file in 1..{N}"
    messages = []
    for tx in [tx for tx in transmissions if set(user).issubset(tx.coded_set)]:
        S = validate_subset(tx.coded_set, C, t + r)
        labels, terms, sets = set(S), [], set()
        for term in tx.terms:
            # S is a subset of [C], so t distinct labels in S are a t-subset of [C].
            f, T = term.file_index, tuple(sorted(term.index_set))
            if (not len(T) == len(set(T)) == t or not labels.issuperset(T) or T in sets
                    or not 1 <= f <= N):
                raise DecodingError(f"term {term} of transmission {S} {bad_term}",
                                    user, S, bad_term)
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
                            f"terms {terms}", user, S, reason)
    peeled = set().union(*(unread for _, _, unread in messages))
    missing = reduce(set.difference, held,
                     {(wanted, T) for T in params.subfile_index_sets()} - peeled)
    if missing:
        raise DecodingError(f"user {user} {_MISSING} {sorted(T for _, T in missing)}",
                            user, None, _MISSING)
    return {SubfileId(*piece) for piece in peeled}


def _gather(
    plan: _Plan, file_payloads: Sequence[bytes], F: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Every term's chunk, gathered once into a place-major (terms, chunk_len)
    buffer; the buffer's run of rows at each place j; and the buffer row of
    each term.

    The payloads, of one length, are each cut into F chunks of
    chunk_len = ceil(length / F) bytes, the last zero-padded, and read in
    place as one (N·F, chunk_len) matrix over a single join of each payload
    and its padding; it is freed on return. The messages are ordered by
    decreasing term count, so the c_j messages with more than j terms,
    which hold a term at place j, come first. The buffer holds place 0 of
    every message in that order, then place 1 of the first c_1, and so on,
    so each step of a byte pass XORs one run of rows into another. The
    chunk of a term is row (f - 1)·F + rank(T) of that matrix.
    """
    import numpy as np

    length = len(file_payloads[0])
    L = -(-length // F)
    pad = bytes(F * L - length)
    joined = b"".join([part for payload in file_payloads for part in (payload, pad)])
    chunks = np.frombuffer(joined, dtype=np.uint8).reshape(len(file_payloads) * F, L)
    M, n = len(plan.coded_sets), len(plan.term_message)
    starts = np.searchsorted(plan.term_message, np.arange(M))
    sizes = np.diff(starts, append=n)
    most = sizes.max(initial=0)
    first = starts[np.argsort((most - sizes).astype(np.min_scalar_type(most)), kind="stable")]
    counts = (M - np.cumsum(np.bincount(sizes, minlength=2))[:-1]).tolist()
    order = np.concatenate([first[:c] + j for j, c in enumerate(counts)])
    rows = plan.term_file[order] - 1
    rows *= F
    rows += plan.term_rank[order]
    terms = np.take(chunks, rows, axis=0)
    row = np.empty(n, dtype=np.int64)
    row[order] = np.arange(n)
    bounds = list(accumulate(counts, initial=0))
    return terms, [terms[lo:hi] for lo, hi in zip(bounds, bounds[1:])], row


def _encode(places: list[np.ndarray]) -> np.ndarray:
    """XOR each message's terms, a place at a time, from the runs of
    ``_gather``: row i is the message whose first term is buffer row i."""
    coded = places[0].copy()
    for here in places[1:]:
        coded[:len(here)] ^= here
    return coded


def _leave_one_out(places: list[np.ndarray], coded: np.ndarray) -> None:
    """Turn the buffer of ``_gather``, in place, into the piece of each term:
    its coded message XOR every other term of the message.

    A backward pass leaves the suffix S_j = t_j ⊕ t_{j+1} ⊕ ... at place j.
    A forward pass keeps the prefix P_j = coded ⊕ t_0 ⊕ ... ⊕ t_{j-1} in
    ``coded``, advancing it by t_j = S_j ⊕ S_{j+1}, and writes the piece
    P_j ⊕ S_{j+1} of place j as S_j ⊕ P_{j+1}. Its own t_j enters it twice
    and cancels, so no piece depends on its own term's chunk.
    """
    for here, after in zip(places[-2::-1], places[:0:-1]):
        here[:len(after)] ^= after
    for here, after in zip(places, places[1:] + [places[0][:0]]):  # none after the last
        coded[:len(here)] ^= here
        coded[:len(after)] ^= after
        here ^= coded[:len(here)]


class Decoded(dict):
    """User -> reassembled bytes; ``messages`` counts the coded messages sent."""

    messages: int = 0


def simulate_end_to_end(
    params: SchemeParams, file_payloads: Sequence[bytes], demand: DemandAssignment,
    strict: bool = True,
) -> Decoded:
    """Run placement, delivery and decoding on real bytes.

    Every file is chopped into binom(C, t) chunks (zero-padded to divide
    evenly); coded messages are bytewise XORs of chunks. The demand, then
    the payload count and lengths, then the integer plan are checked before
    ``_gather`` cuts any chunk, so a refused run allocates no chunk bytes.
    Returns the bytes each active user reassembles, which must equal its
    demanded payload.
    """
    import numpy as np

    active, users, files = _check_demand(params, demand, strict)
    N = params.num_files
    if len(file_payloads) != N:
        raise ValueError(f"expected {N} payloads, got {len(file_payloads)}")
    lengths = {len(p) for p in file_payloads}
    if len(lengths) > 1:
        raise ValueError(f"payloads must share one length, got lengths {sorted(lengths)}")
    (length,) = lengths
    plan = _delivery_plan(params, users, files)
    target = _peeling(params, plan, users, files)
    pieces, places, row = _gather(plan, file_payloads, params.subpacketization)
    _leave_one_out(places, _encode(places))
    delivered, row = plan.term_rank[target], row[target]
    decoded = np.empty((params.subpacketization, pieces.shape[1]), dtype=np.uint8)
    file = memoryview(decoded.reshape(-1))[:length]
    outputs = Decoded()
    for user, f, mine, at in zip(active, files.tolist(), delivered, row):
        # Start from the cached file: _peeling proved that the pieces the user
        # cannot read are exactly the delivered ones, and those are overwritten.
        file[:] = file_payloads[f - 1]
        decoded[mine] = pieces[at]
        outputs[user] = file.tobytes()
    outputs.messages = len(plan.coded_sets)
    return outputs
