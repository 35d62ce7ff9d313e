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

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
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
    ``user`` is the failing user, ``coded_set`` the message it failed on (None
    when a subfile was never delivered) and ``reason`` the rule it broke.
    """

    def __init__(self, message: str, user: tuple[int, ...],
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

    t + r > C is permitted: the delivery phase is then empty (every user
    already reaches all subfiles of every file through its caches).
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
        if not 1 <= t <= C:
            raise ValueError(f"cache_param must satisfy 1 <= t <= {C}, got {t}")
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

    With every user active the term list has exactly binom(t+r, r) entries,
    one per r-subset U of the coded set, carrying W_{d_U, coded_set \\ U}.
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

    Keys are normalized to sorted tuples. Any subset of the user population
    may be active; validation against concrete parameters happens inside the
    operations that consume the assignment.
    """

    entries: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        normalized = {}
        for user, file_index in dict(self.entries).items():
            key = tuple(sorted(user))
            if len(set(key)) != len(key):
                raise DemandError(f"user {user} repeats a cache label")
            if key in normalized:
                raise DemandError(f"user {key} assigned more than one demand")
            normalized[key] = int(file_index)
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

    One array pass over every user's labels, sizes and files finds the first
    offending user in ``entries`` order; only that user's error is spelled
    out. Strict mode additionally requires pairwise-distinct file indices,
    the regime the rate analysis assumes. Decoding itself never needs it.
    """
    C, r, N = params.num_caches, params.access_degree, params.num_files
    users, A = list(demand.entries), len(demand.entries)
    sizes = np.fromiter(map(len, users), np.int64, A)
    labels = np.fromiter(chain.from_iterable(users), np.int64, int(sizes.sum()))
    files = np.fromiter(demand.entries.values(), np.int64, A)
    bad = (sizes != r) | (files < 1) | (files > N)
    bad[np.repeat(np.arange(A), sizes)[(labels < 1) | (labels > C)]] = True
    if bad.any():
        user = users[int(bad.argmax())]
        try:
            validate_subset(user, C, r)
        except ValueError as exc:
            raise DemandError(f"user {user} is not a valid user identity: {exc}") from exc
        raise DemandError(f"user {user} demands file {demand.entries[user]}, outside 1..{N}")
    if strict and len(set(demand.entries.values())) != A:
        raise DemandError("demands must be pairwise distinct in strict mode")


def build_placement(params: SchemeParams) -> list[CacheContent]:
    """Fill the C caches: cache k holds W_{i,T} for every T containing k.

    Each cache ends up with N * binom(C-1, t-1) subfiles, a fraction t/C of
    the library.
    """
    C, t, N = params.num_caches, params.cache_param, params.num_files
    per_cache: dict[int, list[SubfileId]] = {k: [] for k in range(1, C + 1)}
    for index_set in enumerate_subsets(C, t):
        for i in range(1, N + 1):
            subfile = SubfileId(i, index_set)
            for k in index_set:
                per_cache[k].append(subfile)
    return [CacheContent(k, frozenset(per_cache[k])) for k in range(1, C + 1)]


def accessible_subfile_indices(params: SchemeParams, user: Sequence[int]) -> set[tuple[int, ...]]:
    """Index sets a user can read: exactly the T with T intersecting the user."""
    user_set = set(validate_subset(user, params.num_caches, params.access_degree))
    return {T for T in params.subfile_index_sets() if user_set.intersection(T)}


def accessible_fraction(params: SchemeParams) -> Fraction:
    """Fraction of each file a user reaches through its r caches.

    Inclusion-exclusion over the caches gives
        (1/binom(C,t)) * sum_{n=1..r} (-1)^(n+1) binom(r,n) binom(C-n, t-n),
    the same value for every user by symmetry. Terms with n > t vanish
    through the out-of-range binomial convention.
    """
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    total = sum(
        (-1) ** (n + 1) * binom(r, n) * binom(C - n, t - n)
        for n in range(1, r + 1)
    )
    return Fraction(total, binom(C, t))


class _Plan(NamedTuple):
    """A delivery as integer arrays: one row per message, one column per slot.

    Slot j of coded set S serves the user at the j-th r-subset of positions
    of S in lex order, with a term indexed by the rest of S (so the t-subsets
    of positions in reverse lex order) for file ``term_file`` (0: no term).
    That layout is only where the encoder puts a term: the decoder reads each
    term's index set from ``term_rank``. User U reads subfile T exactly when
    T meets U: ``subfile_sets`` lists every T by rank, and that rule is the
    whole placement.
    """

    coded_sets: np.ndarray  # (M, t+r) cache labels
    term_file: np.ndarray  # (M, b)
    term_rank: np.ndarray  # (M, b) lex rank of the term's index set
    subfile_sets: np.ndarray  # (F, t) every index set, by rank
    slot_users: np.ndarray  # (M, b) lex rank of the user at each slot of the layout


def _delivery_plan(params: SchemeParams, demand: DemandAssignment) -> _Plan:
    """One row per (t+r)-subset S holding an active user, in lex order; the
    slot of user U carries W_{d_U, S \\ U}, file 0 if U is inactive."""
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    active = demand.active_users()
    file_of = np.zeros(params.num_users, dtype=np.int64)
    ranks = rank_subsets(np.array(active, np.int64).reshape(-1, r), C)
    file_of[ranks] = [demand.entries[u] for u in active]
    coded_sets = subset_array(C, t + r)
    slot_users = rank_subsets(coded_sets[:, subset_array(t + r, r) - 1], C)
    term_file = file_of[slot_users]
    keep = term_file.any(axis=1)
    coded_sets, term_file, slot_users = coded_sets[keep], term_file[keep], slot_users[keep]
    term_rank = rank_subsets(coded_sets[:, subset_array(t + r, t)[::-1] - 1], C)
    return _Plan(coded_sets, term_file, term_rank, subset_array(C, t), slot_users)


_PAIR_CHECKS = (
    "names a file not in 1..N",
    "does not hold exactly one term the user cannot read",
    "serves the user a file other than its demand",
)


def _victims(params: SchemeParams, plan: _Plan) -> tuple[np.ndarray, np.ndarray, bool]:
    """How many terms of each message each of its users cannot read, and the
    slot of such a term (the one, where there is exactly one), as flat (M*b,)
    arrays over the layout's (message, user) cells; and whether every term's
    index set lies inside its message.

    A term W_{f,T} with T inside S misses exactly one user of S, its victim
    S \\ T, whose layout slot follows from the positions q_0 < ... < q_{t-1}
    of T in S as the sum of C(t+r-1-q_i, t-i); every other r-subset of S
    meets T. A term with T not inside S (a corrupted plan) misses every
    r-subset of S \\ T, and only those terms are expanded user by user.
    """
    C, r, t = params.num_caches, params.access_degree, params.cache_param
    M, b = plan.term_file.shape
    slots = np.flatnonzero(plan.term_file)
    m, j = np.divmod(slots, b)
    position = np.full((M, C + 1), t + r, dtype=np.int64)  # t + r: not in S
    position[np.arange(M)[:, None], plan.coded_sets] = np.arange(t + r)
    at, ranks = m * (C + 1), plan.term_rank.reshape(-1)[slots]
    inside, cell = np.ones(len(m), dtype=bool), m * b  # cell: flat (message, victim's slot)
    for i, labels in enumerate(plan.subfile_sets.T):
        q = position.reshape(-1)[at + labels[ranks]]
        inside &= q < t + r
        cell += np.array([binom(t + r - 1 - p, t - i) for p in range(t + r)] + [0])[q]
    cells, holders = cell[inside], j[inside]
    m, j = m[~inside], j[~inside]
    if len(m):
        rows = np.arange(len(m))
        in_term = np.zeros((len(m), C + 1), dtype=bool)
        in_term[rows[:, None], plan.subfile_sets[plan.term_rank[m, j]]] = True
        members = plan.coded_sets[m][:, subset_array(t + r, r) - 1]
        k, v = np.nonzero(~in_term[rows[:, None, None], members].any(axis=2))
        cells, holders = np.concatenate([cells, m[k] * b + v]), np.concatenate([holders, j[k]])
    target = np.zeros(M * b, dtype=np.int64)
    target[cells] = holders
    return np.bincount(cells, minlength=M * b), target, not len(m)


def _peeling(
    params: SchemeParams, plan: _Plan, users: Sequence[tuple[int, ...]], wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (user, message) pair of a message serving one of ``users`` (sorted),
    as positions in ``users`` and message rows, and the slot each pair delivers.

    Checks the decodability argument for all pairs at once, in O(M*b): each
    term's one victim S \\ T is found from its index set, never from the slot
    it sits in, and then each message containing a user must name files in
    1..N and hold exactly one term the user cannot read (no term misses it
    twice, none is missing), for its demand ``wanted``; the other terms meet
    the user, so its caches hold them. Coverage follows by counting: the
    pieces a user cannot read are the binom(C-r, t) t-subsets of the rest,
    and each message S containing it delivers a different one, S minus the
    user, so the count of its messages must be exactly that. The first
    failing user in ``users`` order is reported, with the first of these
    checks it fails; only then are its missing pieces listed.
    """
    C, r, t, N = params.num_caches, params.access_degree, params.cache_param, params.num_files
    (M, b), A = plan.term_file.shape, len(users)
    where = np.full(params.num_users, -1, dtype=np.int64)  # user rank -> position, -1: inactive
    where[rank_subsets(np.array(users, dtype=np.int64).reshape(A, r), C)] = np.arange(A)
    unread, target, all_inside = _victims(params, plan)
    pair_user = where[plan.slot_users].reshape(-1)
    cells = np.flatnonzero(pair_user >= 0)
    # The pairs ordered by user, then message, for assembly.
    cells = cells[np.argsort(pair_user[cells].astype(np.min_scalar_type(A)), kind="stable")]
    pair_user, messages, unread, target = pair_user[cells], cells // b, unread[cells], target[cells]
    bad_file = ((plan.term_file < 0) | (plan.term_file > N)).any(axis=1)
    served = plan.term_file[messages, target]
    failed = np.select([bad_file[messages], unread != 1, served != wanted[pair_user]], [1, 2, 3], 0)
    delivered = plan.term_rank[messages, target]
    # Distinct coded sets (lex-increasing rows) with every term inside its
    # message deliver distinct pieces, so counting pairs is enough; a plan
    # not known to be so has its distinct pieces counted.
    step = np.diff(plan.coded_sets, axis=0)
    if all_inside and (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all():
        counted = pair_user
    else:
        counted = np.unique(np.stack([pair_user, delivered], axis=1), axis=0)[:, 0]
    short = np.bincount(counted, minlength=A) != binom(C - r, t)
    # A failure as 5 * user position + check (1..3 above, 4 for coverage): the
    # smallest is the first failing user's first failed check.
    failures = np.concatenate([(5 * pair_user + failed)[failed != 0], 5 * np.flatnonzero(short) + 4])
    if len(failures):
        a, check = divmod(int(failures.min()), 5)
        user = tuple(users[a])
        if check < 4:
            m = messages[np.flatnonzero((pair_user == a) & (failed == check))[0]]
            reason, S = _PAIR_CHECKS[check - 1], tuple(plan.coded_sets[m].tolist())
            raise DecodingError(f"transmission {S} {reason}: user {user}, demand {wanted[a]}, "
                                f"slot files {plan.term_file[m].tolist()}", user, S, reason)
        covered = np.isin(plan.subfile_sets, user).any(axis=1)
        covered[delivered[pair_user == a]] = True
        missing = [tuple(T) for T in plan.subfile_sets[~covered].tolist()]
        raise DecodingError(f"user {user} never obtained subfile indices {missing}",
                            user, None, "never obtained subfile indices")
    return pair_user, messages, target


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
    index_sets = plan.subfile_sets[plan.term_rank].tolist()
    return [
        Transmission(tuple(S), tuple(SubfileId(f, tuple(T)) for f, T in zip(files, sets) if f))
        for S, files, sets in zip(plan.coded_sets.tolist(), plan.term_file.tolist(), index_sets)
    ]


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
    """Split payloads into the (N+1, F, chunk_len) uint8 matrix, zero-padded,
    and return it with the payload length. Subfile T of file i is row
    (i, rank(T)); file 0 is all zeros, so empty plan slots XOR nothing."""
    N = params.num_files
    if len(file_payloads) != N:
        raise ValueError(f"expected {N} payloads, got {len(file_payloads)}")
    lengths = {len(p) for p in file_payloads}
    if len(lengths) > 1:
        raise ValueError(f"payloads must share one length, got lengths {sorted(lengths)}")
    (length,) = lengths or {0}
    F = params.subpacketization
    chunks = np.zeros((N + 1, F, -(-length // F)), dtype=np.uint8)
    for i, payload in enumerate(file_payloads, start=1):
        chunks[i].reshape(-1)[:length] = np.frombuffer(payload, dtype=np.uint8)
    return chunks, length


def _encode(plan: _Plan, chunks: np.ndarray) -> np.ndarray:
    """XOR each message's terms, slot by slot, into one (M, chunk_len) buffer."""
    coded = np.zeros((len(plan.term_file), chunks.shape[2]), dtype=np.uint8)
    for j in range(plan.term_file.shape[1]):
        coded ^= chunks[plan.term_file[:, j], plan.term_rank[:, j]]
    return coded


def _leave_one_out(plan: _Plan, chunks: np.ndarray, coded: np.ndarray) -> np.ndarray:
    """The (M, b, chunk_len) pieces the slots deliver: slot j of a message is
    the coded message XOR every term but slot j's, from one forward and one
    backward scan over the slot columns."""
    M, b = plan.term_file.shape

    def term(j: int) -> np.ndarray:
        return chunks[plan.term_file[:, j], plan.term_rank[:, j]]

    pieces = np.empty((M, b, chunks.shape[2]), dtype=np.uint8)
    pieces[:, 0] = coded
    for j in range(1, b):
        np.bitwise_xor(pieces[:, j - 1], term(j - 1), out=pieces[:, j])
    after = np.zeros_like(coded)
    for j in range(b - 1, 0, -1):
        after ^= term(j)
        pieces[:, j - 1] ^= after
    return pieces


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
    pair_user, messages, target = _peeling(params, plan, users, wanted)
    pieces = _leave_one_out(plan, chunks, _encode(plan, chunks))
    del chunks
    delivered = plan.term_rank[messages, target]
    bounds = np.searchsorted(pair_user, np.arange(len(users) + 1)).tolist()
    decoded = np.empty((params.subpacketization, pieces.shape[2]), dtype=np.uint8)
    flat = decoded.reshape(-1)
    outputs = Decoded()
    for user, f, lo, hi in zip(users, wanted.tolist(), bounds, bounds[1:]):
        # Start from the cached file: _peeling proved that the pieces the user
        # cannot read are exactly the delivered ones, and those are overwritten.
        flat[:length] = np.frombuffer(file_payloads[f - 1], dtype=np.uint8)
        decoded[delivered[lo:hi]] = pieces[messages[lo:hi], target[lo:hi]]
        outputs[user] = flat[:length].tobytes()
    outputs.messages = len(plan.term_file)
    return outputs
