"""Per-layer tracing of the `macc` package from outside its source.

The tracer replaces public module attributes with timing wrappers and puts
the originals back on exit. Spans are aggregated as they close: each layer
keeps its total time, its self time (total minus the time of the wrapped
calls it made) and its call count, so a sweep with 10^5 wrapped calls needs
no per-span storage. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from math import ceil, comb
from time import perf_counter


class Tracer:
    """Install wrappers on enter, restore the originals on exit."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.seconds.clear()
        self.self_seconds.clear()
        self.calls.clear()
        self.counts.clear()

    def _patch(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner: object, attr: str, name, on_result=None) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``name`` is a string or a function of the call's arguments.
        ``on_result(result, *args, **kwargs)`` runs after the span closes.
        """
        stack, seconds, self_seconds, calls = self._stack, self.seconds, self.self_seconds, self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(*args, **kwargs)
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    seconds[label] += elapsed
                    self_seconds[label] += elapsed - frame[0]
                    calls[label] += 1
                if on_result is not None:
                    on_result(result, *args, **kwargs)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot functions)."""
        calls = self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_all(tracer: Tracer, macc) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    ``macc`` is the package; its submodules must already be imported.
    Functions are wrapped in each module whose globals the callers use, so
    a call is seen once, at the module that makes it.
    """
    scheme, harness, metrics = macc.scheme, macc.harness, macc.metrics
    counts = tracer.counts

    def placement_done(caches, params):
        counts["scheme.placement.entries"] += sum(len(c.subfiles) for c in caches)

    def delivery_done(transmissions, params, demand, strict=True):
        sizes = [len(tx.terms) for tx in transmissions]
        counts["scheme.delivery.messages"] += len(sizes)
        counts["scheme.delivery.terms"] += sum(sizes)
        counts["scheme.delivery.slots"] += len(sizes) * comb(
            params.cache_param + params.access_degree, params.access_degree
        )
        counts["scheme.delivery.pairs"] += sum(n * (n - 1) for n in sizes)
        counts["scheme.delivery.xor_chunks"] += sum(n * n - 1 for n in sizes)

    def bytes_done(result, rng, n):
        counts["harness.rng.bytes"] += n

    def sweep_done(rows, spec):
        counts["harness.sweep.rows"] += len(rows)

    tracer.span(harness.SplitMix64, "bytes", "harness.rng", bytes_done)
    tracer.span(harness, "make_demand", "harness.rng")
    tracer.span(harness, "simulate_report", "harness.report")
    tracer.span(harness, "simulate_end_to_end", "scheme.simulate")
    tracer.span(scheme, "build_placement", "scheme.placement", placement_done)
    # simulate_end_to_end plans the delivery through the scheme global and
    # simulate_report plans it again through the harness global; only the
    # first feeds the delivery counters, so each op counts its delivery once.
    tracer.span(scheme, "generate_transmissions", "scheme.delivery", delivery_done)
    tracer.span(harness, "generate_transmissions", "scheme.delivery")
    tracer.span(scheme, "rank_subset", "combinatorics.rank_subset")
    tracer.span(harness, "rate_memory_curve", "metrics.rate_memory_curve")
    tracer.span(metrics, "rate_memory_curve", "metrics.rate_memory_curve")
    tracer.count(harness, "delivery_rate", "metrics.delivery_rate")
    tracer.count(metrics, "delivery_rate", "metrics.delivery_rate")
    tracer.span(harness, "evaluate_scheme", lambda s, *a, **k: f"harness.evaluate.{s.value}")
    tracer.span(harness, "run_sweep", "harness.sweep", sweep_done)
    tracer.span(harness, "write_sweep_csv", "harness.csv")
    tracer.span(harness, "verify_reference_cases", "harness.verify")
    tracer.span(harness, "run_tables", "harness.verify")


def byte_counts(counts: Counter, file_size: int, subpacketization: int,
                accessible: int, active: int) -> dict[str, float]:
    """Bytes a delivery moves, computed from its message and term counts.

    ``accessible`` is the number of subfiles of a file one user reads from
    its caches. Sent: one chunk per message. Uncoded: every missing chunk
    of every active user sent alone. Cache reads: each user's accessible
    chunks plus one chunk per term it cancels. XOR: encode folds n terms
    into one (n - 1 chunk XORs), and each of the n users in a message
    cancels n - 1 terms, so a message costs n^2 - 1 chunk XORs.
    """
    chunk = ceil(file_size / subpacketization) if file_size else 0
    messages = counts["scheme.delivery.messages"]
    slots = counts["scheme.delivery.slots"]
    return {
        "scheme.delivery.messages": messages,
        "scheme.delivery.terms": counts["scheme.delivery.terms"],
        "scheme.delivery.slot_fill": counts["scheme.delivery.terms"] / slots if slots else 0.0,
        "scheme.bytes.chunk": chunk,
        "scheme.bytes.sent": messages * chunk,
        "scheme.bytes.uncoded": active * (subpacketization - accessible) * chunk,
        "scheme.bytes.cache_read": (active * accessible + counts["scheme.delivery.pairs"]) * chunk,
        "scheme.bytes.xor": counts["scheme.delivery.xor_chunks"] * chunk,
    }
