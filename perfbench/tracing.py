"""Benchmark-side tracing: spans around the program's public calls.

:func:`install` replaces each traced binding — at the name its caller
imports, since ``repro.core.matcher.build_dag`` and
``repro.service.dynamic.build_dag`` are separate bindings — with a
wrapper that records a span (name, start, end, parent, request id,
phase) in memory.  Nothing inside ``src/`` changes and no
``MetricsRegistry`` is attached, so the traced program takes the same
path as the untraced one.

The per-candidate local filter is called tens of thousands of times per
request; a span per call would distort the trace.  It is counted
instead, one call in :data:`SAMPLE_EVERY` is timed, and its time is
derived as calls x sampled mean cost, then subtracted from the span the
calls happened in.

Counts are taken from return values (``CandidateSpace``, ``SearchStats``
through the engine, ``UpdateResult``, cache rebase tuples).  Bookkeeping
that reads them runs inside a ``trace.bookkeeping`` span so it is not
charged to the layer that made the call.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

SAMPLE_EVERY = 16

# Span record fields.
NAME, START, END, PARENT, REQUEST, PHASE, CALLS_OPEN, CALLS_CLOSE = range(8)


class Tracer:
    """In-memory span store plus phase-split counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.phase = "setup"
        self.request = 0
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.local_calls = 0
        self.local_passes = 0
        self.local_sampled = 0
        self.local_sample_seconds = 0.0
        self._local_mark = (0, 0)
        self._local_at_phase: dict[str, tuple[int, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [name, perf_counter(), 0.0, parent, self.request, self.phase, self.local_calls, 0]
        )
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[CALLS_CLOSE] = self.local_calls
        span[END] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.phase, key)] += value

    def set_phase(self, phase: str) -> None:
        self._local_at_phase[self.phase] = self._local_delta()
        self.phase = phase
        self._local_mark = (self.local_calls, self.local_passes)

    def _local_delta(self) -> tuple[int, int]:
        calls, passes = self._local_mark
        return self.local_calls - calls, self.local_passes - passes

    def local_counts(self, phase: str) -> tuple[int, int]:
        """(calls, passes) of the local filter during ``phase``."""
        if phase == self.phase:
            return self._local_delta()
        return self._local_at_phase.get(phase, (0, 0))

    @property
    def local_call_seconds(self) -> float:
        """Sampled mean wall time of one local-filter call."""
        if not self.local_sampled:
            return 0.0
        return self.local_sample_seconds / self.local_sampled

    # -- patching ------------------------------------------------------
    def _swap(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``after(tracer, span, args, result)`` reads counts from the call."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                book = tracer.open("trace.bookkeeping")
                after(tracer, idx, args, result)
                tracer.close(book)
            return result

        self._swap(owner, attr, wrapper)

    def count_calls(self, owner, attr: str) -> None:
        """Count calls of a per-candidate predicate and the share that
        returns True; time one call in :data:`SAMPLE_EVERY`."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            tracer.local_calls += 1
            if tracer.local_calls % SAMPLE_EVERY:
                result = fn(*args)
            else:
                start = perf_counter()
                result = fn(*args)
                tracer.local_sample_seconds += perf_counter() - start
                tracer.local_sampled += 1
            if result:
                tracer.local_passes += 1
            return result

        self._swap(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False


# ----------------------------------------------------------------------
# Count readers (run inside trace.bookkeeping spans)
# ----------------------------------------------------------------------
def _after_cini(tracer: Tracer, idx: int, args, result) -> None:
    if isinstance(result, list):
        tracer.count("cini_candidates", len(result))
        parent = tracer.spans[idx][PARENT]
        if parent >= 0 and tracer.spans[parent][NAME] == "core.candidate_space.build":
            tracer.count("cini_in_build", len(result))


def _after_build_cs(tracer: Tracer, idx: int, args, cs) -> None:
    tracer.count("cs_builds")
    tracer.count("cs_candidates", cs.size)
    tracer.count("cs_edges", cs.num_edges)
    if cs.is_empty():
        tracer.count("cs_empty")


def _after_backtrack(tracer: Tracer, idx: int, args, result) -> None:
    engine = args[0]
    tracer.count("recursive_calls", engine.stats.recursive_calls)
    tracer.count("embeddings", engine.stats.embeddings_found)


def _after_rebase(tracer: Tracer, idx: int, args, result) -> None:
    refreshed, invalidated = result
    tracer.count("cache_refreshed", refreshed)
    tracer.count("cache_invalidated", invalidated)


def _after_apply(tracer: Tracer, idx: int, args, result) -> None:
    tracer.count("events", result.appeared + result.disappeared)


def _counter(key: str):
    def after(tracer: Tracer, idx: int, args, result) -> None:
        tracer.count(key)

    return after


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced binding; :meth:`Tracer.uninstall` undoes it."""
    import repro.core.candidate_space as candidate_space
    import repro.core.cs_delta as cs_delta
    import repro.core.dag as dag
    import repro.core.filters as filters
    import repro.core.matcher as matcher
    import repro.service.cache as cache
    import repro.service.dynamic as dynamic
    from repro.core.backtrack import BacktrackEngine
    import repro.core.backtrack as backtrack
    from repro.core.matcher import DAFMatcher
    from repro.graph.graph import Graph
    from repro.service.cache import PreparedQueryCache
    from repro.service.session import DataGraphSession

    w = tracer.wrap
    # graph.load spans come from the benchmark's own load_graph.
    w(Graph, "ensure_index", "graph.index_build")
    w(cache, "canonical_hash", "graph.canonical_hash", _counter("canonical_hash_calls"))
    w(dynamic, "apply_update", "graph.mutate.apply_update")
    w(dynamic, "refresh_index", "graph.index.refresh")
    w(matcher, "build_dag", "core.dag.build", _counter("dag_calls"))
    w(dynamic, "build_dag", "core.dag.build", _counter("dag_calls"))
    w(candidate_space, "initial_candidates", "core.filters.cini", _after_cini)
    # repro.service.dynamic imports initial_candidates at call time.
    w(filters, "initial_candidates", "core.filters.cini", _after_cini)
    w(dag, "initial_candidate_count", "core.filters.cini")
    tracer.count_calls(candidate_space, "passes_local_filters_hoisted")
    tracer.count_calls(cs_delta, "passes_local_filters_hoisted")
    w(matcher, "build_candidate_space", "core.candidate_space.build", _after_build_cs)
    w(backtrack, "make_order", "core.ordering.make_order")
    w(BacktrackEngine, "run", "core.backtrack.run", _after_backtrack)
    w(PreparedQueryCache, "lookup", "service.cache.lookup")
    w(cache, "find_isomorphism", "service.cache.verify")
    w(PreparedQueryCache, "rebase", "service.cache.rebase", _after_rebase)
    w(DataGraphSession, "run", "service.session.run")
    w(DAFMatcher, "prepare", "service.session.prepare")
    w(DAFMatcher, "search", "core.matcher.search")
    w(dynamic, "refresh_candidate_space", "core.cs_delta.refresh", _counter("cs_delta_calls"))
    w(DataGraphSession, "apply", "service.dynamic.apply", _after_apply)
    w(DataGraphSession, "subscribe", "service.dynamic.subscribe")
    return tracer


# ----------------------------------------------------------------------
# Self times and per-layer metrics
# ----------------------------------------------------------------------
def self_times(tracer: Tracer) -> tuple[dict, dict]:
    """Per-(phase, span name) self and inclusive seconds.

    Self time is a span's duration minus its child spans' durations and
    minus the derived local-filter time of calls made directly inside it.
    The derived local-filter time itself is reported under
    ``core.filters.local``.
    """
    spans = tracer.spans
    child_seconds = [0.0] * len(spans)
    child_calls = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_seconds[parent] += span[END] - span[START]
            child_calls[parent] += span[CALLS_CLOSE] - span[CALLS_OPEN]
    per_call = tracer.local_call_seconds
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        own_calls = (span[CALLS_CLOSE] - span[CALLS_OPEN]) - child_calls[i]
        key = (span[PHASE], span[NAME])
        self_s[key] += duration - child_seconds[i] - own_calls * per_call
        incl_s[key] += duration
        self_s[(span[PHASE], "core.filters.local")] += own_calls * per_call
    return self_s, incl_s


#: Self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "graph.load_ms": "graph.load",
    "graph.index_build_ms": "graph.index_build",
    "graph.canonical_hash_ms": "graph.canonical_hash",
    "graph.mutate.apply_update_ms": "graph.mutate.apply_update",
    "graph.index.refresh_ms": "graph.index.refresh",
    "core.dag.build_ms": "core.dag.build",
    "core.filters.cini_ms": "core.filters.cini",
    "core.filters.local_ms": "core.filters.local",
    "core.candidate_space.self_ms": "core.candidate_space.build",
    "core.ordering.make_order_ms": "core.ordering.make_order",
    "core.backtrack.run_ms": "core.backtrack.run",
    "core.matcher.search_self_ms": "core.matcher.search",
    "service.cache.lookup_ms": "service.cache.lookup",
    "service.cache.verify_ms": "service.cache.verify",
    "service.cache.rebase_ms": "service.cache.rebase",
    "service.session.self_ms": "service.session.run",
    "core.cs_delta.refresh_ms": "core.cs_delta.refresh",
    "service.dynamic.apply_self_ms": "service.dynamic.apply",
    "bench.unattributed_ms": "bench.op",
}

#: Inclusive-time metrics (the span with everything it called).
INCLUSIVE_TIME_METRICS = {
    "core.candidate_space.build_ms": "core.candidate_space.build",
    "service.session.prepare_ms": "service.session.prepare",
    "service.dynamic.subscribe_ms": "service.dynamic.subscribe",
}

#: Every per-layer metric and its unit.  Timed-phase values are per timed
#: operation; ``setup.`` metrics are totals over one setup.
UNITS = {
    **{name: "ms/op" for name in (*SELF_TIME_METRICS, *INCLUSIVE_TIME_METRICS)},
    **{"setup." + name: "ms" for name in (*SELF_TIME_METRICS, *INCLUSIVE_TIME_METRICS)},
    "graph.canonical_hash_calls": "count",
    "core.dag.calls": "count",
    "core.filters.cini_candidates": "count",
    "core.filters.local_calls": "count",
    "core.filters.local_pass_ratio": "ratio",
    "core.candidate_space.candidates": "count",
    "core.candidate_space.edges": "count",
    "core.candidate_space.filter_ratio": "ratio",
    "core.candidate_space.empty_share": "ratio",
    "core.backtrack.recursive_calls": "count",
    "core.backtrack.embeddings": "count",
    "core.backtrack.embeddings_per_call": "ratio",
    "service.cache.hit_rate": "ratio",
    "service.cache.refreshed": "count",
    "service.cache.invalidated": "count",
    "core.cs_delta.calls": "count",
    "service.dynamic.events_per_update": "count",
    "trace.overhead_ms": "ms/op",
    "trace.overhead_share": "ratio",
    "bench.match_ops": "count",
    "bench.update_ops": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, timed_ops: int, match_ops: int, update_ops: int) -> dict:
    """Per-layer metrics: timed-phase values per timed operation (match
    requests and updates alike), and ``setup.``-prefixed setup-phase
    totals for every time metric."""
    self_s, incl_s = self_times(tracer)
    out: dict[str, float] = {}
    for prefix, phase, scale in (("", "timed", timed_ops), ("setup.", "setup", 1)):
        for metric, span in SELF_TIME_METRICS.items():
            out[prefix + metric] = 1000 * _ratio(self_s.get((phase, span), 0.0), scale)
        for metric, span in INCLUSIVE_TIME_METRICS.items():
            out[prefix + metric] = 1000 * _ratio(incl_s.get((phase, span), 0.0), scale)

    def c(key: str) -> float:
        return tracer.counts.get(("timed", key), 0.0)

    calls, passes = tracer.local_counts("timed")
    builds = c("cs_builds")
    out.update(
        {
            "graph.canonical_hash_calls": _ratio(c("canonical_hash_calls"), timed_ops),
            "core.dag.calls": _ratio(c("dag_calls"), timed_ops),
            "core.filters.cini_candidates": _ratio(c("cini_candidates"), timed_ops),
            "core.filters.local_calls": _ratio(calls, timed_ops),
            "core.filters.local_pass_ratio": _ratio(passes, calls),
            "core.candidate_space.candidates": _ratio(c("cs_candidates"), builds),
            "core.candidate_space.edges": _ratio(c("cs_edges"), builds),
            "core.candidate_space.filter_ratio": _ratio(c("cs_candidates"), c("cini_in_build")),
            "core.candidate_space.empty_share": _ratio(c("cs_empty"), match_ops),
            "core.backtrack.recursive_calls": _ratio(c("recursive_calls"), timed_ops),
            "core.backtrack.embeddings": _ratio(c("embeddings"), timed_ops),
            "core.backtrack.embeddings_per_call": _ratio(c("embeddings"), c("recursive_calls")),
            "service.cache.refreshed": _ratio(c("cache_refreshed"), update_ops),
            "service.cache.invalidated": _ratio(c("cache_invalidated"), update_ops),
            "core.cs_delta.calls": _ratio(c("cs_delta_calls"), timed_ops),
            "service.dynamic.events_per_update": _ratio(c("events"), update_ops),
        }
    )
    return out


def layer_shares(tracer: Tracer) -> dict:
    """Timed-phase self time by layer (module) as a share of all of it:
    the "where did the time go" table."""
    self_s, _ = self_times(tracer)
    layers: dict[str, float] = defaultdict(float)
    for (phase, name), seconds in self_s.items():
        if phase != "timed" or name == "trace.bookkeeping":
            continue
        layer = name.rsplit(".", 1)[0]
        if name == "service.dynamic.apply":
            layer = "service.dynamic.apply_self"
        layers[layer] += seconds
    total = sum(layers.values())
    return {k: round(v / total, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])} if total else {}
