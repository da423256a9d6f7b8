"""Shared matcher interface, request/result objects, and search accounting.

Every matcher in this library — DAF and all baselines — implements the
same contract so the benchmark harness and the serving layer can treat
them uniformly and so *recursive calls*, the paper's machine-independent
cost metric (§5.3), is counted the same way everywhere:

- a matcher is constructed once (possibly with algorithm options) and
  invoked as ``matcher.match(MatchRequest(query, data, options=...))``;
  the legacy ``matcher.match(query, data, limit=..., time_limit=...)``
  spelling still works but emits a :class:`DeprecationWarning`;
- execution options travel in one :class:`MatchOptions` payload shared by
  the sequential, parallel, resilient, session, and batch paths; a
  matcher declares which fields it honors via
  :attr:`Matcher.supported_options` and requests carrying anything else
  raise :class:`UnsupportedOptionError` instead of silently ignoring it;
- the result carries the embeddings found (each a tuple mapping query
  vertex ``i`` to its data vertex), a :class:`SearchStats` record, and
  flags for limit/timeout termination;
- an *embedding* follows the paper's §2 definition: label-preserving,
  edge-preserving, and injective.
"""

from __future__ import annotations

import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

from .graph.graph import Graph, Label

Embedding = tuple[int, ...]

#: Default number of embeddings to enumerate before stopping, mirroring the
#: paper's k = 10^5 (we default lower because pure Python pays ~3 orders of
#: magnitude more per recursive call than the authors' C++).
DEFAULT_LIMIT = 100_000


@dataclass
class WorkerOutcome:
    """Final fate of one parallel-search slice (supervised dispatch).

    ``status`` is one of ``"ok"`` (result envelope received), ``"error"``
    (every attempt raised; the envelope carried the message), ``"crashed"``
    (every attempt died without an envelope — hard kill / OOM),
    ``"killed"`` (supervisor terminated a worker that overran the
    wall-clock deadline) or ``"cancelled"`` (slice abandoned because the
    global embedding limit was already met).  ``attempts`` counts
    dispatches, so ``attempts > 1`` means the retry path ran.
    """

    slice_index: int
    size: int
    status: str
    attempts: int = 1
    error: str = ""
    recursive_calls: int = 0
    embeddings_found: int = 0
    timed_out: bool = False
    #: Counter value a retry resumed from (0 = every attempt started from
    #: scratch).  ``recursive_calls`` stays cumulative across the resume,
    #: so ``recursive_calls - resumed_from_calls`` is the work actually
    #: re-executed by the final attempt.
    resumed_from_calls: int = 0


def _merge_metrics(base: dict, extra: dict) -> dict:
    """Key-wise merge of two metrics payloads into a new dict: numeric
    values sum, lists concatenate, nested dicts merge recursively."""
    merged: dict = dict(base)
    for key, value in extra.items():
        mine = merged.get(key)
        if isinstance(value, dict) and isinstance(mine, dict):
            merged[key] = _merge_metrics(mine, value)
        elif isinstance(value, dict):
            merged[key] = dict(value)
        elif isinstance(value, list):
            merged[key] = list(mine) + list(value) if isinstance(mine, list) else list(value)
        elif isinstance(mine, (int, float)) and isinstance(value, (int, float)):
            merged[key] = mine + value
        else:
            merged[key] = value
    return merged


@dataclass
class SearchStats:
    """Cost accounting for one ``match()`` invocation.

    Attributes
    ----------
    recursive_calls:
        Nodes of the backtracking search tree that were *examined* — every
        entry into the recursive extend step, including nodes that fail
        immediately.  This is the paper's primary comparison metric.
    embeddings_found:
        Full embeddings reported (bounded by the limit).
    candidates_total:
        Sum over query vertices of the final candidate-set sizes — the
        auxiliary-structure size measure of Fig. 9.
    filter_iterations:
        Refinement passes the candidate-space construction performed.
    preprocess_seconds / search_seconds:
        Wall-clock split (Fig. 12 reports this breakdown).
    worker_outcomes:
        Per-slice :class:`WorkerOutcome` records when the search ran under
        the supervised parallel dispatcher (empty for sequential runs).
    worker_retries:
        Total slice re-dispatches the parallel supervisor performed.
    metrics:
        Optional :meth:`repro.obs.MetricsRegistry.snapshot` payload when
        the run was observed (prune-reason counters, phase spans,
        candidate histograms — see ``docs/observability.md``).  ``None``
        for un-instrumented runs, so existing consumers are unaffected.
    """

    recursive_calls: int = 0
    embeddings_found: int = 0
    candidates_total: int = 0
    filter_iterations: int = 0
    preprocess_seconds: float = 0.0
    search_seconds: float = 0.0
    worker_outcomes: list[WorkerOutcome] = field(default_factory=list)
    worker_retries: int = 0
    metrics: Optional[dict] = None

    @property
    def elapsed_seconds(self) -> float:
        return self.preprocess_seconds + self.search_seconds

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Accumulate ``other`` into this record, in place, and return self.

        The merge rule is derived from each field's runtime type rather
        than a hand-maintained list, so a future numeric field cannot be
        silently dropped (a field of an unhandled kind raises
        ``TypeError`` — the parallel dispatcher's unit tests exercise
        every field):

        - numeric fields (int/float) sum;
        - list fields concatenate (``worker_outcomes``);
        - the ``metrics`` payload dict merges recursively, summing
          numeric leaves and concatenating list leaves.

        Callers that must not double-count a dimension (e.g. the parallel
        supervisor owns the wall clock and the CS was built once) zero
        those fields on ``other`` before merging.
        """
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if f.name == "metrics":
                if theirs is not None:
                    self.metrics = _merge_metrics(mine if mine else {}, theirs)
            elif isinstance(mine, bool) or isinstance(theirs, bool):
                raise TypeError(
                    f"SearchStats.merge has no rule for boolean field {f.name!r}"
                )
            elif isinstance(mine, (int, float)):
                setattr(self, f.name, mine + theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                raise TypeError(
                    f"SearchStats.merge has no rule for field {f.name!r} "
                    f"of type {type(mine).__name__}"
                )
        return self


@dataclass
class MatchResult:
    """Outcome of one ``match()`` invocation.

    Beyond the paper's limit/timeout flags, the result carries the
    resilience layer's outcome markers — all default-off so a normal
    completed search looks exactly as before:

    - ``budget_breach``: which :class:`repro.resilience.Budget` dimension
      cut the search short (``"time"``, ``"calls"`` or ``"memory"``),
      or ``None``;
    - ``interrupted``: the search was stopped by ``KeyboardInterrupt``
      and the embeddings/stats are the partial state at that point;
    - ``partial_failure``: a supervised parallel search lost at least one
      slice permanently (see ``stats.worker_outcomes`` for details) —
      the embeddings present are genuine but possibly incomplete;
    - ``degradations``: human-readable log of every attempt a
      :class:`repro.resilience.ResilientMatcher` made before producing
      this result;
    - ``checkpoint``: when the search was cut short at a resumable point
      (budget breach, Ctrl-C), a
      :class:`repro.resilience.checkpoint.SearchCheckpoint` that resumes
      it — pass back via ``MatchOptions(resume_from=...)``;
    - ``explain``: when the request ran with ``MatchOptions(explain=True)``,
      the :class:`repro.obs.explain.ExplainReport` joining the static
      plan with this run's per-vertex actuals (see ``docs/explain.md``).
    """

    embeddings: list[Embedding] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    limit_reached: bool = False
    timed_out: bool = False
    budget_breach: Optional[str] = None
    interrupted: bool = False
    partial_failure: bool = False
    degradations: list[str] = field(default_factory=list)
    checkpoint: Optional[Any] = None
    explain: Optional[Any] = None

    @property
    def solved(self) -> bool:
        """Paper §7: a query is *solved* if it finished within the limit
        (and was not cut short by a budget, an interrupt, or a lost
        parallel slice)."""
        return not (
            self.timed_out
            or self.interrupted
            or self.partial_failure
            or self.budget_breach is not None
        )

    @property
    def count(self) -> int:
        return self.stats.embeddings_found

    def __repr__(self) -> str:
        flags = []
        if self.limit_reached:
            flags.append("limit")
        if self.timed_out:
            flags.append("timeout")
        if self.budget_breach is not None and not (
            self.budget_breach == "time" and self.timed_out
        ):
            # A time breach normally also sets timed_out (rendered above);
            # when it does not, the breach must still be visible.
            flags.append(f"budget:{self.budget_breach}")
        if self.interrupted:
            flags.append("interrupted")
        if self.partial_failure:
            flags.append("partial")
        suffix = f", {'+'.join(flags)}" if flags else ""
        return (
            f"MatchResult(count={self.count}, "
            f"calls={self.stats.recursive_calls}{suffix})"
        )


class TimeoutSignal(Exception):
    """Internal control-flow signal raised when the deadline passes."""


class Deadline:
    """A cheap cooperative deadline checker.

    ``time.perf_counter()`` is too expensive to call on every recursive
    step of a hot search loop, so the deadline is polled every
    ``check_interval`` ticks.
    """

    __slots__ = ("_deadline", "_interval", "_countdown")

    def __init__(self, seconds: Optional[float], check_interval: int = 256) -> None:
        self._deadline = None if seconds is None else time.perf_counter() + seconds
        self._interval = check_interval
        self._countdown = check_interval

    def tick(self) -> None:
        """Raise :class:`TimeoutSignal` if the deadline has passed."""
        if self._deadline is None:
            return
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self._interval
            if time.perf_counter() > self._deadline:
                raise TimeoutSignal

    def expired(self) -> bool:
        return self._deadline is not None and time.perf_counter() > self._deadline


class UnsupportedOptionError(TypeError):
    """A :class:`MatchRequest` carried options this matcher cannot honor.

    Raised by the :meth:`Matcher.match` dispatcher instead of silently
    dropping the option — a request that asks for, say, a resource
    ``budget`` from a matcher that never polls one must fail loudly, or
    the caller believes a guarantee nobody enforces.
    """

    def __init__(self, matcher: "Matcher", option_names: list[str]) -> None:
        self.matcher_name = matcher.name
        self.option_names = tuple(option_names)
        supported = ", ".join(sorted(matcher.supported_options)) or "none"
        super().__init__(
            f"matcher {matcher.name!r} does not support option(s) "
            f"{', '.join(option_names)} (supported: {supported})"
        )


@dataclass(frozen=True)
class MatchOptions:
    """Execution options of one match invocation — the single options
    payload shared by every execution path (direct, session, batch,
    parallel, resilient).

    All fields default to "off"; a matcher only receives the fields it
    declared in :attr:`Matcher.supported_options`, and a non-default
    value for an undeclared field raises :class:`UnsupportedOptionError`
    at dispatch.

    Attributes
    ----------
    limit:
        Stop after this many embeddings (``None`` means the library
        default, the paper's k = 10^5 scaled down — see
        :data:`DEFAULT_LIMIT`).
    time_limit:
        Wall-clock budget in seconds; on expiry the result is returned
        with ``timed_out=True`` and whatever was found so far.
    on_embedding:
        Streaming callback invoked for each embedding as it is found
        (embeddings are still collected in the result).
    count_only:
        Count embeddings without materializing them (the enumerate-only
        fast path behind :meth:`Matcher.count`).  Only matchers whose
        engine can skip collection declare support.
    budget:
        A :class:`repro.resilience.Budget` governing the invocation
        across time/calls/memory dimensions.
    resume_from:
        A :class:`repro.resilience.checkpoint.SearchCheckpoint` (or its
        ``to_dict()`` payload) from a previous interrupted invocation of
        the *same* query/data/config; the search continues from it
        instead of starting over, with final embeddings and counters
        identical to an uninterrupted run.
    explain:
        Capture an EXPLAIN ANALYZE forensics report for this invocation:
        the run executes under a dedicated metrics registry and the
        result carries a :class:`repro.obs.explain.ExplainReport` in
        ``result.explain`` (static plan joined with per-vertex actuals,
        phase spans and failing-set accounting — ``docs/explain.md``).
        Off by default, preserving the zero-overhead contract.
    """

    limit: Optional[int] = None
    time_limit: Optional[float] = None
    on_embedding: Optional[Callable[[Embedding], None]] = None
    count_only: bool = False
    budget: Optional[Any] = None
    resume_from: Optional[Any] = None
    explain: bool = False

    def __post_init__(self) -> None:
        # 0 is a valid immediate deadline; a negative (or NaN) budget is a
        # caller bug that would otherwise read as an ordinary timeout.
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be >= 0, got {self.time_limit!r}")

    @property
    def resolved_limit(self) -> int:
        return DEFAULT_LIMIT if self.limit is None else self.limit

    def non_default_fields(self) -> list[str]:
        """Names of fields set away from their defaults (the fields the
        dispatcher validates against ``supported_options``)."""
        return [f.name for f in fields(self) if getattr(self, f.name) != f.default]


@dataclass
class MatchRequest:
    """One unit of matching work: a query, the data graph to search, and
    the :class:`MatchOptions` governing execution.

    ``data`` may be ``None`` when the request is submitted to a
    ``repro.service.DataGraphSession`` or ``BatchEngine``, which supply
    their session-wide data graph; calling a bare matcher with a data-less
    request is an error.  ``tag`` is an opaque correlation id echoed back
    in batch results.
    """

    query: Graph
    data: Optional[Graph] = None
    options: MatchOptions = field(default_factory=MatchOptions)
    tag: Optional[Any] = None


class UpdateError(ValueError):
    """An :class:`UpdateBatch` could not be applied to the data graph.

    Raised for structurally invalid deltas — an edge insert between
    unknown or removed vertices, a delete of an edge that is not there,
    a double vertex removal.  The message names the offending delta and
    its position in the batch so callers can repair and resubmit; the
    session's graph is left untouched (batches apply atomically).
    """


#: The mutation kinds a :class:`Delta` may carry.
DELTA_OPS = ("insert-edge", "delete-edge", "insert-vertex", "delete-vertex")


@dataclass(frozen=True)
class Delta:
    """One data-graph mutation — the unit an :class:`UpdateBatch` groups.

    Exactly one of four shapes (see :data:`DELTA_OPS`):

    - ``insert-edge`` / ``delete-edge``: carries endpoints ``u`` and ``v``;
    - ``insert-vertex``: carries the new vertex's ``label`` (the id is
      assigned at apply time — appended after the current vertices, in
      batch order — and reported by the session's ``UpdateResult``);
    - ``delete-vertex``: carries ``u``.  Removal *tombstones* the vertex:
      its incident edges are dropped and its label is replaced by a
      reserved sentinel that matches no query, while the id itself stays
      allocated so every other vertex id — and therefore every cached
      prepared structure and reported embedding — remains stable.

    Prefer the four classmethod constructors over the raw constructor.
    """

    op: str
    u: Optional[int] = None
    v: Optional[int] = None
    label: Optional[Label] = None

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise ValueError(f"unknown delta op {self.op!r}; expected one of {DELTA_OPS}")
        if self.op in ("insert-edge", "delete-edge"):
            if not (isinstance(self.u, int) and isinstance(self.v, int)):
                raise ValueError(f"{self.op} delta needs int endpoints u and v")
            if self.u == self.v:
                raise ValueError(f"{self.op} delta may not be a self-loop (u == v == {self.u})")
        elif self.op == "insert-vertex":
            if self.label is None:
                raise ValueError("insert-vertex delta needs a label")
        elif not isinstance(self.u, int):
            raise ValueError("delete-vertex delta needs an int vertex u")

    @classmethod
    def insert_edge(cls, u: int, v: int) -> "Delta":
        return cls(op="insert-edge", u=u, v=v)

    @classmethod
    def delete_edge(cls, u: int, v: int) -> "Delta":
        return cls(op="delete-edge", u=u, v=v)

    @classmethod
    def insert_vertex(cls, label: Label) -> "Delta":
        return cls(op="insert-vertex", label=label)

    @classmethod
    def delete_vertex(cls, u: int) -> "Delta":
        return cls(op="delete-vertex", u=u)

    def to_dict(self) -> dict:
        """JSON-friendly form (the CLI's update-file line format)."""
        out: dict = {"op": self.op}
        if self.u is not None:
            out["u"] = self.u
        if self.v is not None:
            out["v"] = self.v
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Delta":
        if not isinstance(payload, dict):
            raise ValueError(f"delta must be an object, got {payload!r}")
        unknown = set(payload) - {"op", "u", "v", "label"}
        if unknown:
            raise ValueError(f"delta has unknown field(s) {sorted(unknown)}")
        return cls(
            op=payload.get("op", "?"),
            u=payload.get("u"),
            v=payload.get("v"),
            label=payload.get("label"),
        )


@dataclass(frozen=True)
class UpdateBatch:
    """An atomic group of :class:`Delta` mutations.

    Deltas apply in order against a working copy — a vertex inserted
    early in the batch may receive edges later in the same batch — and
    the whole group lands as *one* new graph version: validation errors
    anywhere in the batch leave the session's graph untouched, and
    standing queries observe only the net before/after difference.

    ``tag`` is an opaque correlation id echoed in the ``update.batch``
    event, mirroring :class:`MatchRequest.tag`.
    """

    deltas: tuple[Delta, ...]
    tag: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(self.deltas))
        for position, delta in enumerate(self.deltas):
            if not isinstance(delta, Delta):
                raise TypeError(f"deltas[{position}] is not a Delta: {delta!r}")

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)

    @classmethod
    def from_dicts(cls, payloads, tag: Optional[Any] = None) -> "UpdateBatch":
        """Build a batch from JSON-decoded delta objects (CLI update files)."""
        return cls(deltas=tuple(Delta.from_dict(p) for p in payloads), tag=tag)


class Matcher(ABC):
    """Abstract base for all subgraph-matching algorithms.

    Subclasses implement :meth:`_match_impl` (the algorithm) and declare
    :attr:`supported_options`; the concrete :meth:`match` front door
    normalizes both calling conventions onto that implementation.
    """

    #: Human-readable algorithm name used in benchmark reports.
    name: str = "matcher"

    #: The :class:`MatchOptions` fields this matcher honors.  The
    #: dispatcher rejects requests whose options stray outside this set
    #: (see :class:`UnsupportedOptionError`).  Subclasses extend it, e.g.
    #: ``supported_options = Matcher.supported_options | {"budget"}``.
    supported_options: frozenset[str] = frozenset({"limit", "time_limit", "on_embedding"})

    #: Optional :class:`repro.obs.MetricsRegistry` observing this
    #: matcher's runs.  ``None`` (the default) means *no* observability
    #: work happens anywhere — engines check for ``None`` and skip, they
    #: never call into a no-op object.  Assign an instance attribute (or
    #: use :meth:`with_observer`) to turn metrics on.
    observer = None

    def with_observer(self, observer) -> "Matcher":
        """Attach a metrics registry and return self (fluent style)."""
        self.observer = observer
        return self

    def match(
        self,
        query: "Graph | MatchRequest",
        data: Optional[Graph] = None,
        limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
        **legacy_options,
    ) -> MatchResult:
        """Execute a :class:`MatchRequest` (preferred) or a legacy
        positional call.

        The single-argument form ``matcher.match(request)`` is the
        request surface every execution path shares.  The historical
        ``matcher.match(query, data, limit=..., time_limit=...)``
        spelling is still accepted but deprecated: it is repackaged into
        a request and a :class:`DeprecationWarning` is emitted.
        """
        if isinstance(query, MatchRequest):
            if (
                data is not None
                or limit is not None
                or time_limit is not None
                or on_embedding is not None
                or legacy_options
            ):
                raise TypeError(
                    "pass execution options inside the MatchRequest, "
                    "not alongside it"
                )
            request = query
        else:
            warnings.warn(
                "matcher.match(query, data, ...) is deprecated; build a "
                "repro.MatchRequest (see docs/serving.md) and call "
                "matcher.match(request)",
                DeprecationWarning,
                stacklevel=2,
            )
            try:
                options = MatchOptions(
                    limit=limit,
                    time_limit=time_limit,
                    on_embedding=on_embedding,
                    **legacy_options,
                )
            except TypeError as exc:
                raise TypeError(f"unknown match option: {exc}") from None
            request = MatchRequest(query=query, data=data, options=options)
        return self.run_request(request)

    def run_request(self, request: MatchRequest) -> MatchResult:
        """Validate ``request`` against :attr:`supported_options` and run
        it.  This is the non-deprecated programmatic entry point the
        session/batch/parallel/resilient paths call directly."""
        if request.data is None:
            raise ValueError(
                "MatchRequest.data is None — attach a data graph, or submit "
                "the request through a repro.service.DataGraphSession"
            )
        options = request.options
        unsupported = [
            name for name in options.non_default_fields() if name not in self.supported_options
        ]
        if unsupported:
            raise UnsupportedOptionError(self, unsupported)
        extras = {}
        if "count_only" in self.supported_options and options.count_only:
            extras["count_only"] = True
        if "budget" in self.supported_options and options.budget is not None:
            extras["budget"] = options.budget
        if "resume_from" in self.supported_options and options.resume_from is not None:
            extras["resume_from"] = options.resume_from
        if "explain" in self.supported_options and options.explain:
            extras["explain"] = True
        return self._match_impl(
            request.query,
            request.data,
            limit=options.resolved_limit,
            time_limit=options.time_limit,
            on_embedding=options.on_embedding,
            **extras,
        )

    @abstractmethod
    def _match_impl(
        self,
        query: Graph,
        data: Graph,
        limit: int = DEFAULT_LIMIT,
        time_limit: Optional[float] = None,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
    ) -> MatchResult:
        """Find up to ``limit`` embeddings of ``query`` in ``data``.

        The algorithm body.  Called only through :meth:`match` /
        :meth:`run_request`, which have already validated the option
        surface; implementations accepting extra options (``budget``,
        ``count_only``) add keyword parameters *and* list them in
        :attr:`supported_options` — the IFC002 lint checker audits that
        the two stay in sync.

        Parameters
        ----------
        limit:
            Stop after this many embeddings (paper: k = 10^5).
        time_limit:
            Wall-clock budget in seconds; on expiry the result is returned
            with ``timed_out=True`` and whatever was found so far.
        on_embedding:
            Optional streaming callback invoked for each embedding as it is
            found (embeddings are still collected in the result).
        """

    def count(self, query: Graph, data: Graph, **kwargs) -> int:
        """Convenience: number of embeddings (same kwargs as the legacy
        ``match`` surface).

        Uses the enumerate-only engine path (``count_only``) when this
        matcher supports it, so no embedding tuples are materialized.
        """
        if "count_only" in self.supported_options:
            kwargs.setdefault("count_only", True)
        return self.run_request(
            MatchRequest(query=query, data=data, options=MatchOptions(**kwargs))
        ).count

    def exists(self, query: Graph, data: Graph, **kwargs) -> bool:
        """Convenience: is there at least one embedding?  (limit=1 fast
        path — the search stops at the first witness.)"""
        kwargs.pop("limit", None)
        return (
            self.run_request(
                MatchRequest(query=query, data=data, options=MatchOptions(limit=1, **kwargs))
            ).count
            > 0
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def validate_inputs(query: Graph, data: Graph) -> None:
    """Shared input validation for all matchers.

    Matchers require frozen graphs and a non-empty query (an empty query
    has exactly one trivial embedding, which every published algorithm
    declines to define; we reject it explicitly).
    """
    query._require_frozen()
    data._require_frozen()
    if query.num_vertices == 0:
        raise ValueError("query graph must have at least one vertex")


def is_embedding(mapping: Embedding, query: Graph, data: Graph) -> bool:
    """Check the §2 embedding conditions: injective, label- and
    edge-preserving.  Used by tests and by defensive assertions."""
    if len(mapping) != query.num_vertices:
        return False
    if len(set(mapping)) != len(mapping):
        return False
    for u in query.vertices():
        if query.label(u) != data.label(mapping[u]):
            return False
    for u, w in query.edges():
        if not data.has_edge(mapping[u], mapping[w]):
            return False
    return True


def is_induced_embedding(mapping: Embedding, query: Graph, data: Graph) -> bool:
    """An embedding that additionally maps query non-edges to data
    non-edges (induced subgraph isomorphism, ``MatchConfig(induced=True)``)."""
    if not is_embedding(mapping, query, data):
        return False
    n = query.num_vertices
    for u in range(n):
        for w in range(u + 1, n):
            if not query.has_edge(u, w) and data.has_edge(mapping[u], mapping[w]):
                return False
    return True
