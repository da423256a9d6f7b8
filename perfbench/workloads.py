"""The benchmark's three workloads.

Each workload is a single-process closed loop: one client sends the next
operation only after the previous one returned.  A workload object owns
its inputs; a *context* (a dict) holds one pass's program objects and the
outputs the answer check needs.  The runner times :meth:`Workload.setup`
as ``setup_s`` and each operation's ``run``; everything else here (input
generation, inline checks, the oracle) runs outside the timed regions.

- ``cold-oneshot``: sessionless ``DAFMatcher().run_request`` on hprd with
  distinct queries — preprocessing (filters, CS build, DAG) dominates.
- ``session-repeat``: ``DataGraphSession.run`` on human, every request a
  cache hit on a permuted pool query — search and result remap dominate.
- ``dynamic-churn``: ``DataGraphSession.apply`` batches on yeast with
  standing queries, each followed by a few ``run`` calls — incremental
  maintenance dominates.

Every workload also reports update latency: ``dynamic-churn`` from its
timed loop, the other two from an update probe interleaved with their
timed loop (raw ``apply_update`` on a graph chain of its own for the
sessionless user, and ``session.apply`` on a warmed session of its own
for the serving user), so the probe never touches what the timed
requests run on.

The queries and update batches are pinned (:data:`POOL_SEED`), like the
paper's fixed query sets: which queries and deltas a run serves moved
its latency by more than machine noise does when every seed drew its
own.  The run seed drives request order and vertex permutations.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import repro.graph.io as graph_io
from repro.core.matcher import DAFMatcher
from repro.graph.mutate import apply_update
from repro.interfaces import DEFAULT_LIMIT, MatchOptions, MatchRequest
from repro.service import DataGraphSession

import inputs
import oracle

POOL_SEED = 0
ZIPF_EXPONENT = 1.0


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check(result)`` is not
    and returns whether the answer passed the inline checks."""

    kind: str  # "match" | "update"
    run: Callable[[], object]
    check: Callable[[object], bool]


def load_graph(path, tracer=None):
    """Read and freeze the data graph (a fresh object every call)."""
    span = tracer.open("graph.load") if tracer is not None and tracer.active else None
    graph = graph_io.read_cfl(path)
    if not graph.frozen:
        graph.freeze()
    if span is not None:
        tracer.close(span)
    return graph


def _failed(result) -> bool:
    return bool(result.timed_out or getattr(result, "budget_breach", None))


def _density(query) -> str:
    return "sparse" if query.average_degree() <= inputs.SPARSE_MAX_AVG_DEGREE else "nonsparse"


def _delta_mix(batches) -> dict:
    mix: Counter = Counter()
    for _batch, batch_mix in batches:
        mix.update(batch_mix)
    return dict(mix)


class Workload:
    """Inputs, set-up, operations and answer check of one workload."""

    name = ""
    dataset = ""
    LIMIT = 0
    #: Update batches in the update probe (workloads without updates in
    #: their timed loop).
    PROBE_BATCHES = 0
    DELTAS_PER_BATCH = 20
    #: Setups per run; ``setup_s`` is their median.
    SETUP_REPEATS = 3
    #: Highest tail percentile reported per operation kind, set so the
    #: usual sample count clears it: the percentile then stays the same
    #: from run to run (see run.tail).
    TAIL_CAP = {"match": 95.0, "update": 75.0}

    def __init__(self, seed: int, data_path, plain: inputs.PlainGraph, oracle_data) -> None:
        self.seed = seed
        self.data_path = data_path
        self.plain = plain
        #: The oracle's own data graph object; never handed to the program.
        self.oracle_data = oracle_data
        self.contexts: list[dict] = []
        self.rejected = 0
        self.requests: list[tuple[int, object]] = []
        self._req_rng = self._rng("requests")

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    def _pinned_rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{stream}:{POOL_SEED}")

    def _admit(self, query) -> int | None:
        """Reference count of an admitted query (see oracle.admitted_count)."""
        count = oracle.admitted_count(query, self.oracle_data, self.LIMIT)
        if count is None:
            self.rejected += 1
        return count

    def new_context(self) -> dict:
        ctx = {"outputs": {}}
        self.contexts.append(ctx)
        return ctx

    def setup(self, ctx: dict, tracer=None) -> None:
        raise NotImplementedError

    def after_setup(self, ctx: dict) -> None:
        """Untimed bookkeeping between setup and the first operation."""
        if "session" in ctx:
            ctx["cache_at_start"] = ctx["session"].cache.stats()

    def timed_done(self, ctx: dict) -> None:
        """Untimed bookkeeping after the last timed operation."""
        if "session" in ctx:
            ctx["cache_at_end"] = ctx["session"].cache.stats()

    def timed_cache(self, ctx: dict) -> dict:
        """Prepared-query cache traffic of the timed operations."""
        if "cache_at_start" not in ctx:
            return {"hits": 0, "misses": 0, "hit_share": 0.0}
        start, end = ctx["cache_at_start"], ctx["cache_at_end"]
        hits = end["hits"] - start["hits"]
        misses = end["misses"] - start["misses"]
        return {"hits": hits, "misses": misses, "hit_share": hits / max(1, hits + misses)}

    def op(self, ctx: dict, i: int) -> Op:
        raise NotImplementedError

    def boundary(self, i: int) -> bool:
        """Whether operation ``i`` starts a whole cycle of the request
        mix; a timed loop ends only there."""
        return True

    def probe_ops(self, ctx: dict) -> list:
        """The update probe (workloads whose timed loop has no updates),
        run interleaved with the timed loop."""
        return []

    def verify(self) -> list[str]:
        """Post-run answer check of every pass; returns mismatches.

        Outputs are ``(query index, count)`` per request, checked against
        the reference count taken at admission: a permuted query has the
        count of the query it permutes."""
        return [
            f"request {i} (query {k}): DAF {got} != CFL-Match {self.expected[k]}"
            for ctx in self.contexts
            for i, (k, got) in ctx["outputs"].items()
            if got != self.expected[k]
        ]

    def inputs_record(self, ctx: dict) -> dict:
        raise NotImplementedError

    def _probe_batches(self) -> list:
        if not hasattr(self, "_probe"):
            mirror = inputs.MirrorGraph(self.plain)
            rng = self._pinned_rng("probe")
            self._probe = [
                mirror.random_batch(self.DELTAS_PER_BATCH, rng)
                for _ in range(self.PROBE_BATCHES)
            ]
        return self._probe


# ----------------------------------------------------------------------
class ColdOneshot(Workload):
    """Distinct queries, no session, no graph index: what a library user
    pays per ``find_embeddings`` call."""

    name = "cold-oneshot"
    dataset = "hprd"
    LIMIT = 1000
    TIME_LIMIT = 5.0
    PROBE_BATCHES = 60  # a p75 tail with 15 samples beyond it
    SETUP_REPEATS = 7  # a ~0.1 s setup needs more samples for a steady median
    TAIL_CAP = {"match": 90.0, "update": 75.0}
    CLASSES = [(size, density) for size in (8, 16, 24, 32) for density in ("sparse", "nonsparse")]
    #: Per block of 24 queries (3 per class): 1 in 6 label-perturbed.
    NEGATIVES_PER_BLOCK = 4
    BLOCK = 24
    #: A 22-s run serves six or seven blocks; past the sixth the order
    #: starts over (the record gives ``distinct_requested``).
    BLOCKS = 6

    def __init__(self, *args) -> None:
        super().__init__(*args)
        stream = inputs.stratified_queries(
            self.plain, self.CLASSES, self.NEGATIVES_PER_BLOCK, self._pinned_rng("pool")
        )
        self.specs: list[inputs.QuerySpec] = []
        self.expected: list[int] = []
        while len(self.specs) < self.BLOCK * self.BLOCKS:
            spec = next(stream)
            count = self._admit(spec.graph)
            if count is not None:
                self.specs.append(spec)
                self.expected.append(count)
        self._order: list[int] = []

    def request(self, i: int):
        """The ``i``-th request: (query index, permuted query).  Whole
        blocks (every class three times) in seeded order."""
        while len(self.requests) <= i:
            if not self._order:
                blocks = list(range(self.BLOCKS))
                self._req_rng.shuffle(blocks)
                for b in blocks:
                    members = list(range(b * self.BLOCK, (b + 1) * self.BLOCK))
                    self._req_rng.shuffle(members)
                    self._order.extend(members)
            k = self._order.pop(0)
            self.requests.append((k, inputs.permuted(self.specs[k].graph, self._req_rng)))
        return self.requests[i]

    def setup(self, ctx, tracer=None):
        ctx["data"] = load_graph(self.data_path, tracer)

    def boundary(self, i):
        return i % self.BLOCK == 0

    def op(self, ctx, i):
        k, probe = self.request(i)
        request = MatchRequest(
            probe,
            ctx["data"],
            options=MatchOptions(limit=self.LIMIT, time_limit=self.TIME_LIMIT),
        )

        def check(result) -> bool:
            ctx["outputs"][i] = (k, result.count)
            return not _failed(result) and oracle.embeddings_valid(
                result.embeddings, probe, self.oracle_data
            )

        return Op("match", lambda: DAFMatcher().run_request(request), check)

    def probe_ops(self, ctx):
        # A chain of versions of its own: apply_update returns a new
        # graph and leaves ctx["data"], which the requests run on, alone.
        mirror = inputs.MirrorGraph(self.plain)
        state = {"graph": load_graph(self.data_path)}
        ops = []
        for batch, _mix in self._probe_batches():

            def run(batch=batch):
                return apply_update(state["graph"], batch)[0]

            def check(graph, batch=batch) -> bool:
                state["graph"] = graph
                mirror.apply(batch)
                return mirror.same_as(graph)

            ops.append(Op("update", run, check))
        return ops

    def inputs_record(self, ctx):
        used = [k for k, _count in ctx["outputs"].values()]
        specs = [self.specs[k] for k in used]
        asked_dense = [s for s in specs if s.density == "nonsparse"]
        return {
            "requests": len(used),
            "distinct_requested": len(set(used)),
            "classes": dict(Counter(f"{s.size}-{s.density}" for s in specs)),
            "nonsparse_reached": sum(_density(s.graph) == "nonsparse" for s in asked_dense)
            / max(1, len(asked_dense)),
            "perturbed_share": sum(s.perturbed for s in specs) / max(1, len(used)),
            "negative_share": sum(self.expected[k] == 0 for k in used) / max(1, len(used)),
            "rejected_at_admission": self.rejected,
            "limit": self.LIMIT,
            "probe_delta_mix": _delta_mix(self._probe_batches()),
        }


# ----------------------------------------------------------------------
class PoolWorkload(Workload):
    """A warmed ``DataGraphSession`` serving permuted queries from a
    pinned pool, drawn with Zipf-like popularity."""

    POOL = 0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self._pinned_rng("pool")
        classes = ((8, "nonsparse"), (12, "sparse"))
        self.pool: list = []
        self.expected: list[int] = []
        while len(self.pool) < self.POOL:
            query = inputs.extract_query(self.plain, *classes[len(self.pool) % 2], rng)
            count = self._admit(query)
            if count is not None:
                self.pool.append(query)
                self.expected.append(count)
        # Zipf-like popularity, pinned: the query of rank r gets a share
        # 1 / (r + 1) of a cycle of about 2 x POOL requests (at least one).
        # A run serves whole cycles, each in seeded order, so its mix is
        # the same whatever the seed.
        ranks = list(range(self.POOL))
        self._pinned_rng("ranks").shuffle(ranks)
        weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(self.POOL)]
        total = sum(weights)
        self._cycle = [
            j
            for rank, j in enumerate(ranks)
            for _ in range(max(1, round(2 * self.POOL * weights[rank] / total)))
        ]
        self._order: list[int] = []

    def request(self, i: int):
        """The ``i``-th request: (pool index, permuted pool query)."""
        while len(self.requests) <= i:
            if not self._order:
                self._order = list(self._cycle)
                self._req_rng.shuffle(self._order)
            j = self._order.pop()
            self.requests.append((j, inputs.permuted(self.pool[j], self._req_rng)))
        return self.requests[i]

    def setup(self, ctx, tracer=None):
        session = DataGraphSession(load_graph(self.data_path, tracer))
        session.warm(self.pool)
        ctx["session"] = session

    def boundary(self, i):
        return i % len(self._cycle) == 0

    def _pool_record(self, ctx) -> dict:
        return {
            "pool": len(self.pool),
            "classes": dict(Counter(f"{q.num_vertices}-{_density(q)}" for q in self.pool)),
            "avg_degree": sum(q.average_degree() for q in self.pool) / len(self.pool),
            "rejected_at_admission": self.rejected,
            "zipf_exponent": ZIPF_EXPONENT,
            "popularity_cycle": len(self._cycle),
            "limit": self.LIMIT,
            "requests": len(ctx["outputs"]),
        }


class SessionRepeat(PoolWorkload):
    """Serving with preprocessing amortised: every timed request is a
    permuted pool query that hits the prepared-query cache."""

    name = "session-repeat"
    dataset = "human"
    POOL = 24
    LIMIT = 10_000
    PROBE_BATCHES = 20
    #: Pool queries warmed into the probe's session, each rebased by
    #: every probe batch: an update takes about 0.4 s on human with 8,
    #: about 0.7 s with the whole pool.
    PROBE_WARM = 8
    TAIL_CAP = {"match": 95.0, "update": 50.0}

    def op(self, ctx, i):
        j, probe = self.request(i)
        session = ctx["session"]
        request = MatchRequest(probe, options=MatchOptions(limit=self.LIMIT))

        def check(result) -> bool:
            ctx["outputs"][i] = (j, result.count)
            return not _failed(result) and oracle.embeddings_valid(
                result.embeddings, probe, self.oracle_data
            )

        return Op("match", lambda: session.run(request), check)

    def probe_ops(self, ctx):
        # A warmed session of its own, so the updates leave the timed
        # requests' graph and cache alone.
        session = DataGraphSession(load_graph(self.data_path))
        session.warm(self.pool[: self.PROBE_WARM])
        mirror = inputs.MirrorGraph(self.plain)
        ops = []
        for batch, _mix in self._probe_batches():

            def check(result, batch=batch) -> bool:
                mirror.apply(batch)
                return mirror.same_as(session.data)

            ops.append(Op("update", lambda batch=batch: session.apply(batch), check))
        return ops

    def inputs_record(self, ctx):
        record = self._pool_record(ctx)
        record["distinct_requested"] = len({j for j, _n in ctx["outputs"].values()})
        record["probe_delta_mix"] = _delta_mix(self._probe_batches())
        record["probe_warm"] = self.PROBE_WARM
        return record


class DynamicChurn(PoolWorkload):
    """Writes beside reads: update batches on a session with standing
    queries, each followed by a few requests."""

    name = "dynamic-churn"
    dataset = "yeast"
    POOL = 30
    LIMIT = 1000
    SUBSCRIPTIONS = 3
    SUBSCRIPTION_MIN = 100
    REQUESTS_PER_UPDATE = 8
    SETUP_REPEATS = 5
    # Small enough batches that a run holds ~60 updates (a p75 tail).
    DELTAS_PER_BATCH = 10

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Subscriptions: the first pool queries whose full answer (by the
        # oracle) holds at least SUBSCRIPTION_MIN embeddings, so that
        # revalidating them is real work, and stays under DEFAULT_LIMIT,
        # because subscribe() refuses a baseline that reaches the limit.
        self.subscribed = []
        for j, query in enumerate(self.pool):
            if self.SUBSCRIPTION_MIN <= oracle.count(query, self.oracle_data, DEFAULT_LIMIT) < DEFAULT_LIMIT:
                self.subscribed.append(j)
                if len(self.subscribed) == self.SUBSCRIPTIONS:
                    break
        self.batches: list = []
        self._mirror = inputs.MirrorGraph(self.plain)
        self._batch_rng = self._pinned_rng("batches")

    def batch(self, k: int):
        while len(self.batches) <= k:
            self.batches.append(
                self._mirror.random_batch(self.DELTAS_PER_BATCH, self._batch_rng)
            )
        return self.batches[k][0]

    def boundary(self, i):
        return i % (1 + self.REQUESTS_PER_UPDATE) == 0

    def setup(self, ctx, tracer=None):
        super().setup(ctx, tracer)
        ctx["standing"] = [ctx["session"].subscribe(MatchRequest(self.pool[j])) for j in self.subscribed]

    def new_context(self):
        ctx = super().new_context()
        ctx["mirror"] = inputs.MirrorGraph(self.plain)
        ctx["digests"] = {}
        return ctx

    def after_setup(self, ctx):
        super().after_setup(ctx)
        ctx["digests"][-1] = [oracle.set_digest(sq.embeddings) for sq in ctx["standing"]]

    def op(self, ctx, i):
        session = ctx["session"]
        k, r = divmod(i, 1 + self.REQUESTS_PER_UPDATE)
        if r == 0:
            batch = self.batch(k)

            def check_update(result) -> bool:
                ctx["mirror"].apply(batch)
                ctx["digests"][k] = [oracle.set_digest(sq.embeddings) for sq in ctx["standing"]]
                ctx["events"] = ctx.get("events", 0) + result.appeared + result.disappeared
                return ctx["mirror"].same_as(session.data)

            return Op("update", lambda: session.apply(batch), check_update)

        n = k * self.REQUESTS_PER_UPDATE + r - 1
        j, probe = self.request(n)
        request = MatchRequest(probe, options=MatchOptions(limit=self.LIMIT))

        def check_hit(result) -> bool:
            ctx["outputs"][n] = (k, j, result.count)
            return not _failed(result) and oracle.embeddings_valid(
                result.embeddings, probe, ctx["mirror"]
            )

        return Op("match", lambda: session.run(request), check_hit)

    def verify(self):
        """Replay the batches on a fresh mirror; at every version compare
        the standing sets and the requests' counts with CFL-Match."""
        last = max((max(c["digests"]) for c in self.contexts), default=-1)
        mirror = inputs.MirrorGraph(self.plain)
        problems = []
        for k in range(-1, last + 1):
            if k >= 0:
                mirror.apply(self.batches[k][0])
            graph = mirror.graph()
            expected = [
                oracle.set_digest(oracle.embedding_set(self.pool[j], graph, DEFAULT_LIMIT))
                for j in self.subscribed
            ]
            counts: dict[int, int] = {}
            for ctx in self.contexts:
                got = ctx["digests"].get(k)
                if got is not None and got != expected:
                    problems.append(f"version {k + 1}: standing sets {got} != fresh {expected}")
                for n, (kk, j, count) in ctx["outputs"].items():
                    if kk != k:
                        continue
                    if j not in counts:
                        counts[j] = oracle.count(self.pool[j], graph, self.LIMIT)
                    if count != counts[j]:
                        problems.append(f"request {n} (pool {j}) at version {k + 1}: {count} != {counts[j]}")
        return problems

    def inputs_record(self, ctx):
        updates = len(ctx["digests"]) - 1
        record = self._pool_record(ctx)
        record.update(
            {
                "subscriptions": self.subscribed,
                "subscription_sizes": [n for n, _h in ctx["digests"][-1]],
                "updates": updates,
                "events": ctx.get("events", 0),
                "delta_mix": _delta_mix(self.batches[:updates]),
            }
        )
        return record


WORKLOADS = {w.name: w for w in (ColdOneshot, SessionRepeat, DynamicChurn)}
