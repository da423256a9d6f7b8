"""The DAF backtracking engine (paper §5 and §6).

The engine finds embeddings of the query *in the CS structure* (never
touching the data graph — Theorem 4.1 makes that sufficient).  Its three
pillars:

**DAG ordering** (§5.1).  The next vertex to map is always *extendable* —
all its parents in the query DAG are mapped — so every query edge is
checked as early as the DAG allows.  The extendable candidates of ``u``
are ``C_M(u) = intersection over parents p of N^p_u(M(p))``, computed once
when ``u`` becomes extendable (its parents cannot change until we backtrack
past them).

**Adaptive matching order** (§5.2).  Among extendable vertices the engine
picks the one minimizing the configured weight — ``|C_M(u)|``
(candidate-size) or ``w_M(u)`` from the precomputed weight array
(path-size).

**Failing sets** (§6).  Each search-tree node computes a failing set — an
ancestor-closed set ``F`` of query vertices such that no (CS-)embedding
of ``q[F]`` extends ``M[F]`` — represented as an int bitmask.  ``None``
encodes "an embedding was found in this subtree" (the paper's
F = emptyset, Case 1).  The three leaf classes:

- *conflict*: extendable candidate already visited by query vertex ``u'``
  → contributes ``anc(u) | anc(u')``;
- *emptyset*: ``C_M(u)`` has no usable candidate → ``anc(u)``;
- *embedding*: a full embedding → ``None``.

Internal nodes take the union of their children's failing sets (Case 2.2)
unless some child's failing set excludes the child's query vertex — then
by Lemma 6.1 all remaining sibling candidates are redundant and the loop
is cut short (Case 2.1).

Pruning is data, not a second code path: the DA variants (failing sets
off, Appendix A.6) run the same loop with every ``anc(u)`` set to all of
V(q).  Every failing set is then V(q), which is always sound and never
excludes a vertex, so Case 2.1 never fires.  The occupancy map
``visited_by`` likewise stores, per occupied data vertex, the ancestor
mask its conflict contributes; the boost extension's capacity engine
reuses the loop by keeping an entry only while a hypervertex is full.

**Leaf decomposition** (§3).  Degree-one query vertices are deferred and
matched last by a specialized matcher that exploits their independence:
leaves with different labels can never conflict, so in counting mode whole
groups multiply combinatorially instead of being enumerated.

**Suspend / resume.**  The search runs on an explicit frame stack rather
than Python recursion, so the full frontier — per-depth candidate
cursors, failing-set accumulators, the partial embedding — is ordinary
engine state.  At every *safe phase* (a node entry, a leaf-level entry,
or an embedding report — exactly the points where ``deadline.tick()``,
fault injection, and the cooperative SIGINT flag are polled) the engine
can be captured into a :class:`repro.resilience.checkpoint.SearchCheckpoint`
and later replayed onto a freshly prepared engine, continuing the search
with **bit-identical** embeddings, order, and deterministic counters
versus an uninterrupted run.
"""

from __future__ import annotations

import signal
from typing import Callable, Optional

from ..interfaces import Deadline, Embedding, SearchStats, TimeoutSignal
from ..resilience.budget import embedding_bytes
from ..resilience.checkpoint import (
    CheckpointMismatchError,
    SearchCheckpoint,
    resume_payload,
)
from ..resilience.faults import FAULTS
from .candidate_space import CandidateSpace
from .config import MatchConfig
from .ordering import make_order


class _LimitReached(Exception):
    """Internal signal: the embedding limit was hit; unwind the search."""


# Frame kinds: a core (DAG-ordered) vertex vs a deferred degree-one leaf.
_KIND_CORE = 0
_KIND_LEAF = 1

# Drive states.  The first three are *safe phases*: the engine state is
# consistent and a checkpoint captured there resumes exactly.  _UNSAFE
# marks everything else (mid-advance, mid-return); _ADVANCE/_RETURN are
# driver-internal and never observed across a suspension.
_UNSAFE = 0
_ENTER_CORE = 1
_ENTER_LEAF = 2
_REPORT = 3
_ADVANCE = 4
_RETURN = 5

_PHASE_NAMES = {_ENTER_CORE: "enter_core", _ENTER_LEAF: "enter_leaf", _REPORT: "report"}
_PHASE_CODES = {name: code for code, name in _PHASE_NAMES.items()}

# Explicit frame layout (a plain list for speed):
#   [kind, u, seq, pos, fs_union, found, v]
# where ``seq`` is the candidate *index* sequence (cmu for core frames,
# the parent's CS adjacency for leaf frames), ``pos`` is the cursor one
# past the active candidate (so seq[pos-1] is the index currently
# mapped), ``fs_union`` accumulates sibling failing sets (Case 2.2),
# ``found`` records whether any child subtree found an embedding, and
# ``v`` is the mapped data vertex (-1 while no candidate is active).
_F_KIND = 0
_F_U = 1
_F_SEQ = 2
_F_POS = 3
_F_FS = 4
_F_FOUND = 5
_F_V = 6


class BacktrackEngine:
    """One search over a prepared candidate space.

    An engine instance is single-use: construct, :meth:`run`, read results.
    ``root_candidate_indices`` restricts the root's candidates, which is
    how parallel DAF partitions the search across workers (Appendix A.4).

    ``observer`` is an optional :class:`repro.obs.MetricsRegistry`.  The
    zero-overhead contract: when it is ``None`` (the default) the hot
    loop performs no observability work beyond ``is not None`` checks on
    locals — there is no no-op registry object, and search results are
    bit-identical with metrics on and off.

    ``checkpoint_every`` / ``on_checkpoint`` enable periodic snapshots:
    every that-many recursive calls, ``on_checkpoint`` receives a fresh
    :class:`SearchCheckpoint` (parallel workers piggy-back these on the
    progress pipe so a supervisor can resume a crashed slice).
    """

    def __init__(
        self,
        cs: CandidateSpace,
        config: MatchConfig,
        limit: int,
        deadline: Deadline,
        stats: SearchStats,
        on_embedding: Optional[Callable[[Embedding], None]] = None,
        root_candidate_indices: Optional[list[int]] = None,
        tracer=None,
        observer=None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[[SearchCheckpoint], None]] = None,
    ) -> None:
        self.cs = cs
        self.config = config
        self.limit = limit
        self.deadline = deadline
        self.stats = stats
        self.on_embedding = on_embedding
        self.tracer = tracer
        self.obs = observer
        self.progress = observer.progress if observer is not None else None
        if observer is not None:
            observer.ensure_vertices(cs.dag.num_vertices)
        self.embeddings: list[Embedding] = []
        self.limit_reached = False
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint

        dag = cs.dag
        n = dag.num_vertices
        self.n = n
        self.dag = dag
        if config.use_failing_sets:
            self.anc = tuple(dag.ancestor_mask(u) for u in range(n))
        else:
            # DA: every failing set is all of V(q), so nothing is ever cut.
            self.anc = ((1 << n) - 1,) * n
        self.parents = tuple(dag.parents(u) for u in range(n))
        self.children = tuple(dag.children(u) for u in range(n))
        self.order = make_order(config.order, cs)
        self.injective = config.injective
        self.collect = config.collect_embeddings
        # Budget governors expose charge_memory (plain Deadline does not);
        # collected embeddings are the search's dominant allocation.
        self._charge_memory = getattr(deadline, "charge_memory", None)
        self._embedding_cost = embedding_bytes(n)

        query = cs.query
        self.induced = config.induced
        if self.induced:
            # Non-neighbors per query vertex: an induced embedding must
            # map these to data non-neighbors, checked at mapping time.
            self.non_neighbors = tuple(
                tuple(
                    w
                    for w in range(n)
                    if w != u and not query.has_edge(u, w)
                )
                for u in range(n)
            )
        # Leaf combinatorics assume only edge constraints, which induced
        # matching violates; fall back to the plain engine order.
        if config.leaf_decomposition and n > 2 and not self.induced:
            self.deferred = tuple(
                query.degree(u) == 1 and u != dag.root for u in range(n)
            )
        else:
            self.deferred = tuple(False for _ in range(n))
        self.deferred_leaves = tuple(u for u in range(n) if self.deferred[u])
        self.num_core = n - len(self.deferred_leaves)

        # Mutable search state.
        self.mapping = [-1] * n
        self.midx = [-1] * n
        # Occupied data vertex -> ancestor mask of its occupier(s): the
        # failing-set contribution of a conflict on it.
        self.visited_by: dict[int, int] = {}
        self.pending = [len(self.parents[u]) for u in range(n)]
        self.extendable: set[int] = set()
        self.cmu: list[Optional[list[int]]] = [None] * n
        self.wmu = [0] * n
        self.mapped_core = 0

        # Suspend/resume state.
        self.frames: list[list] = []
        self._state = _ENTER_CORE
        self._report_step = 0
        self._suspended = False
        self._interrupted = False
        self._root_indices = (
            None if root_candidate_indices is None else list(root_candidate_indices)
        )

        root = dag.root
        if root_candidate_indices is None:
            root_cmu = list(range(len(cs.candidates[root])))
        else:
            root_cmu = list(root_candidate_indices)
        self.cmu[root] = root_cmu
        self.wmu[root] = self.order.vertex_weight(root, root_cmu)
        self.extendable.add(root)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute the search; raises :class:`TimeoutSignal` on deadline."""
        if any(not c for c in self.cs.candidates):
            return  # empty CS: negative query, nothing to search (A.3)
        # Cooperative Ctrl-C: the first SIGINT sets a flag polled at the
        # next safe phase so the suspension is checkpointable; a second
        # SIGINT interrupts immediately (old behavior).
        installed = False
        try:
            prev_handler = signal.getsignal(signal.SIGINT)
            if prev_handler is not None:
                signal.signal(signal.SIGINT, self._on_sigint)
                installed = True
        except ValueError:
            pass  # not the main thread
        bound = False
        if FAULTS.active:
            # Let injected hangs see the live deadline so they can never
            # sleep past the remaining budget.
            FAULTS.bind_budget(self.deadline)
            bound = True
        try:
            try:
                self._drive()
            except _LimitReached:
                self._unwind()
                self.limit_reached = True
            except BaseException:
                self._suspended = True
                raise
            if self._interrupted:
                # The flag was raised too late to be polled; the search
                # finished, so surface the interrupt without a checkpoint.
                raise KeyboardInterrupt
        finally:
            if bound:
                FAULTS.unbind_budget(self.deadline)
            if installed:
                signal.signal(signal.SIGINT, prev_handler)

    def _on_sigint(self, signum, frame) -> None:
        if self._interrupted:
            raise KeyboardInterrupt
        self._interrupted = True

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _select(self) -> int:
        """Extendable vertex with minimal weight; ties break on vertex id."""
        best_u = -1
        best_w = None
        for u in self.extendable:
            w = self.wmu[u]
            if best_w is None or w < best_w or (w == best_w and u < best_u):
                best_w = w
                best_u = u
        return best_u

    def _compute_cmu(self, u: int) -> list[int]:
        """C_M(u): intersect the parents' CS adjacency lists (Def. 5.2)."""
        down = self.cs.down
        midx = self.midx
        lists = [down[p][u][midx[p]] for p in self.parents[u]]
        if len(lists) == 1:
            return list(lists[0])
        lists.sort(key=len)
        result = set(lists[0])
        for other in lists[1:]:
            result.intersection_update(other)
            if not result:
                return []
        return sorted(result)

    def _map(self, u: int, i: int, v: int) -> None:
        self.mapping[u] = v
        self.midx[u] = i
        if self.injective:
            self.visited_by[v] = self.anc[u]
        self.extendable.discard(u)
        self.mapped_core += 1
        for c in self.children[u]:
            if self.deferred[c]:
                continue
            self.pending[c] -= 1
            if self.pending[c] == 0:
                cmu = self._compute_cmu(c)
                self.cmu[c] = cmu
                self.wmu[c] = self.order.vertex_weight(c, cmu)
                self.extendable.add(c)

    def _unmap(self, u: int, v: int) -> None:
        for c in self.children[u]:
            if self.deferred[c]:
                continue
            if self.pending[c] == 0:
                self.extendable.discard(c)
                self.cmu[c] = None
            self.pending[c] += 1
        self.mapped_core -= 1
        self.extendable.add(u)
        if self.injective:
            del self.visited_by[v]
        self.mapping[u] = -1
        self.midx[u] = -1

    def _induced_violation(self, u: int, v: int) -> int:
        """Induced-mode check: the first mapped non-neighbor of ``u``
        whose image is adjacent to ``v`` in the data graph, or -1.

        Query non-edges must map to data non-edges; a violation plays the
        same failing-set role as a visited conflict — it pins ``u`` and
        the offending vertex.
        """
        mapping = self.mapping
        data = self.cs.data
        for w in self.non_neighbors[u]:
            image = mapping[w]
            if image >= 0 and data.has_edge(v, image):
                return w
        return -1

    def _report(self) -> None:
        # Re-entrant across a suspension mid-report: ``_report_step``
        # records what already committed (1 = counted, 2 = counted +
        # collected) so a resumed run neither drops nor double-counts
        # this embedding.  The streaming callback is at-least-once when
        # it is itself the step that raised.
        if self._report_step == 0:
            if self.collect and self._charge_memory is not None:
                # Charge before counting so a breach leaves count == collected.
                self._charge_memory(self._embedding_cost)
            self.stats.embeddings_found += 1
            self._report_step = 1
        if self.collect or self.on_embedding is not None:
            embedding = tuple(self.mapping)
            if self.collect and self._report_step == 1:
                self.embeddings.append(embedding)
            self._report_step = 2
            if self.on_embedding is not None:
                self.on_embedding(embedding)
        self._report_step = 0
        if self.stats.embeddings_found >= self.limit:
            raise _LimitReached

    def _report_bulk(self, count: int) -> None:
        """Count ``count`` embeddings without materializing them (leaf
        combinatorics in counting mode)."""
        remaining = self.limit - self.stats.embeddings_found
        take = min(count, remaining)
        self.stats.embeddings_found += take
        if self.stats.embeddings_found >= self.limit:
            raise _LimitReached

    # ------------------------------------------------------------------
    # Suspend / resume
    # ------------------------------------------------------------------
    def can_checkpoint(self) -> bool:
        """True when the run was suspended at a resumable safe phase."""
        return self._suspended and self._state in _PHASE_NAMES

    def _fingerprint(self) -> dict:
        cfg = self.config
        return {
            "query_vertices": self.cs.query.num_vertices,
            "query_edges": self.cs.query.num_edges,
            "data_vertices": self.cs.data.num_vertices,
            "data_edges": self.cs.data.num_edges,
            "order": cfg.order,
            "use_failing_sets": cfg.use_failing_sets,
            "injective": cfg.injective,
            "induced": cfg.induced,
            "leaf_decomposition": cfg.leaf_decomposition,
            "collect": self.collect,
            "limit": self.limit,
            "root_candidates": self._root_indices,
        }

    def capture_checkpoint(self) -> SearchCheckpoint:
        """Snapshot the suspended frontier as a serializable checkpoint.

        Only valid at a safe phase — either mid-run from the periodic
        ``on_checkpoint`` hook (which fires exactly there) or after a
        suspension for which :meth:`can_checkpoint` is true.
        """
        if self._state not in _PHASE_NAMES:
            raise RuntimeError("engine is not at a resumable safe phase")
        frames = [
            [frame[_F_KIND], frame[_F_U], frame[_F_POS], frame[_F_FS], int(frame[_F_FOUND])]
            for frame in self.frames
        ]
        return SearchCheckpoint(
            fingerprint=self._fingerprint(),
            phase=_PHASE_NAMES[self._state],
            frames=frames,
            report_step=self._report_step,
            recursive_calls=self.stats.recursive_calls,
            embeddings_found=self.stats.embeddings_found,
            embeddings=list(self.embeddings) if self.collect else [],
        )

    def restore(self, checkpoint) -> None:
        """Replay ``checkpoint`` onto this freshly constructed engine.

        The checkpoint stores candidate *cursors*; the candidate
        sequences are recomputed here (they are deterministic functions
        of the prepared CS), each frame validated as it is replayed.  A
        subsequent :meth:`run` continues the search bit-identically.
        Accepts a :class:`SearchCheckpoint` or its ``to_dict()`` payload.
        """
        ckpt = resume_payload(checkpoint)
        if ckpt is None:
            return
        if self.frames or self.mapped_core or self.stats.recursive_calls:
            raise RuntimeError("restore() requires a freshly constructed engine")
        ckpt.check_fingerprint(self._fingerprint())
        for kind, u, pos, fs_union, found in ckpt.frames:
            depth = len(self.frames)
            if kind == _KIND_CORE:
                if self.mapped_core >= self.num_core or u not in self.extendable:
                    raise CheckpointMismatchError(
                        f"frame {depth}: vertex {u} is not extendable here"
                    )
                if self._select() != u:
                    raise CheckpointMismatchError(
                        f"frame {depth}: adaptive order selects "
                        f"{self._select()}, checkpoint says {u}"
                    )
                seq = self.cmu[u]
                if not 1 <= pos <= len(seq):
                    raise CheckpointMismatchError(
                        f"frame {depth}: cursor {pos} outside 1..{len(seq)}"
                    )
                i = seq[pos - 1]
                v = self.cs.candidates[u][i]
                if self.injective and v in self.visited_by:
                    raise CheckpointMismatchError(
                        f"frame {depth}: candidate {v} already occupied"
                    )
                self.frames.append([_KIND_CORE, u, seq, pos, fs_union, bool(found), v])
                self._map(u, i, v)
            else:
                lpos = depth - self.num_core
                if (
                    self.mapped_core != self.num_core
                    or not 0 <= lpos < len(self.deferred_leaves)
                    or self.deferred_leaves[lpos] != u
                ):
                    raise CheckpointMismatchError(
                        f"frame {depth}: vertex {u} is not the leaf at depth {depth}"
                    )
                idxs = self._leaf_candidate_indices(u)
                if not 1 <= pos <= len(idxs):
                    raise CheckpointMismatchError(
                        f"frame {depth}: cursor {pos} outside 1..{len(idxs)}"
                    )
                i = idxs[pos - 1]
                v = self.cs.candidates[u][i]
                if self.injective:
                    if v in self.visited_by:
                        raise CheckpointMismatchError(
                            f"frame {depth}: candidate {v} already occupied"
                        )
                    self.visited_by[v] = self.anc[u]
                self.frames.append([_KIND_LEAF, u, idxs, pos, fs_union, bool(found), v])
                self.mapping[u] = v
        self.stats.recursive_calls = ckpt.recursive_calls
        self.stats.embeddings_found = ckpt.embeddings_found
        if self.collect:
            self.embeddings = [tuple(e) for e in ckpt.embeddings]
        self._report_step = ckpt.report_step
        self._state = _PHASE_CODES[ckpt.phase]

    def _unwind(self) -> None:
        """Pop all frames after the limit is hit, restoring initial state."""
        frames = self.frames
        while frames:
            frame = frames.pop()
            u = frame[_F_U]
            v = frame[_F_V]
            if frame[_F_KIND] == _KIND_CORE:
                self._unmap(u, v)
            else:
                self.mapping[u] = -1
                if self.injective:
                    del self.visited_by[v]

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def _drive(self) -> None:
        """Explicit-stack search with failing-set pruning.

        Each search-tree node owns one frame; the drive loop's ``ret``
        carries the child's failing-set mask upward (None = an embedding
        was found in that subtree, Case 1).  In DA mode every mask is
        V(q), so the loop degenerates to plain backtracking.
        """
        stats = self.stats
        deadline = self.deadline
        frames = self.frames
        anc = self.anc
        candidates = self.cs.candidates
        visited_by = self.visited_by
        injective = self.injective
        induced = self.induced
        obs = self.obs
        tracer = self.tracer
        progress = self.progress
        every = self.checkpoint_every
        on_checkpoint = self.on_checkpoint
        num_leaves = len(self.deferred_leaves)
        ret: Optional[int] = 0
        state = self._state
        while True:
            if state == _ENTER_CORE:
                self._state = _ENTER_CORE
                if every and on_checkpoint is not None:
                    calls = stats.recursive_calls
                    if calls and calls % every == 0:
                        on_checkpoint(self.capture_checkpoint())
                if self._interrupted:
                    raise KeyboardInterrupt
                deadline.tick()
                if FAULTS.active:
                    FAULTS.fire("backtrack.step", calls=stats.recursive_calls + 1)
                self._state = _UNSAFE
                stats.recursive_calls += 1
                if progress is not None:
                    progress.tick(stats.recursive_calls, self.mapped_core)
                if self.mapped_core == self.num_core:
                    if not num_leaves:
                        state = _REPORT
                        continue
                    if self._can_count_combinatorially():
                        ret = self._count_leaves()
                        state = _RETURN
                        continue
                    state = _ENTER_LEAF
                    continue
                u = self._select()
                cmu = self.cmu[u]
                if not cmu:
                    if obs is not None:
                        obs.prune_empty += 1
                        obs.vertex_empty[u] += 1
                    if tracer is not None:
                        tracer.emptyset(u)
                    ret = anc[u]  # emptyset class
                    state = _RETURN
                    continue
                frames.append([_KIND_CORE, u, cmu, 0, 0, False, -1])
                state = _ADVANCE
            elif state == _ENTER_LEAF:
                self._state = _ENTER_LEAF
                lpos = len(frames) - self.num_core
                if lpos == num_leaves:
                    state = _REPORT
                    continue
                deadline.tick()
                self._state = _UNSAFE
                u = self.deferred_leaves[lpos]
                idxs = self._leaf_candidate_indices(u)
                if not idxs:
                    if obs is not None:
                        obs.prune_empty += 1
                        obs.vertex_empty[u] += 1
                    ret = anc[u]
                    state = _RETURN
                    continue
                frames.append([_KIND_LEAF, u, idxs, 0, 0, False, -1])
                state = _ADVANCE
            elif state == _REPORT:
                self._state = _REPORT
                self._report()
                self._state = _UNSAFE
                ret = None
                state = _RETURN
            elif state == _ADVANCE:
                frame = frames[-1]
                u = frame[_F_U]
                seq = frame[_F_SEQ]
                pos = frame[_F_POS]
                length = len(seq)
                candidates_u = candidates[u]
                advanced = False
                if frame[_F_KIND] == _KIND_CORE:
                    while pos < length:
                        i = seq[pos]
                        pos += 1
                        v = candidates_u[i]
                        if obs is not None:
                            obs.candidates_examined += 1
                        if injective:
                            blocker = visited_by.get(v)
                            if blocker is not None:
                                contribution = anc[u] | blocker  # conflict class
                                frame[_F_FS] |= contribution
                                if obs is not None:
                                    obs.prune_conflict += 1
                                    obs.vertex_conflict[u] += 1
                                if tracer is not None:
                                    tracer.conflict(u, v, contribution)
                                continue
                        if induced:
                            offender = self._induced_violation(u, v)
                            if offender >= 0:
                                contribution = anc[u] | anc[offender]
                                frame[_F_FS] |= contribution
                                if obs is not None:
                                    obs.prune_conflict += 1
                                    obs.vertex_conflict[u] += 1
                                if tracer is not None:
                                    tracer.conflict(u, v, contribution)
                                continue
                        if obs is not None:
                            obs.children_entered += 1
                            obs.vertex_entered[u] += 1
                        if tracer is not None:
                            tracer.enter(u, v)
                        frame[_F_POS] = pos
                        frame[_F_V] = v
                        self._map(u, i, v)
                        advanced = True
                        break
                    if advanced:
                        state = _ENTER_CORE
                    else:
                        frame[_F_POS] = pos
                        frames.pop()
                        ret = None if frame[_F_FOUND] else frame[_F_FS]
                        state = _RETURN
                else:
                    while pos < length:
                        i = seq[pos]
                        pos += 1
                        v = candidates_u[i]
                        if obs is not None:
                            obs.candidates_examined += 1
                        if injective:
                            blocker = visited_by.get(v)
                            if blocker is not None:
                                frame[_F_FS] |= anc[u] | blocker
                                if obs is not None:
                                    obs.prune_conflict += 1
                                    obs.vertex_conflict[u] += 1
                                continue
                            visited_by[v] = anc[u]
                        if obs is not None:
                            obs.children_entered += 1
                            obs.vertex_entered[u] += 1
                        frame[_F_POS] = pos
                        frame[_F_V] = v
                        self.mapping[u] = v
                        advanced = True
                        break
                    if advanced:
                        state = _ENTER_LEAF
                    else:
                        frame[_F_POS] = pos
                        frames.pop()
                        ret = None if frame[_F_FOUND] else frame[_F_FS]
                        state = _RETURN
            else:  # _RETURN: deliver ret to the parent frame
                if not frames:
                    break
                frame = frames[-1]
                u = frame[_F_U]
                v = frame[_F_V]
                if frame[_F_KIND] == _KIND_CORE:
                    self._unmap(u, v)
                    frame[_F_V] = -1
                    if tracer is not None:
                        tracer.leave(ret, ret is None)
                else:
                    self.mapping[u] = -1
                    if injective:
                        del visited_by[v]
                    frame[_F_V] = -1
                if ret is None:
                    frame[_F_FOUND] = True
                    state = _ADVANCE
                elif not (ret >> u) & 1:
                    # Case 2.1 + Lemma 6.1: remaining siblings are redundant.
                    seq = frame[_F_SEQ]
                    pos = frame[_F_POS]
                    if obs is not None:
                        obs.fs_cuts += 1
                        skipped = len(seq) - pos
                        obs.prune_failing_set += skipped
                        obs.vertex_fs_pruned[u] += skipped
                    if frame[_F_KIND] == _KIND_CORE and tracer is not None:
                        candidates_u = candidates[u]
                        for j in seq[pos:]:
                            tracer.pruned(u, candidates_u[j])
                    frames.pop()
                    ret = None if frame[_F_FOUND] else ret
                    state = _RETURN
                else:
                    frame[_F_FS] |= ret  # Case 2.2
                    state = _ADVANCE

    # ------------------------------------------------------------------
    # Leaf matching (§3: degree-one vertices matched last)
    # ------------------------------------------------------------------
    def _leaf_candidate_indices(self, u: int) -> tuple[int, ...]:
        """CS candidates of deferred leaf ``u`` given its mapped parent."""
        (p,) = self.parents[u]
        return self.cs.down[p][u][self.midx[p]]

    def _can_count_combinatorially(self) -> bool:
        return not self.collect and self.on_embedding is None

    def _count_leaves(self) -> Optional[int]:
        """Count leaf assignments combinatorially (counting mode only).

        Leaves are grouped by label: candidates carry the leaf's label, so
        leaves of *different* labels can never collide and their group
        counts multiply.  Within a label group injective assignments are
        counted by a small DFS capped at the remaining limit (group sizes
        are tiny in practice — they are degree-one query vertices sharing
        a label).

        Returns ``None`` if at least one assignment exists (embeddings were
        reported in bulk), else a failing-set mask for the first failing
        group: the group's leaves' ancestors plus the ancestors of every
        query vertex occupying one of the group's candidates — pinning the
        occupiers makes the same unavailability hold for any extension of
        ``M[F]``.
        """
        query = self.cs.query
        remaining = self.limit - self.stats.embeddings_found
        obs = self.obs
        groups: dict[object, list[int]] = {}
        for u in self.deferred_leaves:
            groups.setdefault(query.label(u), []).append(u)

        total = 1
        for label_leaves in groups.values():
            available: list[tuple[int, list[int]]] = []
            conflict_mask = 0
            for u in label_leaves:
                candidates_u = self.cs.candidates[u]
                usable: list[int] = []
                for i in self._leaf_candidate_indices(u):
                    v = candidates_u[i]
                    if obs is not None:
                        obs.candidates_examined += 1
                    if self.injective:
                        blocker = self.visited_by.get(v)
                        if blocker is not None:
                            conflict_mask |= blocker
                            if obs is not None:
                                obs.prune_conflict += 1
                                obs.vertex_conflict[u] += 1
                            continue
                    usable.append(v)
                available.append((u, usable))
            group_count = _count_injective(
                [usable for _, usable in available], cap=remaining, injective=self.injective
            )
            if group_count == 0:
                if obs is not None:
                    obs.prune_empty += 1
                    # The group failed as a unit; attribute the emptyset
                    # to its first leaf so per-vertex sums stay exact.
                    obs.vertex_empty[label_leaves[0]] += 1
                failing = conflict_mask
                for u, _ in available:
                    failing |= self.anc[u]
                return failing
            total = min(total * group_count, remaining)
        self._report_bulk(total)
        return None


def _count_injective(candidate_lists: list[list[int]], cap: int, injective: bool) -> int:
    """Number of (injective) assignments choosing one value per list.

    Capped at ``cap`` — callers only need ``min(true count, cap)``.  With
    ``injective=False`` this is a plain product.
    """
    if cap <= 0:
        cap = 1
    if not injective:
        total = 1
        for lst in candidate_lists:
            total *= len(lst)
            if total >= cap:
                return cap
        return total
    if len(candidate_lists) == 1:
        return min(len(candidate_lists[0]), cap)
    # Small-group DFS, most-constrained list first for fast failure.
    order = sorted(range(len(candidate_lists)), key=lambda k: len(candidate_lists[k]))
    lists = [candidate_lists[k] for k in order]
    used: set[int] = set()
    count = 0

    def dfs(pos: int) -> bool:
        """Returns True when the cap is reached (stop everything)."""
        nonlocal count
        if pos == len(lists):
            count += 1
            return count >= cap
        for v in lists[pos]:
            if v in used:
                continue
            used.add(v)
            stop = dfs(pos + 1)
            used.discard(v)
            if stop:
                return True
        return False

    dfs(0)
    return count
