"""Seeded input generation for the benchmark workloads.

Everything the program under test receives — queries, their vertex
permutations and the update batches — is produced here from the
workload seed with ``random.Random`` instances owned by this module, and
with the benchmark's own random-walk extractor and label perturbation.
The program's query generators are deliberately not used, so a change to
them cannot change what the benchmark measures.  Only the data graphs
come from ``repro.datasets.registry`` (they are part of the
reproduction, pinned by their spec seeds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph import Graph
from repro.interfaces import Delta, UpdateBatch

SPARSE_MAX_AVG_DEGREE = 3.0


@dataclass(frozen=True)
class QuerySpec:
    """One generated query and how it was made."""

    graph: Graph
    size: int
    density: str  # "sparse" | "nonsparse"
    perturbed: bool  # labels perturbed (Appendix A.3 negative recipe)


class PlainGraph:
    """A read-only adjacency view of a data graph for input generation.

    Built from the graph's public accessors once, so generation never
    touches the objects the program runs on.
    """

    def __init__(self, graph: Graph) -> None:
        self.labels = list(graph.labels)
        self.adj = [tuple(graph.neighbors(v)) for v in graph.vertices()]
        self.alphabet = sorted(set(self.labels), key=repr)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)


def _walk(plain: PlainGraph, size: int, rng: random.Random) -> tuple[list[int], list[tuple[int, int]]]:
    """``size`` distinct vertices by random walk, plus the discovery edges
    (a spanning tree of the walk, so every query is connected)."""
    n = plain.num_vertices
    while True:
        start = rng.randrange(n)
        if plain.adj[start]:
            break
    order = [start]
    seen = {start}
    tree: list[tuple[int, int]] = []
    current = start
    for _step in range(200 * size):
        if len(order) == size:
            break
        neighbors = plain.adj[current]
        if not neighbors or rng.random() < 0.1:
            current = order[rng.randrange(len(order))]
            continue
        nxt = neighbors[rng.randrange(len(neighbors))]
        if nxt not in seen:
            seen.add(nxt)
            order.append(nxt)
            tree.append((current, nxt))
        current = nxt
    return order, tree


def extract_query(plain: PlainGraph, size: int, density: str, rng: random.Random) -> Graph:
    """A connected ``size``-vertex query in the paper's density class
    (sparse: avg-deg <= 3; non-sparse: avg-deg > 3), by random walk.

    Non-sparse queries keep the walk's full induced subgraph and retry
    walks until one is dense enough (the densest of 60 otherwise);
    sparse queries keep the walk tree plus a random share of the other
    induced edges that keeps avg-deg <= 3.  Vertex ids are shuffled.
    """
    best = None
    for _attempt in range(60):
        order, tree = _walk(plain, size, rng)
        if len(order) < size:
            continue
        local = {v: i for i, v in enumerate(order)}
        induced = sorted(
            (local[v], local[w])
            for v in order
            for w in plain.adj[v]
            if w in local and local[v] < local[w]
        )
        if density == "sparse":
            tree_edges = {tuple(sorted((local[a], local[b]))) for a, b in tree}
            extra = [e for e in induced if e not in tree_edges]
            rng.shuffle(extra)
            room = int(SPARSE_MAX_AVG_DEGREE * size / 2) - len(tree_edges)
            keep = rng.randint(0, max(0, min(room, len(extra))))
            edges = sorted(tree_edges) + extra[:keep]
            best = (order, edges)
            break
        if best is None or len(induced) > len(best[1]):
            best = (order, induced)
        if 2 * len(induced) / size > SPARSE_MAX_AVG_DEGREE:
            break
    if best is None:
        raise RuntimeError(f"no {size}-vertex walk found")
    order, edges = best
    perm = list(range(size))
    rng.shuffle(perm)
    labels = [None] * size
    for i, v in enumerate(order):
        labels[perm[i]] = plain.labels[v]
    return Graph(labels=labels, edges=[(perm[a], perm[b]) for a, b in edges])


def perturb_labels(query: Graph, k: int, alphabet: list, rng: random.Random) -> Graph:
    """Appendix A.3 negatives: relabel ``k`` random vertices with random
    labels from the data alphabet."""
    labels = list(query.labels)
    for u in rng.sample(range(query.num_vertices), min(k, query.num_vertices)):
        labels[u] = alphabet[rng.randrange(len(alphabet))]
    return Graph(labels=labels, edges=list(query.edges()))


def permuted(query: Graph, rng: random.Random) -> Graph:
    """The same query under a random vertex permutation."""
    perm = list(range(query.num_vertices))
    rng.shuffle(perm)
    labels = [None] * query.num_vertices
    for u in query.vertices():
        labels[perm[u]] = query.label(u)
    return Graph(labels=labels, edges=[(perm[u], perm[w]) for u, w in query.edges()])


def stratified_queries(plain: PlainGraph, classes, negatives_per_block: int, rng: random.Random):
    """Endless stream of :class:`QuerySpec`, in blocks.

    Each block holds every ``(size, density)`` class of ``classes`` three
    times in random order, ``negatives_per_block`` of them label-perturbed.
    Stratifying keeps a run's latency distribution close to the mix's
    whatever the seed.
    """
    while True:
        block = [c for c in classes for _ in range(3)]
        rng.shuffle(block)
        negative = set(rng.sample(range(len(block)), negatives_per_block))
        for position, (size, density) in enumerate(block):
            query = extract_query(plain, size, density, rng)
            if position in negative:
                query = perturb_labels(query, 2, plain.alphabet, rng)
            yield QuerySpec(query, size, density, position in negative)


class MirrorGraph:
    """The benchmark's own copy of a mutating data graph.

    It picks valid deltas for the update stream and, independently of the
    program's mutation code, rebuilds the graph of each version for the
    answer check.  Deleted vertices keep their id under a label no query
    carries, as in the program.
    """

    DELETED = "__deleted__"

    def __init__(self, plain: PlainGraph) -> None:
        self.labels = list(plain.labels)
        self.adj = [set(a) for a in plain.adj]
        self.live = [True] * len(self.labels)
        self.edges = sorted((v, w) for v in range(len(self.adj)) for w in self.adj[v] if v < w)
        self._edge_pos = {e: i for i, e in enumerate(self.edges)}
        self._batches = 0

    def label(self, v: int):
        return self.labels[v]

    def has_edge(self, v: int, w: int) -> bool:
        return w in self.adj[v]

    def same_as(self, graph: Graph) -> bool:
        """True iff ``graph`` has exactly this edge set and, on live
        vertices, this labelling (deleted vertices' labels are the
        program's own sentinel)."""
        if graph.num_vertices != len(self.labels) or graph.num_edges != len(self.edges):
            return False
        for v in range(len(self.labels)):
            if self.live[v] and graph.label(v) != self.labels[v]:
                return False
            if set(graph.neighbors(v)) != self.adj[v]:
                return False
        return True

    def _add_edge(self, v: int, w: int) -> None:
        e = (min(v, w), max(v, w))
        self.adj[v].add(w)
        self.adj[w].add(v)
        self._edge_pos[e] = len(self.edges)
        self.edges.append(e)

    def _remove_edge(self, v: int, w: int) -> None:
        e = (min(v, w), max(v, w))
        self.adj[v].discard(w)
        self.adj[w].discard(v)
        i = self._edge_pos.pop(e)
        last = self.edges.pop()
        if last != e:
            self.edges[i] = last
            self._edge_pos[last] = i

    def apply(self, batch: UpdateBatch) -> None:
        """Apply ``batch`` (ids of inserted vertices assigned in order)."""
        for d in batch.deltas:
            if d.op == "insert-edge":
                self._add_edge(d.u, d.v)
            elif d.op == "delete-edge":
                self._remove_edge(d.u, d.v)
            elif d.op == "insert-vertex":
                self.labels.append(d.label)
                self.adj.append(set())
                self.live.append(True)
            else:
                for w in list(self.adj[d.u]):
                    self._remove_edge(d.u, w)
                self.labels[d.u] = self.DELETED
                self.live[d.u] = False

    def graph(self) -> Graph:
        return Graph(labels=self.labels, edges=sorted(self.edges))

    def _push(self, deltas: list, mix: dict, delta: Delta) -> None:
        self.apply(UpdateBatch(deltas=(delta,)))
        deltas.append(delta)
        mix[delta.op] += 1

    def random_batch(self, size: int, rng: random.Random) -> tuple[UpdateBatch, dict]:
        """A valid batch of ``size`` deltas against the current state, and
        its op mix.  Mostly edge inserts and deletes; every fourth batch
        also inserts a vertex wired to live vertices, and every eighth
        deletes a low-degree live vertex.  The mirror is advanced."""
        deltas: list[Delta] = []
        mix = {"insert-edge": 0, "delete-edge": 0, "insert-vertex": 0, "delete-vertex": 0}
        self._batches += 1
        if self._batches % 4 == 0:
            label = self.DELETED
            while label == self.DELETED:
                label = self.labels[rng.randrange(len(self.labels))]
            self._push(deltas, mix, Delta.insert_vertex(label))
            new = len(self.labels) - 1
            for _ in range(3):
                w = rng.randrange(new)
                if self.live[w] and w not in self.adj[new]:
                    self._push(deltas, mix, Delta.insert_edge(new, w))
        if self._batches % 8 == 0:
            for _ in range(50):
                v = rng.randrange(len(self.labels))
                if self.live[v] and 0 < len(self.adj[v]) <= 3:
                    self._push(deltas, mix, Delta.delete_vertex(v))
                    break
        while len(deltas) < size:
            if rng.random() < 0.5 and self.edges:
                v, w = self.edges[rng.randrange(len(self.edges))]
                self._push(deltas, mix, Delta.delete_edge(v, w))
                continue
            # Close a wedge: new edges between vertices two hops apart
            # change local structure the way real updates do.
            v = rng.randrange(len(self.labels))
            if not self.live[v] or not self.adj[v]:
                continue
            mid = rng.choice(sorted(self.adj[v]))
            w = rng.choice(sorted(self.adj[mid]))
            if w != v and w not in self.adj[v] and self.live[w]:
                self._push(deltas, mix, Delta.insert_edge(v, w))
        return UpdateBatch(deltas=tuple(deltas)), mix
