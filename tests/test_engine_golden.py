"""Golden equivalence of the search engine across its modes.

DA (failing sets off), DAF, induced, homomorphism and DAF-Boost runs all
go through one backtracking loop.  ``fixtures/engine_goldens.json`` pins,
per seeded case and configuration, the deterministic outcome of a search:
``recursive_calls``, the embedding count, a sha1 of the *ordered*
embedding list and the search-stage prune counters.  Any change to the
engine that alters the search tree — an extra node, a lost cut, a
different sibling order — shows up here as a mismatch.

The goldens are regenerated with::

    PYTHONPATH=src python -m tests.test_engine_golden --write

which must only be done when a change to the search is *meant* to alter
its trees.

``fixtures/da_checkpoint.json`` holds two DA-mode checkpoints (phases
``enter_core`` and ``enter_leaf``, cut by a call budget) saved by the
separate DA loop the engine used to have, which never filled in
``fs_union`` and so wrote 0 in every frame.  The current engine cannot
write such a file; the test keeps checkpoints already on disk resumable.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import DAFMatcher, MatchConfig
from repro.extensions import BoostedDAFMatcher
from repro.graph import Graph, ensure_connected, extract_query, gnm_random_graph, random_labels
from repro.interfaces import MatchOptions, MatchRequest
from repro.obs import MetricsRegistry
from tests.test_failing_sets import make_failing_sibling_case

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = FIXTURES / "engine_goldens.json"
DA_CHECKPOINT = FIXTURES / "da_checkpoint.json"
LIMIT = 20_000
COUNTERS = (
    "prune_conflict",
    "prune_empty",
    "fs_cuts",
    "prune_failing_set",
    "candidates_examined",
    "children_entered",
)


# -- cases -------------------------------------------------------------
def _random_case(rng: random.Random) -> tuple[Graph, Graph]:
    n = rng.randint(10, 26)
    m = rng.randint(n, min(3 * n, n * (n - 1) // 2))
    data = ensure_connected(gnm_random_graph(n, m, random_labels(n, rng.randint(1, 3), rng), rng), rng)
    if rng.random() < 0.75:
        query, _ = extract_query(data, rng.randint(4, 8), rng)
    else:
        # Unrelated random query: often negative or conflict-heavy.
        k = rng.randint(4, 7)
        labels = [data.label(rng.randrange(n)) for _ in range(k)]
        query = ensure_connected(gnm_random_graph(k, rng.randint(k - 1, 2 * k), labels, rng), rng)
    return query, data


def _twin_rich_case(rng: random.Random) -> tuple[Graph, Graph]:
    """A data graph whose SE classes have capacity > 1: random vertices
    get one or two clones (same label, same neighborhood)."""
    n = rng.randint(8, 14)
    m = rng.randint(n, min(2 * n, n * (n - 1) // 2))
    base = ensure_connected(gnm_random_graph(n, m, random_labels(n, rng.randint(1, 3), rng), rng), rng)
    labels = [base.label(v) for v in base.vertices()]
    edges = list(base.edges())
    for v in rng.sample(range(n), rng.randint(2, n // 2)):
        for _ in range(rng.randint(1, 2)):
            clone = len(labels)
            labels.append(labels[v])
            edges.extend((clone, w) for w in base.neighbors(v))
    data = Graph(labels=labels, edges=edges)
    query, _ = extract_query(data, rng.randint(3, 6), rng)
    return query, data


def _encode(graph: Graph) -> dict:
    return {
        "labels": [graph.label(v) for v in graph.vertices()],
        "edges": [list(e) for e in graph.edges()],
    }


def _decode(payload: dict) -> Graph:
    return Graph(labels=payload["labels"], edges=[tuple(e) for e in payload["edges"]])


# -- configurations ------------------------------------------------------
def _daf_configs() -> dict[str, MatchConfig]:
    configs = {}
    for fs in (False, True):
        base = "DAF" if fs else "DA"
        for order in ("path", "candidate"):
            for leaf in (True, False):
                for collect in (True, False):
                    name = f"{base}-{order}-{'leaf' if leaf else 'noleaf'}-{'enum' if collect else 'count'}"
                    configs[name] = MatchConfig(
                        order=order,
                        use_failing_sets=fs,
                        leaf_decomposition=leaf,
                        collect_embeddings=collect,
                    )
        configs[f"{base}-induced"] = MatchConfig(use_failing_sets=fs, induced=True)
        configs[f"{base}-homomorphism"] = MatchConfig(use_failing_sets=fs, injective=False)
    return configs


def _boost_configs() -> dict[str, MatchConfig]:
    configs = {}
    for fs in (False, True):
        base = "Boost-DAF" if fs else "Boost-DA"
        configs[f"{base}-enum"] = MatchConfig(use_failing_sets=fs)
        configs[f"{base}-count"] = MatchConfig(use_failing_sets=fs, collect_embeddings=False)
        configs[f"{base}-count-noleaf"] = MatchConfig(
            use_failing_sets=fs, collect_embeddings=False, leaf_decomposition=False
        )
    return configs


def _digest(embeddings) -> str:
    return hashlib.sha1(json.dumps([list(e) for e in embeddings]).encode()).hexdigest()[:16]


def _outcome(query: Graph, data: Graph, name: str, config: MatchConfig) -> list:
    """``[recursive_calls, count, sha1(ordered embeddings), *COUNTERS]``
    (counters only for the instrumented DAF engine)."""
    request = MatchRequest(query, data, options=MatchOptions(limit=LIMIT))
    if name.startswith("Boost"):
        result = BoostedDAFMatcher(config).match(request)
        counters: list[int] = []
    else:
        obs = MetricsRegistry()
        result = DAFMatcher(config, observer=obs).match(request)
        counters = [getattr(obs, c) for c in COUNTERS]
    return [result.stats.recursive_calls, result.count, _digest(result.embeddings), *counters]


# -- DA checkpoints --------------------------------------------------------
DA_CONFIG = MatchConfig(use_failing_sets=False)


def _da_run(query: Graph, data: Graph, **options):
    request = MatchRequest(query, data, options=MatchOptions(limit=LIMIT, **options))
    return DAFMatcher(DA_CONFIG).match(request)


# -- generation --------------------------------------------------------------
def generate() -> None:
    rng = random.Random(20190630)
    cases = []

    def add(seed, query: Graph, data: Graph, configs: dict[str, MatchConfig]) -> None:
        runs = {name: _outcome(query, data, name, cfg) for name, cfg in configs.items()}
        cases.append({"seed": seed, "query": _encode(query), "data": _encode(data), "runs": runs})

    for seed in range(24):
        add(seed, *_random_case(random.Random(rng.randrange(2**32))), _daf_configs())
    # The paper's Figure 7 shape: one Lemma 6.1 cut skips every sibling.
    add("figure7", *make_failing_sibling_case(6, 8), _daf_configs())
    for seed in range(10):
        add(f"boost-{seed}", *_twin_rich_case(random.Random(rng.randrange(2**32))), _boost_configs())
    FIXTURES.mkdir(exist_ok=True)
    with open(GOLDENS, "w", encoding="utf-8") as stream:
        stream.write('{"limit": %d, "counters": %s, "cases": [\n' % (LIMIT, json.dumps(COUNTERS)))
        stream.write(",\n".join(json.dumps(case, separators=(",", ":")) for case in cases))
        stream.write("\n]}\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    generate()
    sys.exit(0)


# -- tests -------------------------------------------------------------------
def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


GOLDEN = _load(GOLDENS)
CONFIGS = {**_daf_configs(), **_boost_configs()}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: str(case["seed"]))
def test_engine_matches_goldens(case):
    query, data = _decode(case["query"]), _decode(case["data"])
    for name, expected in case["runs"].items():
        assert _outcome(query, data, name, CONFIGS[name]) == expected, name


def test_goldens_exercise_every_mode():
    """The corpus is only a guard if it reaches the paths it pins: DAF
    cuts, conflicts and emptysets, embedding-bearing Boost expansions."""
    totals: dict[str, list[int]] = {}
    for case in GOLDEN["cases"]:
        for name, run in case["runs"].items():
            row = totals.setdefault(name, [0] * len(run))
            for k, value in enumerate(run):
                if isinstance(value, int):
                    row[k] += value
    # Row layout: calls, count, digest, then COUNTERS.
    cuts = 3 + COUNTERS.index("fs_cuts")
    conflicts = 3 + COUNTERS.index("prune_conflict")
    empties = 3 + COUNTERS.index("prune_empty")
    for name, row in totals.items():
        assert row[1] > 0, name
        if name.startswith("Boost"):
            continue
        assert row[empties] > 0, name
        assert (row[conflicts] > 0) != name.endswith("homomorphism"), name
        assert (row[cuts] > 0) == name.startswith("DAF-"), name
    assert set(totals) == set(CONFIGS)


def test_da_checkpoint_with_zero_fs_union_resumes():
    saved = _load(DA_CHECKPOINT)
    query, data = _decode(saved["query"]), _decode(saved["data"])
    expected = _da_run(query, data)
    assert set(saved["checkpoints"]) == {"enter_core", "enter_leaf"}
    for payload in saved["checkpoints"].values():
        assert all(frame[3] == 0 for frame in payload["frames"])
        resumed = _da_run(query, data, resume_from=payload)
        assert resumed.embeddings == expected.embeddings
        assert resumed.stats.recursive_calls == expected.stats.recursive_calls

