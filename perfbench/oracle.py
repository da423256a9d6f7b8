"""Answer checks against an independent matcher.

Counts are compared with CFL-Match from ``repro.baselines``, run on the
benchmark's own copy of the data graph (never the object the program
under test holds).  VF2 is not used: on these graphs it is orders of
magnitude slower than CFL-Match.  Returned embeddings are validated with
``repro.interfaces.is_embedding`` in the probe query's own coordinates,
which is what catches a cache-bijection remap bug.
"""

from __future__ import annotations

from repro.baselines import CFLMatcher
from repro.interfaces import MatchOptions, MatchRequest, is_embedding

#: Far above any oracle run seen on these workloads; a run that hits it
#: leaves the answer unchecked, which counts as a failure.
ORACLE_TIME_LIMIT = 120.0

#: Embeddings validated per answer; spread evenly over the list.
VALIDATE_SAMPLE = 256

#: Query admission: a generated query enters a workload only if the
#: oracle settles its answer within this many search calls (and this
#: time, which admitted queries never come near).  Both DAF and CFL-Match
#: time out on the rare generated query far beyond it, and a timed-out
#: request would count as a failure; the cap is on the oracle's work, so
#: it is deterministic and independent of the program under test.
ADMISSION_MAX_CALLS = 100_000
ADMISSION_TIME_LIMIT = 10.0


class OracleError(RuntimeError):
    """The oracle could not produce a reference answer."""


def _run(query, data, limit: int, count_only: bool, time_limit: float = ORACLE_TIME_LIMIT):
    return CFLMatcher().run_request(
        MatchRequest(
            query,
            data,
            options=MatchOptions(limit=limit, time_limit=time_limit, count_only=count_only),
        )
    )


def _finished(result):
    if result.timed_out:
        raise OracleError(f"CFL-Match did not finish within {ORACLE_TIME_LIMIT} s")
    return result


def admitted_count(query, data, limit: int):
    """The reference count if ``query`` passes admission, else ``None``."""
    result = _run(query, data, limit, count_only=True, time_limit=ADMISSION_TIME_LIMIT)
    if result.timed_out or result.stats.recursive_calls > ADMISSION_MAX_CALLS:
        return None
    return result.count


def count(query, data, limit: int) -> int:
    """min(number of embeddings, limit), by CFL-Match."""
    return _finished(_run(query, data, limit, count_only=True)).count


def embedding_set(query, data, limit: int) -> frozenset:
    """All embeddings (up to ``limit``), by CFL-Match."""
    return frozenset(_finished(_run(query, data, limit, count_only=False)).embeddings)


def set_digest(embeddings) -> tuple[int, int]:
    """Order-free (size, hash) fingerprint of an embedding set."""
    frozen = frozenset(embeddings)
    return len(frozen), hash(frozen)


def embeddings_valid(embeddings, query, data) -> bool:
    """Distinct, and each sampled embedding is a valid embedding of
    ``query`` in ``data`` (``data`` only needs ``label``/``has_edge``)."""
    if len(set(embeddings)) != len(embeddings):
        return False
    step = max(1, len(embeddings) // VALIDATE_SAMPLE)
    sample = list(embeddings[::step])
    if embeddings:
        sample.append(embeddings[-1])
    return all(is_embedding(e, query, data) for e in sample)
