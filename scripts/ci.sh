#!/usr/bin/env sh
# CI entry point: tier-1 suite + the fault-injection suite, each under a
# global wall-clock cap (coreutils `timeout`, so a wedged supervisor or a
# leaked worker process fails the build instead of hanging it).
#
# Usage: scripts/ci.sh            (from the repository root)
#   TIER1_TIMEOUT / FAULTS_TIMEOUT / OBS_TIMEOUT / BENCH_TIMEOUT /
#   LINT_TIMEOUT / CHAOS_TIMEOUT / SELFTEST_TIMEOUT override the caps
#   (seconds).

set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

TIER1_TIMEOUT="${TIER1_TIMEOUT:-900}"
FAULTS_TIMEOUT="${FAULTS_TIMEOUT:-300}"
OBS_TIMEOUT="${OBS_TIMEOUT:-120}"
BENCH_TIMEOUT="${BENCH_TIMEOUT:-600}"
LINT_TIMEOUT="${LINT_TIMEOUT:-120}"
CHAOS_TIMEOUT="${CHAOS_TIMEOUT:-300}"
SELFTEST_TIMEOUT="${SELFTEST_TIMEOUT:-240}"

echo "==> static analysis (cap: ${LINT_TIMEOUT}s)"
# AST invariant checkers (docs/static-analysis.md): schema drift,
# unseeded randomness, budget polls, Matcher protocol, CLI docs, plus
# the flow-aware checks.  Baseline-aware: findings grandfathered in
# .lint-baseline.json are suppressed, stale entries fail the build.
timeout --kill-after=30 "$LINT_TIMEOUT" \
    python -m repro lint --format text --jobs 2 \
    --baseline .lint-baseline.json

echo "==> static analysis, strict flow checks (cap: ${LINT_TIMEOUT}s)"
# The flow checkers guard the bug classes that silently corrupt a
# reproduction's numbers (unmetered search, nondeterministic
# comparisons, fork corruption, schema drift at emit sites); they run
# again with no baseline so they can never be grandfathered away.
timeout --kill-after=30 "$LINT_TIMEOUT" \
    python -m repro lint --format text \
    --select FRK001,SCH002,DET002,BUD002

echo "==> tier-1 suite (cap: ${TIER1_TIMEOUT}s)"
timeout --kill-after=30 "$TIER1_TIMEOUT" \
    python -m pytest -x -q -m "not faults"

echo "==> fault-injection suite (cap: ${FAULTS_TIMEOUT}s)"
timeout --kill-after=30 "$FAULTS_TIMEOUT" \
    python -m pytest -x -q -m faults

echo "==> chaos smoke (cap: ${CHAOS_TIMEOUT}s)"
# Seeded end-to-end fault sweep (docs/robustness.md#the-chaos-harness):
# every site x kind scenario must recover to the exact fault-free
# answer. Exit code is the gate; the payload goes to stdout for triage.
timeout --kill-after=30 "$CHAOS_TIMEOUT" \
    python -m repro chaos --seed 0 --workers 2

echo "==> metrics schema round-trip (cap: ${OBS_TIMEOUT}s)"
# Emit a real metrics stream through the CLI, then validate it against
# the repro.obs event schema (docs/observability.md).
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro generate dataset yeast '$OBS_TMP/yeast.graph' >/dev/null
    python -m repro generate queries '$OBS_TMP/yeast.graph' '$OBS_TMP/q' \
        --size 8 --count 1 --seed 7 >/dev/null
    python -m repro match \"\$(ls '$OBS_TMP'/q/*.graph | head -1)\" \
        '$OBS_TMP/yeast.graph' --limit 1000 --count-only \
        --metrics-out '$OBS_TMP/metrics.jsonl' >/dev/null
    python scripts/check_metrics_schema.py '$OBS_TMP/metrics.jsonl'
"

echo "==> batch serving smoke (cap: ${OBS_TIMEOUT}s)"
# Round-trip the serving layer (docs/serving.md): two rounds of the same
# tiny batch through `repro serve-batch` must produce warm-cache hits
# (hit-rate > 0), no failures, a schema-valid metrics sidecar, and a
# telemetry summary with windowed latency percentiles and hit-rate
# (docs/observability.md#live-telemetry).
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro serve-batch '$OBS_TMP/yeast.graph' '$OBS_TMP/q' \
        --limit 1000 --count-only --rounds 2 \
        --metrics-out '$OBS_TMP/serve_metrics.jsonl' \
        --telemetry-out '$OBS_TMP/serve_telemetry.json' > '$OBS_TMP/serve.json'
    python scripts/check_metrics_schema.py '$OBS_TMP/serve_metrics.jsonl' \
        '$OBS_TMP/serve_telemetry.json'
    python - '$OBS_TMP/serve.json' <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload[\"failed\"] == 0, payload
assert payload[\"cache\"][\"hit_rate\"] > 0, payload[\"cache\"]
assert payload[\"per_round\"][-1][\"cache_misses\"] == 0, payload[\"per_round\"]
telemetry = payload[\"telemetry\"]
assert telemetry[\"cache_hit_rate\"] > 0, telemetry
assert telemetry[\"p95_seconds\"] > 0, telemetry
assert telemetry[\"requests\"] > 0 and telemetry[\"errors\"] == 0, telemetry
EOF
"

echo "==> dynamic smoke (cap: ${OBS_TIMEOUT}s)"
# Dynamic graphs and continuous queries (docs/serving.md): a scripted
# delta sequence through `repro update` must stream the exact
# appeared/disappeared embedding sets, pass --cross-validate (the
# incremental candidate space is compared bit-for-bit against a cold
# rebuild after every batch), and emit a schema-valid metrics sidecar.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python - '$OBS_TMP' <<'EOF'
import json, sys
from pathlib import Path
from repro.graph import Graph
from repro.graph.io import write_cfl
tmp = Path(sys.argv[1])
write_cfl(Graph(labels=['A', 'B', 'B'], edges=[(0, 1)]), tmp / 'dyn_data.graph')
write_cfl(Graph(labels=['A', 'B'], edges=[(0, 1)]), tmp / 'dyn_query.graph')
lines = [
    json.dumps({'op': 'insert-edge', 'u': 0, 'v': 2}),
    json.dumps([{'op': 'delete-edge', 'u': 0, 'v': 1}]),
]
(tmp / 'dyn_updates.jsonl').write_text('\n'.join(lines) + '\n')
EOF
    python -m repro update '$OBS_TMP/dyn_data.graph' '$OBS_TMP/dyn_updates.jsonl' \
        --queries '$OBS_TMP/dyn_query.graph' --cross-validate \
        --metrics-out '$OBS_TMP/dyn_metrics.jsonl' > '$OBS_TMP/dyn.json'
    python scripts/check_metrics_schema.py '$OBS_TMP/dyn_metrics.jsonl'
    python - '$OBS_TMP/dyn.json' <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload[\"graph_version\"] == 2, payload
assert payload[\"cross_validated\"], payload
batches = payload[\"batches\"]
first = [(e[\"kind\"], tuple(e[\"embedding\"])) for e in batches[0][\"events\"]]
second = [(e[\"kind\"], tuple(e[\"embedding\"])) for e in batches[1][\"events\"]]
assert first == [('appeared', (0, 2))], first
assert second == [('disappeared', (0, 1))], second
assert payload[\"standing\"][\"dyn_query.graph\"] == [[0, 2]], payload[\"standing\"]
assert all(b[\"cache_invalidated\"] == 0 for b in batches), batches
EOF
"

echo "==> telemetry smoke (cap: ${OBS_TIMEOUT}s)"
# End-to-end observability round-trip (docs/observability.md): a traced
# batch run must yield (a) a trace listing and a renderable span tree
# via `repro trace show`, (b) windowed percentiles/hit-rate via
# `repro top` with a deliberately unmeetable p95 SLO firing an ALERT,
# and (c) zero-overhead invariance when metrics are disabled.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro serve-batch '$OBS_TMP/yeast.graph' '$OBS_TMP/q' \
        --limit 1000 --count-only --rounds 2 --window 1 \
        --metrics-out '$OBS_TMP/telemetry_events.jsonl' >/dev/null
    python -m repro trace show '$OBS_TMP/telemetry_events.jsonl' \
        | grep -q 't000001'
    python -m repro trace show '$OBS_TMP/telemetry_events.jsonl' \
        --trace t000001 | grep -q 'status=ok'
    python -m repro top '$OBS_TMP/telemetry_events.jsonl' \
        --window 1 --slo-p95 0.0000001 > '$OBS_TMP/top.txt'
    grep -q 'ALERT' '$OBS_TMP/top.txt'
    grep -q 'p95' '$OBS_TMP/top.txt'
    python -m pytest -q tests/test_obs.py -k ZeroOverhead
"

echo "==> explain smoke (cap: ${OBS_TIMEOUT}s)"
# Post-run forensics round-trip (docs/explain.md): EXPLAIN ANALYZE a
# seed query, validate the JSON report as the fourth schema-checked
# file kind, and self-diff it — a report diffed against itself must
# classify zero differences, so the --gate exit code is the assertion.
timeout --kill-after=30 "$OBS_TIMEOUT" sh -ec "
    python -m repro explain analyze \"\$(ls '$OBS_TMP'/q/*.graph | head -1)\" \
        '$OBS_TMP/yeast.graph' --limit 1000 \
        --json '$OBS_TMP/explain.json' >/dev/null
    python scripts/check_metrics_schema.py '$OBS_TMP/explain.json'
    python -m repro explain diff '$OBS_TMP/explain.json' \
        '$OBS_TMP/explain.json' --gate \
        | grep -q '0 per-vertex difference(s), 0 regression(s)'
"

echo "==> perf gate: smoke bench vs BENCH_0.json (cap: ${BENCH_TIMEOUT}s)"
# Re-run the smoke-profile benchmark, write a fresh manifest, validate
# both against the manifest schema, then diff: deterministic counters
# (recursive calls, candidate sizes, solved counts) must not regress
# beyond threshold vs the committed baseline; wall clock never gates
# (docs/benchmarks.md).
timeout --kill-after=30 "$BENCH_TIMEOUT" sh -ec "
    python -m repro bench run --profile smoke --figures fig10 \
        --out '$OBS_TMP' --metrics-out '$OBS_TMP/bench_events.jsonl' --quiet
    python scripts/check_metrics_schema.py BENCH_0.json \
        '$OBS_TMP/BENCH_0.json' '$OBS_TMP/bench_events.jsonl'
    python -m repro bench compare BENCH_0.json '$OBS_TMP/BENCH_0.json' --gate
"

echo "==> benchmark input self-test (cap: ${SELFTEST_TIMEOUT}s)"
# The repository benchmark (BENCHMARK.json, perfbench/) draws its inputs
# from repro.workloads and repro.datasets: the same seed must give
# identical inputs and another seed different ones, or its runs stop
# being comparable across commits.
timeout --kill-after=30 "$SELFTEST_TIMEOUT" python3 perfbench/selftest.py

echo "==> CI green"
