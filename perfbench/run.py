"""Repository benchmark: end-to-end and per-layer metrics of DAF serving.

Run from the repository root:

    python3 perfbench/run.py --workload cold-oneshot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
reports the per-layer metrics from a separate traced pass.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run record (inputs, environment, tail percentiles, sample counts).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: Candidate tail percentiles; the highest with >= 10 samples beyond it
#: is reported.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_MIN_BEYOND = 10
OUT_DIR = ROOT / ".perfbench_out"


def tail(samples: list[float], cap: float) -> tuple[float, float]:
    """(value, percentile) at the highest ladder percentile up to ``cap``
    with at least :data:`TAIL_MIN_BEYOND` samples beyond it
    (nearest-rank); the maximum when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (ordered[-1], 100.0) if n else (0.0, 0.0)
    for p in (p for p in TAIL_LADDER if p <= cap):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (ordered[rank - 1], p)
    return best


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(op, tracer=None):
    """Time one operation (its check is not timed): ``(kind, seconds, ok)``."""
    if tracer is not None:
        tracer.request += 1
        tracer.active = True
        root = tracer.open("bench.op")
    start = time.perf_counter()
    error = None
    try:
        result = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        error = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        return op.kind, seconds, False
    return op.kind, seconds, op.check(result)


def run_ops(ops, budget_s=None, count=None, tracer=None, boundary=None, probes=()):
    """Closed loop over ``ops`` (an iterator of :class:`workloads.Op`).

    Stops after ``count`` operations, or once their summed time reaches
    ``budget_s`` at an operation where ``boundary(i)`` holds (the start
    of a whole cycle of the workload's request mix, so every run serves
    the same mix).  ``probes`` run between the operations, spread evenly
    over the budget, so that they sample the machine over the whole run;
    their time does not count toward the budget.  Returns
    ``(records, probe_records)``, each a list of ``(kind, seconds, ok)``.
    """
    probes = list(probes)
    records, probe_records = [], []
    busy = 0.0
    for i, op in enumerate(ops):
        while len(probe_records) < len(probes) and busy >= (len(probe_records) + 0.5) * budget_s / len(probes):
            probe_records.append(run_op(probes[len(probe_records)]))
        if count is not None and i >= count:
            break
        if (
            budget_s is not None
            and busy >= budget_s
            and len(probe_records) == len(probes)
            and (boundary is None or boundary(i))
        ):
            break
        record = run_op(op, tracer)
        busy += record[1]
        records.append(record)
    return records, probe_records


def indexed_ops(workload, ctx):
    i = 0
    while True:
        yield workload.op(ctx, i)
        i += 1


def setup_pass(workload, tracer=None) -> tuple[dict, float]:
    ctx = workload.new_context()
    gc.collect()
    if tracer is not None:
        tracer.active = True
        root = tracer.open("bench.op")
    start = time.perf_counter()
    workload.setup(ctx, tracer)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
    workload.after_setup(ctx)
    gc.collect()
    return ctx, seconds


def end_to_end(workload, seconds: float):
    """Untraced run: the median of several setups, then the timed loop
    with the update probe interleaved.  Returns (metrics, detail,
    records, context)."""
    setups = []
    for _ in range(workload.SETUP_REPEATS):
        workload.contexts.clear()  # only the last setup's pass is checked
        ctx, setup_s = setup_pass(workload)
        setups.append(setup_s)
    probes = workload.probe_ops(ctx)
    timed, probe = run_ops(
        indexed_ops(workload, ctx), budget_s=seconds, boundary=workload.boundary, probes=probes
    )
    workload.timed_done(ctx)
    rss = peak_rss_mb()
    records = timed + probe
    match = [s for kind, s, _ok in timed if kind == "match"]
    update = [s for kind, s, _ok in records if kind == "update"]
    timed_busy = sum(s for _k, s, _ok in timed)
    lat_tail, lat_p = tail(match, workload.TAIL_CAP["match"])
    upd_tail, upd_p = tail(update, workload.TAIL_CAP["update"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1000 * statistics.median(match), "ms"),
        "latency_tail_ms": (1000 * lat_tail, "ms"),
        "queries_per_s": (len(match) / timed_busy, "1/s"),
        "update_p50_ms": (1000 * statistics.median(update), "ms"),
        "update_tail_ms": (1000 * upd_tail, "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    detail = {
        "setup_s_samples": setups,
        "match_requests": len(match),
        "latency_tail_percentile": lat_p,
        "updates": len(update),
        "update_tail_percentile": upd_p,
        "update_source": "update probe" if probe else "timed loop",
        "timed_busy_s": timed_busy,
    }
    return metrics, detail, records, ctx


def traced(workload, seconds: float):
    """Per-layer run: an untraced pass for ``seconds / 2``, then a traced
    setup and the same operations traced; the difference in mean
    operation time is the tracing overhead."""
    import tracing

    ctx_u, _ = setup_pass(workload)
    untraced, _ = run_ops(indexed_ops(workload, ctx_u), budget_s=seconds / 2)
    tracer = tracing.install(tracing.Tracer())
    try:
        tracer.set_phase("setup")
        ctx_t, _ = setup_pass(workload, tracer)
        tracer.set_phase("timed")
        traced_records, _ = run_ops(
            indexed_ops(workload, ctx_t), count=len(untraced), tracer=tracer
        )
        workload.timed_done(ctx_t)
    finally:
        tracer.uninstall()
    n = len(traced_records)
    match_ops = sum(1 for kind, _s, _ok in traced_records if kind == "match")
    update_ops = n - match_ops
    layer = tracing.layer_metrics(tracer, n, match_ops, update_ops)
    mean_u = statistics.fmean(s for _k, s, _ok in untraced)
    mean_t = statistics.fmean(s for _k, s, _ok in traced_records)
    layer["trace.overhead_ms"] = 1000 * (mean_t - mean_u)
    layer["trace.overhead_share"] = (mean_t - mean_u) / mean_u
    layer["bench.match_ops"] = match_ops
    layer["bench.update_ops"] = update_ops
    detail = {
        "layer_shares": tracing.layer_shares(tracer),
        "spans": len(tracer.spans),
        "local_filter_sampled_calls": tracer.local_sampled,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-s{workload.seed}-spans.jsonl"
    with open(spans_path, "w") as out:
        fields = ("name", "start", "end", "parent", "request", "phase")
        for span in tracer.spans:
            out.write(json.dumps(dict(zip(fields, span[:6]))) + "\n")
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    layer["service.cache.hit_rate"] = workload.timed_cache(ctx_t)["hit_share"]
    metrics = {name: (layer[name], unit) for name, unit in tracing.UNITS.items()}
    return metrics, detail, untraced + traced_records, ctx_t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from repro.datasets import registry
    from repro.graph.io import read_cfl
    import inputs
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    # Fill the dataset cache, then give the oracle and the input generator
    # their own graph object read from the cache file, as the program's is
    # (a freshly generated graph carries other label types than a read
    # one).  All of it happens before anything is timed.
    registry.load(cls.dataset)
    spec = registry.SPECS[cls.dataset]
    data_path = registry.cache_directory() / f"{cls.dataset}-g{registry.GENERATOR_VERSION}-s{spec.seed}.graph"
    oracle_data = read_cfl(data_path)
    plain = inputs.PlainGraph(oracle_data)
    workload = cls(args.seed, data_path, plain, oracle_data)
    # The benchmark's own objects (the oracle's graph, the input
    # generator's copies, the query pools) outweigh the program's heap.
    # Move them out of the collector's reach, so a full collection during
    # a timed operation traverses what a process holding only the
    # program would: otherwise it lands on about one update in three and
    # splits update times into two clusters.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, detail, records, ctx = traced(workload, args.seconds)
    else:
        metrics, detail, records, ctx = end_to_end(workload, args.seconds)

    inline_failures = sum(1 for _k, _s, ok in records if not ok)
    try:
        problems = workload.verify()
    except oracle.OracleError as exc:
        problems = [f"answer check incomplete: {exc}"]
    for problem in problems:
        print("answer mismatch:", problem, file=sys.stderr)
    attempted = len(records)
    failed = min(attempted, inline_failures + len(problems))
    data = ctx["data"] if "data" in ctx else ctx["session"].data
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "dataset": {
            "name": cls.dataset,
            "V": oracle_data.num_vertices,
            "E": oracle_data.num_edges,
            "labels": oracle_data.num_labels,
        },
        "data_indexed": data.cached_index is not None,
        "inputs": workload.inputs_record(ctx),
        "cache": workload.timed_cache(ctx),
        "failed_share": failed / attempted,
        "environment": environment(),
        **detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
