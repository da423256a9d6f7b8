"""Self-test of the benchmark's input generation.

Checks, for every workload, that the same seed gives identical inputs
and a different seed gives different ones.  Run from the repository
root (about a minute; the pools pass the oracle's admission check):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.datasets import registry  # noqa: E402
from repro.graph.io import read_cfl  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

#: Operations whose inputs are fingerprinted per workload.
OPS = 30


def graph_text(graph) -> str:
    return f"{list(graph.labels)}|{sorted(graph.edges())}"


def fingerprint(workload) -> str:
    """Digest of everything the workload will hand the program."""
    parts = [f"{j}:{graph_text(q)}" for j, q in (workload.request(i) for i in range(OPS))]
    if isinstance(workload, workloads.DynamicChurn):
        parts.append(repr(workload.subscribed))
        parts += [repr(workload.batch(k).deltas) for k in range(OPS)]
    else:
        parts += [repr(batch.deltas) for batch, _mix in workload._probe_batches()]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def main() -> int:
    failures = 0
    for name, cls in workloads.WORKLOADS.items():
        registry.load(cls.dataset)
        spec = registry.SPECS[cls.dataset]
        data = read_cfl(
            registry.cache_directory() / f"{cls.dataset}-g{registry.GENERATOR_VERSION}-s{spec.seed}.graph"
        )
        plain = inputs.PlainGraph(data)
        first, again, other = (fingerprint(cls(seed, None, plain, data)) for seed in (7, 7, 8))
        same_ok = first == again
        differ_ok = first != other
        failures += (not same_ok) + (not differ_ok)
        print(
            f"{name}: same seed identical: {'ok' if same_ok else 'FAIL'}; "
            f"other seed differs: {'ok' if differ_ok else 'FAIL'}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
