"""Process-backend scale-out: thread pool vs process pool on CPU-bound load.

The workload is the process backend's target case: every request carries a
*distinct* payload (no cache hits, no coalescing) and the tables are big
enough that execution is CPU-bound. The thread backend serializes on the
GIL between wavefront spans; the process backend runs the same requests in
parallel worker processes and ships tables back zero-copy through shared
memory. Acceptance: >= 2x sustained throughput on the minimums when the
process may use >= 4 cores (its affinity set, not the machine's core
count), bit-identical tables either way, and zero leaked shared-memory
segments or worker processes after ``close()``.

With fewer usable cores (CI containers are often 1-2) the throughput gate
is informational only — parallel speedup cannot exceed the core count — but
every correctness invariant still applies.

Run standalone (CI smoke)::

    python benchmarks/bench_process_scaleout.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import gc
import os
import sys

import numpy as np

import _harness
from repro import Framework
from repro.machine.platform import hetero_high
from repro.problems import make_lcs, make_levenshtein
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.serve.shm import live_segment_count

TARGET_RATIO = 2.0
MIN_CORES_FOR_GATE = 4


def _checksums(results) -> list[int]:
    return [int(np.int64(r.table.sum())) for r in results]


def _drain(svc: SolveService, problems: list) -> list:
    pending = [svc.submit(SolveRequest(p)) for p in problems]
    return [p.result() for p in pending]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def measure(quick: bool, reps: int) -> dict:
    cores = _harness.host()["affinity_cores"]
    workers = max(2, min(4, cores))
    size = 96 if quick else 192
    n = 12 if quick else 32
    makers = (make_levenshtein, make_lcs)
    problems = [makers[k % len(makers)](size, seed=k) for k in range(n)]
    oracle = _checksums(Framework(hetero_high()).solve(p, executor="sequential")
                        for p in problems)

    services = {
        backend: SolveService(hetero_high(), config=ServiceConfig(
            backend=backend, workers=workers, cache_size=0,
            queue_size=n + 8,
        ))
        for backend in ("thread", "process")
    }
    try:
        timings, results = _harness.time_arms(
            {b: (lambda svc=svc: _drain(svc, problems))
             for b, svc in services.items()},
            reps,
        )
        pids = list(services["process"].stats()["backend"].get("pids", {})
                    .values())
        identical = all(_checksums(r) == oracle for r in results.values())
        del results  # shm-backed tables must not outlive close()
    finally:
        for svc in services.values():
            svc.close()
    gc.collect()

    return {
        "workers": workers,
        "gate_active": cores >= MIN_CORES_FOR_GATE,
        "target_ratio": TARGET_RATIO,
        "workloads": [{
            "workload": f"{n} distinct-payload requests (size {size})",
            "arms": timings,
            **_harness.speedup(timings, "thread", "process"),
            "bit_identical": identical,
        }],
        "leaked_segments": live_segment_count(),
        "leaked_processes": [pid for pid in pids if _alive(pid)],
    }


def report(r: dict) -> list[str]:
    w = r["workloads"][0]
    gate = (f"target >= {TARGET_RATIO}x" if r["gate_active"]
            else f"informational — {r['host']['affinity_cores']} core(s) < "
                 f"{MIN_CORES_FOR_GATE}, gate inactive")
    return [
        f"  {r['workers']} workers per backend; {gate}",
        f"  bit-identical: {w['bit_identical']}   leaked segments: "
        f"{r['leaked_segments']}   leaked processes: "
        f"{len(r['leaked_processes'])}",
    ]


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    w = r["workloads"][0]
    if not w["bit_identical"]:
        return "backend tables diverged from the oracle"
    if r["leaked_segments"] != 0:
        return "shm segments survived close()"
    if r["leaked_processes"]:
        return "worker processes survived close()"
    if r["gate_active"] and w["ratio"] < TARGET_RATIO:
        return (
            f"process/thread throughput ratio {w['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar on "
            f"{r['host']['affinity_cores']} cores"
        )
    return None


def test_process_backend_scales_out():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
