"""Process-backend scale-out: thread pool vs process pool on CPU-bound load.

The workload is the process backend's target case: every request carries a
*distinct* payload (no cache hits, no coalescing) and the tables are big
enough that execution is CPU-bound. The thread backend serializes on the
GIL between wavefront spans; the process backend runs the same requests in
parallel worker processes and ships tables back zero-copy through shared
memory. Acceptance (ISSUE 7): >= 2x sustained throughput on a >= 4-core
machine, bit-identical tables either way, and zero leaked shared-memory
segments or worker processes after ``close()``.

On smaller machines (this repo's CI containers are often 1-2 cores) the
throughput gate is informational only — parallel speedup cannot exceed the
core count — but every correctness invariant still applies.

Run standalone (CI smoke)::

    python benchmarks/bench_process_scaleout.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import Framework
from repro.machine.platform import hetero_high
from repro.problems import make_lcs, make_levenshtein
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.serve.shm import live_segment_count

RESULTS_DIR = Path(__file__).parent / "results"
TARGET_RATIO = 2.0
MIN_CORES_FOR_GATE = 4


def _workload(n: int, size: int) -> list:
    """``n`` CPU-bound requests, every payload distinct (seed = index)."""
    makers = (make_levenshtein, make_lcs)
    return [makers[k % len(makers)](size, seed=k) for k in range(n)]


def _drain(svc: SolveService, problems: list) -> tuple[float, list]:
    t0 = time.perf_counter()
    pending = [svc.submit(SolveRequest(p)) for p in problems]
    results = [p.result() for p in pending]
    return time.perf_counter() - t0, results


def _run_backend(backend: str, workers: int, problems: list) -> dict:
    cfg = ServiceConfig(backend=backend, workers=workers, cache_size=0,
                        queue_size=len(problems) + 8)
    svc = SolveService(hetero_high(), config=cfg)
    try:
        _drain(svc, problems[:workers])  # warm plan caches / spawn workers
        elapsed, results = _drain(svc, problems)
        pids = dict(svc.stats()["backend"].get("pids", {}))
        checksums = [int(np.int64(r.table.sum())) for r in results]
    finally:
        del results
        svc.close()
    gc.collect()
    return {
        "backend": backend,
        "elapsed_s": elapsed,
        "rps": len(problems) / elapsed,
        "checksums": checksums,
        "pids": pids,
    }


def measure(quick: bool = False, workers: int | None = None) -> dict:
    cores = os.cpu_count() or 1
    if workers is None:
        workers = max(2, min(4, cores))
    size = 96 if quick else 192
    n = 12 if quick else 32
    problems = _workload(n, size)

    # sequential oracle: the bit-identity reference for both backends
    oracle = Framework(hetero_high())
    oracle_sums = [
        int(np.int64(oracle.solve(p, executor="sequential").table.sum()))
        for p in problems
    ]

    thread = _run_backend("thread", workers, problems)
    process = _run_backend("process", workers, problems)

    leaked_segments = live_segment_count()
    leaked_processes = []
    for pid in process["pids"].values():
        try:
            os.kill(pid, 0)
        except OSError:
            pass
        else:
            leaked_processes.append(pid)

    return {
        "cores": cores,
        "workers": workers,
        "requests": n,
        "size": size,
        "gate_active": cores >= MIN_CORES_FOR_GATE,
        "target_ratio": TARGET_RATIO,
        "thread_s": thread["elapsed_s"],
        "process_s": process["elapsed_s"],
        "thread_rps": thread["rps"],
        "process_rps": process["rps"],
        "ratio": thread["elapsed_s"] / process["elapsed_s"],
        "bit_identical": (thread["checksums"] == oracle_sums
                          and process["checksums"] == oracle_sums),
        "leaked_segments": leaked_segments,
        "leaked_processes": leaked_processes,
    }


def report(r: dict) -> str:
    gate = (f"target >= {r['target_ratio']}x"
            if r["gate_active"]
            else f"informational — {r['cores']} core(s) < "
                 f"{MIN_CORES_FOR_GATE}, gate inactive")
    return "\n".join([
        f"process scale-out — {r['requests']} distinct-payload requests "
        f"(size {r['size']}), {r['workers']} workers, {r['cores']} cores",
        f"  thread backend  : {r['thread_s']:8.3f} s  "
        f"{r['thread_rps']:8.1f} req/s",
        f"  process backend : {r['process_s']:8.3f} s  "
        f"{r['process_rps']:8.1f} req/s",
        f"  speedup         : {r['ratio']:8.2f}x  ({gate})",
        f"  bit-identical   : {r['bit_identical']}   leaked segments: "
        f"{r['leaked_segments']}   leaked processes: "
        f"{len(r['leaked_processes'])}",
    ])


def _write(r: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "process_scaleout.txt").write_text(report(r) + "\n")
    (RESULTS_DIR / "process_scaleout.json").write_text(
        json.dumps(r, indent=2, sort_keys=True) + "\n"
    )


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    if not r["bit_identical"]:
        return "backend tables diverged from the oracle"
    if r["leaked_segments"] != 0:
        return "shm segments survived close()"
    if r["leaked_processes"]:
        return "worker processes survived close()"
    if r["gate_active"] and r["ratio"] < TARGET_RATIO:
        return (
            f"process/thread throughput ratio {r['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar on {r['cores']} cores"
        )
    return None


def test_process_backend_scales_out():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    _write(r)
    failure = _gate(r)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes and request counts (CI smoke)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for both backends "
                             "(default: min(4, cores), at least 2)")
    args = parser.parse_args(argv)

    r = measure(quick=args.quick, workers=args.workers)
    text = report(r)
    print(text)
    _write(r)
    failure = _gate(r)
    if failure is not None:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
