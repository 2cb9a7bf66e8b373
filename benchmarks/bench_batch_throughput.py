"""Batched fleet solving vs per-instance serving: the >= 2x throughput gate.

The workload is the batching subsystem's motivating fleet: 64 Levenshtein
instances of identical 128x128 geometry but distinct string payloads (one
seed each) — batch-compatible by :func:`repro.batch.batch_key`, yet never
cache-equal, so the result cache cannot help either side.

Three ways to drain the fleet are timed:

* **serve** — the per-instance baseline: a ``SolveService`` worker pool
  with coalescing off, one framework run per request (PR 2 semantics);
* **coalesced** — the same service with a coalescing window: workers drain
  compatible queued requests into stacked batch executions;
* **solve_many** — the direct programmatic path, no service in between.

The acceptance bar is **batched >= 2x per-instance serving** throughput
(``TARGET_RATIO``), checked for the coalesced service; results land in
``BENCH_batch.json`` at the repo root and ``benchmarks/results/``. Tables
from every path are verified bit-identical against plain ``solve`` calls.

Run standalone (CI smoke)::

    python benchmarks/bench_batch_throughput.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import Framework
from repro.machine.platform import hetero_high
from repro.problems import make_levenshtein
from repro.serve import ServiceConfig, SolveRequest, SolveService

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
TARGET_RATIO = 2.0


def _fleet(n: int, size: int) -> list:
    """``n`` same-geometry Levenshtein instances with distinct payloads."""
    return [make_levenshtein(size, seed=s) for s in range(n)]


def _drain(svc: SolveService, problems: list) -> tuple[float, list]:
    t0 = time.perf_counter()
    pending = [svc.submit(SolveRequest(p)) for p in problems]
    results = [p.result() for p in pending]
    return time.perf_counter() - t0, results


def measure(quick: bool = False, workers: int = 4) -> dict:
    n = 32 if quick else 64
    size = 64 if quick else 128
    fleet = _fleet(n, size)

    fw = Framework(hetero_high())
    oracle = [fw.solve(p).table for p in fleet]  # also warms the plan cache

    with SolveService(hetero_high(), config=ServiceConfig(workers=workers, queue_size=n + 8,
                      cache_size=0)) as svc:
        solo_s, solo_res = _drain(svc, fleet)

    with SolveService(hetero_high(), config=ServiceConfig(workers=workers, queue_size=n + 8,
                      cache_size=0, coalesce_window=0.02,
                      max_batch=n)) as svc:
        coal_s, coal_res = _drain(svc, fleet)

    t0 = time.perf_counter()
    many_res = fw.solve_many(fleet, max_batch=n)
    many_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(o, a.table) and np.array_equal(o, b.table)
        and np.array_equal(o, c.table)
        for o, a, b, c in zip(oracle, solo_res, coal_res, many_res)
    )
    batched = sum(
        1 for r in coal_res if r.stats.get("batched", 0) > 1
    )
    return {
        "benchmark": "batch_throughput",
        "target_ratio": TARGET_RATIO,
        "instances": n,
        "size": size,
        "workers": workers,
        "serve_s": solo_s,
        "coalesced_s": coal_s,
        "solve_many_s": many_s,
        "serve_rps": n / solo_s,
        "coalesced_rps": n / coal_s,
        "solve_many_rps": n / many_s,
        "ratio": solo_s / coal_s,
        "solve_many_ratio": solo_s / many_s,
        "coalesced_requests": batched,
        "bit_identical": identical,
    }


def report(r: dict) -> str:
    return "\n".join([
        f"batch throughput — {r['instances']} x levenshtein-{r['size']} "
        f"(distinct payloads), {r['workers']} workers",
        f"  serve, per-instance : {r['serve_s']:8.3f} s  "
        f"{r['serve_rps']:8.1f} solves/s",
        f"  serve, coalesced    : {r['coalesced_s']:8.3f} s  "
        f"{r['coalesced_rps']:8.1f} solves/s  "
        f"({r['coalesced_requests']}/{r['instances']} batched)",
        f"  solve_many          : {r['solve_many_s']:8.3f} s  "
        f"{r['solve_many_rps']:8.1f} solves/s",
        f"  speedup             : {r['ratio']:8.2f}x coalesced, "
        f"{r['solve_many_ratio']:.2f}x solve_many "
        f"(target >= {r['target_ratio']}x; tables "
        f"{'bit-identical' if r['bit_identical'] else 'DIFFER'})",
    ])


def _write(r: dict, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "batch_throughput.txt").write_text(text + "\n")
    (REPO_ROOT / "BENCH_batch.json").write_text(json.dumps(r, indent=2) + "\n")


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    if not r["bit_identical"]:
        return "batched tables must match per-instance solves"
    if r["ratio"] < TARGET_RATIO:
        return (
            f"coalesced/per-instance throughput ratio {r['ratio']:.2f}x "
            f"below the {TARGET_RATIO}x acceptance bar"
        )
    return None


def test_batched_doubles_serving_throughput():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    _write(r, report(r))
    failure = _gate(r)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller fleet (CI smoke); gate still applies")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    r = measure(quick=args.quick, workers=args.workers)
    text = report(r)
    print(text)
    _write(r, text)
    failure = _gate(r)
    if failure is not None:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
