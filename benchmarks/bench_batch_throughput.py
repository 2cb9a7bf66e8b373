"""Batched fleet solving vs per-instance serving: the >= 2x throughput gate.

The workload is the batching subsystem's motivating fleet: 64 Levenshtein
instances of identical 128x128 geometry but distinct string payloads (one
seed each) — batch-compatible by :func:`repro.batch.batch_key`, yet never
cache-equal, so the result cache cannot help either side.

Three arms drain the fleet:

* **serve** — the per-instance baseline: a ``SolveService`` worker pool
  with coalescing off, one framework run per request;
* **coalesced** — the same service with a coalescing window: workers drain
  compatible queued requests into stacked batch executions;
* **solve_many** — the direct programmatic path, no service in between.

The acceptance bar is **batched >= 2x per-instance serving** throughput
(``TARGET_RATIO``) on the minimums, checked for the coalesced service.
Tables from every arm are verified bit-identical against plain ``solve``
calls. Results also land in ``BENCH_batch.json`` at the repo root.

Run standalone (CI smoke)::

    python benchmarks/bench_batch_throughput.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import sys

import numpy as np

import _harness
from repro import Framework
from repro.machine.platform import hetero_high
from repro.problems import make_levenshtein
from repro.serve import ServiceConfig, SolveRequest, SolveService

ROOT_JSON = "BENCH_batch.json"
TARGET_RATIO = 2.0
WORKERS = 4


def _drain(svc: SolveService, problems: list) -> list:
    pending = [svc.submit(SolveRequest(p)) for p in problems]
    return [p.result() for p in pending]


def measure(quick: bool, reps: int) -> dict:
    n = 32 if quick else 64
    size = 64 if quick else 128
    fleet = [make_levenshtein(size, seed=s) for s in range(n)]
    fw = Framework(hetero_high())
    oracle = [fw.solve(p).table for p in fleet]
    solo = ServiceConfig(workers=WORKERS, queue_size=n + 8, cache_size=0)
    coal = solo.replace(coalesce_window=0.02, max_batch=n)
    with SolveService(hetero_high(), config=solo) as solo_svc, \
            SolveService(hetero_high(), config=coal) as coal_svc:
        timings, results = _harness.time_arms({
            "serve": lambda: _drain(solo_svc, fleet),
            "coalesced": lambda: _drain(coal_svc, fleet),
            "solve_many": lambda: fw.solve_many(fleet, max_batch=n),
        }, reps)
    return {
        "target_ratio": TARGET_RATIO,
        "workers": WORKERS,
        "workloads": [{
            "workload": f"{n} x levenshtein-{size} (distinct payloads)",
            "arms": timings,
            **_harness.speedup(timings, "serve", "coalesced"),
            "solve_many_ratio": _harness.speedup(
                timings, "serve", "solve_many")["ratio"],
            "coalesced_requests": sum(
                1 for r in results["coalesced"] if r.stats.get("batched", 0) > 1
            ),
            "bit_identical": all(
                np.array_equal(o, r.table)
                for arm in results.values() for o, r in zip(oracle, arm)
            ),
        }],
    }


def report(r: dict) -> list[str]:
    w = r["workloads"][0]
    return [
        f"  {r['workers']} workers; {w['coalesced_requests']} coalesced "
        f"requests batched; serve/solve_many {w['solve_many_ratio']:.2f}x; "
        f"target serve/coalesced >= {TARGET_RATIO}x; tables "
        f"{'bit-identical' if w['bit_identical'] else 'DIFFER'}"
    ]


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    w = r["workloads"][0]
    if not w["bit_identical"]:
        return "batched tables must match per-instance solves"
    if w["ratio"] < TARGET_RATIO:
        return (
            f"coalesced/per-instance throughput ratio {w['ratio']:.2f}x "
            f"below the {TARGET_RATIO}x acceptance bar"
        )
    return None


def test_batched_doubles_serving_throughput():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
