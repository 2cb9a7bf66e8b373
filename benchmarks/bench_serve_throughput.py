"""Serve-layer throughput: warm result cache vs cold on a repeated mix.

The workload models production traffic: many requests drawn from a small set
of distinct problems (four classic DP workloads, several repeats each). The
cold arm runs every request through a cache-disabled service; the warm arm
runs the same mix through a service whose cache has seen each distinct
problem once. The acceptance bar for the serve subsystem is a >= 2x
sustained-throughput win for the warm cache on the minimums, with no cache
miss in the warm arm — in practice the ratio is far higher, since a cache
hit costs one hash lookup plus a table copy.

Run standalone (CI smoke)::

    python benchmarks/bench_serve_throughput.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import sys

import _harness
from repro.machine.platform import hetero_high
from repro.problems import make_dtw, make_lcs, make_levenshtein, make_needleman_wunsch
from repro.serve import ServiceConfig, SolveRequest, SolveService

MAKERS = (make_levenshtein, make_lcs, make_dtw, make_needleman_wunsch)
TARGET_RATIO = 2.0
WORKERS = 4


def _drain(svc: SolveService, problems: list) -> list:
    pending = [svc.submit(SolveRequest(p)) for p in problems]
    return [p.result() for p in pending]


def measure(quick: bool, reps: int) -> dict:
    size = 48 if quick else 160
    n = 24 if quick else 64
    mix = [MAKERS[k % len(MAKERS)](size) for k in range(n)]
    cold = ServiceConfig(workers=WORKERS, queue_size=n + 8, cache_size=0)
    with SolveService(hetero_high(), config=cold) as cold_svc, \
            SolveService(hetero_high(), config=cold.replace(cache_size=64)) as warm_svc:
        _drain(warm_svc, mix[:len(MAKERS)])  # the cache sees each problem once
        hits0, misses0 = warm_svc.cache.hits, warm_svc.cache.misses
        timings, _ = _harness.time_arms({
            "cold": lambda: _drain(cold_svc, mix),
            "warm": lambda: _drain(warm_svc, mix),
        }, reps)
        hits = warm_svc.cache.hits - hits0
        misses = warm_svc.cache.misses - misses0
    return {
        "target_ratio": TARGET_RATIO,
        "workers": WORKERS,
        "workloads": [{
            "workload": f"{n} requests over {len(MAKERS)} problems "
                        f"(size {size})",
            "arms": timings,
            **_harness.speedup(timings, "cold", "warm"),
            "warm_hits": hits,
            "warm_misses": misses,
        }],
    }


def report(r: dict) -> list[str]:
    w = r["workloads"][0]
    return [
        f"  {r['workers']} workers; target cold/warm >= {TARGET_RATIO}x; "
        f"warm arm: {w['warm_hits']} hits / {w['warm_misses']} misses"
    ]


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    w = r["workloads"][0]
    if w["warm_misses"] != 0:
        return "warm arm should be all cache hits"
    if w["ratio"] < TARGET_RATIO:
        return (
            f"warm/cold throughput ratio {w['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar"
        )
    return None


def test_warm_cache_doubles_throughput():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
