"""Serve-layer throughput: warm result cache vs cold on a repeated mix.

The workload models production traffic: many requests drawn from a small set
of distinct problems (four classic DP workloads, several repeats each). The
cold pass runs every request through a cache-disabled service; the warm pass
runs the same mix through a service whose cache has seen each distinct
problem once. The acceptance bar for the serve subsystem is a >= 2x
sustained-throughput win for the warm cache — in practice the ratio is far
higher, since a cache hit costs one hash lookup plus a table copy.

Run standalone (CI smoke)::

    python benchmarks/bench_serve_throughput.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.machine.platform import hetero_high
from repro.problems import make_dtw, make_lcs, make_levenshtein, make_needleman_wunsch
from repro.serve import ServiceConfig, SolveRequest, SolveService

RESULTS_DIR = Path(__file__).parent / "results"
MAKERS = (make_levenshtein, make_lcs, make_dtw, make_needleman_wunsch)
TARGET_RATIO = 2.0


def _workload(n: int, size: int) -> list:
    """``n`` requests cycling over the distinct problem mix."""
    return [MAKERS[k % len(MAKERS)](size) for k in range(n)]


def _drain(svc: SolveService, problems: list) -> float:
    """Submit everything, wait for everything; returns elapsed seconds."""
    t0 = time.perf_counter()
    pending = [svc.submit(SolveRequest(p)) for p in problems]
    for p in pending:
        p.result()
    return time.perf_counter() - t0


def measure(quick: bool = False, workers: int = 4) -> dict:
    size = 48 if quick else 160
    n = 24 if quick else 64

    with SolveService(hetero_high(), config=ServiceConfig(workers=workers, queue_size=n + 8,
                      cache_size=0)) as cold_svc:
        cold_s = _drain(cold_svc, _workload(n, size))

    with SolveService(hetero_high(), config=ServiceConfig(workers=workers, queue_size=n + 8,
                      cache_size=64)) as warm_svc:
        _drain(warm_svc, _workload(len(MAKERS), size))  # pre-warm: one of each
        hits0, misses0 = warm_svc.cache.hits, warm_svc.cache.misses
        warm_s = _drain(warm_svc, _workload(n, size))
        hits = warm_svc.cache.hits - hits0
        misses = warm_svc.cache.misses - misses0

    return {
        "requests": n,
        "size": size,
        "workers": workers,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_rps": n / cold_s,
        "warm_rps": n / warm_s,
        "ratio": cold_s / warm_s,
        "warm_hits": hits,
        "warm_misses": misses,
    }


def report(r: dict) -> str:
    return "\n".join([
        f"serve throughput — {r['requests']} requests over "
        f"{len(MAKERS)} problems (size {r['size']}), {r['workers']} workers",
        f"  cold (cache off) : {r['cold_s']:8.3f} s  {r['cold_rps']:8.1f} req/s",
        f"  warm (cache hit) : {r['warm_s']:8.3f} s  {r['warm_rps']:8.1f} req/s",
        f"  speedup          : {r['ratio']:8.2f}x  "
        f"(target >= {TARGET_RATIO}x; warm pass: {r['warm_hits']} hits / "
        f"{r['warm_misses']} misses)",
    ])


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    if r["warm_misses"] != 0:
        return "warm pass should be all cache hits"
    if r["ratio"] < TARGET_RATIO:
        return (
            f"warm/cold throughput ratio {r['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar"
        )
    return None


def test_warm_cache_doubles_throughput():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve_throughput.txt").write_text(report(r) + "\n")
    failure = _gate(r)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes and request counts (CI smoke)")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    r = measure(quick=args.quick, workers=args.workers)
    text = report(r)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve_throughput.txt").write_text(text + "\n")
    failure = _gate(r)
    if failure is not None:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
