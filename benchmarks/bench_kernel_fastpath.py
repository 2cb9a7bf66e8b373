"""Kernel-plan fast path vs the generic masked span path.

The acceptance bar for the kernel subsystem (:mod:`repro.kernels`) is a hard
>= 3x warm-plan speedup of the full functional sweep on a 512x512
Levenshtein — the canonical LDDP workload, whose anti-diagonal wavefronts
the plan turns into pure strided views — with tables bit-for-bit identical
to the sequential oracle. A horizontal-pattern workload (prefix sums: rows
become contiguous slices) is reported alongside for the trajectory.

Timings are min-of-N full sweeps through ``evaluate_span`` with the plan
cache warm vs the same sweeps with ``fastpath=False``. Results land in
``benchmarks/results/kernel_fastpath.txt`` and — the perf trajectory the
ROADMAP asks for — in ``BENCH_kernels.json`` at the repo root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_kernel_fastpath.py

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

from repro.exec.base import evaluate_span
from repro.kernels import get_plan_cache, plan_for
from repro.patterns.registry import strategy_for
from repro.problems import make_levenshtein, make_prefix_sum

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
TARGET_RATIO = 3.0


def _sweep(problem, schedule, fastpath: bool) -> tuple[float, np.ndarray]:
    """One full functional sweep; returns (seconds, finished table)."""
    table = problem.make_table()
    aux = problem.make_aux()
    widths = schedule.widths()
    t0 = time.perf_counter()
    for t in range(schedule.num_iterations):
        if widths[t]:
            evaluate_span(problem, schedule, table, aux, t, fastpath=fastpath)
    return time.perf_counter() - t0, table


def _best_of(problem, schedule, fastpath: bool, reps: int) -> tuple[float, np.ndarray]:
    best, table = _sweep(problem, schedule, fastpath)
    for _ in range(reps - 1):
        s, table = _sweep(problem, schedule, fastpath)
        best = min(best, s)
    return best, table


def _oracle_table(problem, schedule) -> np.ndarray:
    """Sequential oracle: batch-of-one spans through the generic path."""
    table = problem.make_table()
    aux = problem.make_aux()
    for t in range(schedule.num_iterations):
        for k in range(schedule.width(t)):
            evaluate_span(problem, schedule, table, aux, t, k, k + 1,
                          fastpath=False)
    return table


def _measure_one(name: str, problem, reps: int, oracle: bool) -> dict:
    schedule = strategy_for(problem).schedule
    generic_s, generic_table = _best_of(problem, schedule, False, reps)
    _sweep(problem, schedule, True)  # warm the plan cache
    plan = plan_for(problem, schedule)
    warm_s, warm_table = _best_of(problem, schedule, True, reps)
    bit_identical = bool(np.array_equal(warm_table, generic_table))
    if oracle:
        bit_identical = bit_identical and bool(
            np.array_equal(warm_table, _oracle_table(problem, schedule))
        )
    return {
        "workload": name,
        "table_shape": list(problem.shape),
        "pattern": schedule.pattern.value,
        "wavefronts": schedule.num_iterations,
        "generic_s": generic_s,
        "warm_s": warm_s,
        "ratio": generic_s / warm_s,
        "bit_identical": bit_identical,
        "span_modes": plan.span_modes() if plan is not None else {},
    }


def measure(quick: bool = False, reps: int = 5) -> dict:
    size = 256 if quick else 512
    cache = get_plan_cache()
    results = [
        _measure_one(f"levenshtein-{size}", make_levenshtein(size), reps,
                     oracle=True),
        _measure_one(f"prefix-sum-{size}", make_prefix_sum(size), reps,
                     oracle=False),
    ]
    return {
        "benchmark": "kernel_fastpath",
        "target_ratio": TARGET_RATIO,
        "reps": reps,
        "plan_cache": {"size": len(cache), "hits": cache.hits,
                       "misses": cache.misses},
        "workloads": results,
    }


def report(r: dict) -> str:
    lines = [
        f"kernel fast path — warm compiled plans vs generic spans "
        f"(min of {r['reps']} sweeps, target >= {r['target_ratio']}x)"
    ]
    for w in r["workloads"]:
        lines.append(
            f"  {w['workload']:<18} {w['pattern']:<14} "
            f"generic {w['generic_s'] * 1e3:8.2f} ms   "
            f"warm {w['warm_s'] * 1e3:7.2f} ms   "
            f"{w['ratio']:5.2f}x   "
            f"bit-identical: {w['bit_identical']}"
        )
    c = r["plan_cache"]
    lines.append(
        f"  plan cache: {c['size']} plans, {c['hits']} hits / "
        f"{c['misses']} misses"
    )
    return "\n".join(lines)


def _write_outputs(r: dict, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "kernel_fastpath.txt").write_text(text + "\n")
    (REPO_ROOT / "BENCH_kernels.json").write_text(
        json.dumps(r, indent=2) + "\n"
    )


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    lev = r["workloads"][0]
    if not lev["bit_identical"]:
        return "fast-path table differs from the oracle"
    if lev["ratio"] < TARGET_RATIO:
        return (
            f"warm-plan speedup {lev['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar on {lev['workload']}"
        )
    return None


def test_kernel_fastpath_speedup():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    _write_outputs(r, report(r))
    failure = _gate(r)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller table (256) for fast iteration")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    r = measure(quick=args.quick, reps=args.reps)
    text = report(r)
    print(text)
    _write_outputs(r, text)
    failure = _gate(r)
    if failure is not None:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
