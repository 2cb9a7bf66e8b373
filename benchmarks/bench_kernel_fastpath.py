"""Kernel-plan fast path vs the generic masked span path.

The acceptance bar for the kernel subsystem (:mod:`repro.kernels`) is a hard
>= 3x warm-plan speedup of the full functional sweep on a 512x512
Levenshtein — the canonical LDDP workload, whose anti-diagonal wavefronts
the plan turns into pure strided views — with tables bit-for-bit identical
to an independent oracle, the row-vectorized Wagner-Fischer table of
:func:`repro.problems.reference_levenshtein`. A horizontal-pattern workload
(prefix sums: rows become contiguous slices) is reported alongside for the
trajectory.

The two arms are full functional sweeps through ``evaluate_span``: with
``fastpath=False`` (generic) and with the plan cache warm (the warm arm's
untimed warm-up compiles the plan); the gate reads the ratio of the
minimums. Results also land in ``BENCH_kernels.json`` at the repo root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_kernel_fastpath.py

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import sys

import numpy as np

import _harness
from repro.exec.base import evaluate_span
from repro.kernels import get_plan_cache, plan_for
from repro.patterns.registry import strategy_for
from repro.problems import (
    make_levenshtein,
    make_prefix_sum,
    reference_levenshtein,
)

ROOT_JSON = "BENCH_kernels.json"
TARGET_RATIO = 3.0


def _sweep(problem, schedule, fastpath: bool) -> np.ndarray:
    """One full functional sweep; returns the finished table."""
    table = problem.make_table()
    aux = problem.make_aux()
    widths = schedule.widths()
    for t in range(schedule.num_iterations):
        if widths[t]:
            evaluate_span(problem, schedule, table, aux, t, fastpath=fastpath)
    return table


def _measure_one(name: str, problem, reps: int, oracle=None) -> dict:
    """Time both arms; ``oracle`` is an independent reference table."""
    schedule = strategy_for(problem).schedule
    timings, tables = _harness.time_arms({
        "generic": lambda: _sweep(problem, schedule, False),
        "warm": lambda: _sweep(problem, schedule, True),
    }, reps)
    plan = plan_for(problem, schedule)
    bit_identical = bool(np.array_equal(tables["warm"], tables["generic"]))
    if oracle is not None:
        bit_identical = bit_identical and bool(
            np.array_equal(tables["warm"], oracle)
        )
    return {
        "workload": name,
        "table_shape": list(problem.shape),
        "pattern": schedule.pattern.value,
        "wavefronts": schedule.num_iterations,
        "arms": timings,
        **_harness.speedup(timings, "generic", "warm"),
        "bit_identical": bit_identical,
        "span_modes": plan.span_modes() if plan is not None else {},
    }


def measure(quick: bool, reps: int) -> dict:
    size = 256 if quick else 512
    lev = make_levenshtein(size)
    oracle = reference_levenshtein(lev.payload["a"], lev.payload["b"])
    workloads = [
        _measure_one(f"levenshtein-{size}", lev, reps, oracle=oracle),
        _measure_one(f"prefix-sum-{size}", make_prefix_sum(size), reps),
    ]
    cache = get_plan_cache()
    return {
        "target_ratio": TARGET_RATIO,
        "plan_cache": {"size": len(cache), "hits": cache.hits,
                       "misses": cache.misses},
        "workloads": workloads,
    }


def report(r: dict) -> list[str]:
    lines = [
        f"  {w['workload']}: {w['pattern']}, span modes {w['span_modes']}, "
        f"bit-identical: {w['bit_identical']}"
        for w in r["workloads"]
    ]
    c = r["plan_cache"]
    lines.append(
        f"  target >= {TARGET_RATIO}x on {r['workloads'][0]['workload']}; "
        f"plan cache: {c['size']} plans, {c['hits']} hits / "
        f"{c['misses']} misses"
    )
    return lines


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
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
