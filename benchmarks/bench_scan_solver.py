"""Scan tier vs the wavefront path on a declared-linear workload.

The acceptance bar for the scan subsystem (:mod:`repro.scan`) is a hard
>= 10x wall-clock speedup of the full functional solve on a 2048x2048
integer summed-area table (``make_prefix_sum`` — the canonical separable
linear recurrence), with the scan table *exactly* equal to both the
closed-form oracle (:func:`reference_prefix_sum`) and the wavefront table
it replaces. The rowscan path (error diffusion, all four neighbours, NE
coefficient) is reported alongside for the trajectory — informational,
tolerance-checked rather than bit-exact (float regrouping).

Timings are full ``Framework.solve`` wall clock. Both arms — the scan tier
and the wavefront path (``ExecOptions(scan=False)``) — get one untimed
warm-up run and the same number of timed repetitions; the report gives the
min and the median of each, and the gate uses the ratio of the minimums.
Results land in ``benchmarks/results/scan_solver.txt`` and — the perf
trajectory the ROADMAP asks for — in ``BENCH_scan.json`` at the repo root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_scan_solver.py --quick

or through pytest alongside the other benchmarks. ``--quick`` (512) keeps
the exactness gates hard and reports the ratio informationally; the 10x
ratio gate is enforced at full size.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro import ExecOptions, Framework
from repro.machine.platform import hetero_high
from repro.problems import make_diffusion, make_prefix_sum
from repro.problems.prefix_sum import reference_prefix_sum

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
TARGET_RATIO = 10.0


def _timed_solve(fw, problem, reps: int, options=None):
    """One untimed warm-up, then ``reps`` timed full functional solves.

    Returns ``(min s, median s, result of the last run)``.
    """
    result = fw.solve(problem, executor="cpu", options=options)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fw.solve(problem, executor="cpu", options=options)
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times), result


def _measure_arms(fw, p, label: str, reps: int) -> tuple[dict, object, object]:
    """Time the wavefront and scan arms of one workload alike."""
    wf_s, wf_med, wf_res = _timed_solve(
        fw, p, reps, options=ExecOptions(scan=False)
    )
    scan_s, scan_med, scan_res = _timed_solve(fw, p, reps)
    assert scan_res.stats.get("solver") == "scan", scan_res.stats
    row = {
        "workload": label,
        "scan_path": scan_res.stats["scan_path"],
        "table_shape": list(p.shape),
        "wavefront_s": wf_s,
        "wavefront_median_s": wf_med,
        "scan_s": scan_s,
        "scan_median_s": scan_med,
        "ratio": wf_s / scan_s,
        "ratio_median": wf_med / scan_med,
    }
    return row, wf_res, scan_res


def _measure_prefix(fw, size: int, reps: int) -> dict:
    p = make_prefix_sum(size)
    row, wf_res, scan_res = _measure_arms(fw, p, f"prefix-sum-{size}", reps)
    oracle = reference_prefix_sum(p.payload["x"])
    return {
        **row,
        "exact_vs_oracle": bool(np.array_equal(scan_res.table, oracle)),
        "exact_vs_wavefront": bool(
            np.array_equal(scan_res.table, wf_res.table)
        ),
    }


def _measure_diffusion(fw, size: int, reps: int) -> dict:
    p = make_diffusion(size)
    row, wf_res, scan_res = _measure_arms(fw, p, f"diffusion-{size}", reps)
    return {
        **row,
        "close_to_wavefront": bool(
            np.allclose(scan_res.table, wf_res.table, rtol=1e-9, atol=1e-9)
        ),
    }


def measure(quick: bool = False, reps: int = 5) -> dict:
    size = 512 if quick else 2048
    fw = Framework(hetero_high())
    prefix = _measure_prefix(fw, size, reps)
    diffusion = _measure_diffusion(fw, size // 2, reps)
    return {
        "benchmark": "scan_solver",
        "target_ratio": TARGET_RATIO,
        "reps": reps,
        "quick": quick,
        "ratio_gate_active": not quick,
        "workloads": [prefix, diffusion],
    }


def report(r: dict) -> str:
    gate = (f"target >= {r['target_ratio']}x"
            if r["ratio_gate_active"] else "ratio informational (quick)")
    lines = [
        f"scan tier — declared-linear solves vs the wavefront path "
        f"(min / median of {r['reps']} runs per arm after one warm-up, "
        f"{gate})"
    ]
    for w in r["workloads"]:
        exact = w.get("exact_vs_oracle")
        check = (
            f"exact: oracle={w['exact_vs_oracle']} "
            f"wavefront={w['exact_vs_wavefront']}"
            if exact is not None
            else f"allclose: {w['close_to_wavefront']}"
        )
        lines.append(
            f"  {w['workload']:<18} {w['scan_path']:<10} "
            f"wavefront {w['wavefront_s'] * 1e3:8.2f} / "
            f"{w['wavefront_median_s'] * 1e3:8.2f} ms   "
            f"scan {w['scan_s'] * 1e3:6.2f} / "
            f"{w['scan_median_s'] * 1e3:6.2f} ms   "
            f"{w['ratio']:6.2f}x / {w['ratio_median']:6.2f}x   {check}"
        )
    return "\n".join(lines)


def _write_outputs(r: dict, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "scan_solver.txt").write_text(text + "\n")
    (REPO_ROOT / "BENCH_scan.json").write_text(json.dumps(r, indent=2) + "\n")


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    prefix = r["workloads"][0]
    if not prefix["exact_vs_oracle"]:
        return "scan table differs from the closed-form oracle"
    if not prefix["exact_vs_wavefront"]:
        return "scan table differs from the wavefront table"
    diffusion = r["workloads"][1]
    if not diffusion["close_to_wavefront"]:
        return "rowscan diffusion outside tolerance of the wavefront table"
    if r["ratio_gate_active"] and prefix["ratio"] < r["target_ratio"]:
        return (
            f"scan speedup {prefix['ratio']:.2f}x below the "
            f"{r['target_ratio']}x acceptance bar on {prefix['workload']}"
        )
    return None


def test_scan_solver_speedup():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    _write_outputs(r, report(r))
    failure = _gate(r)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller table (512) for fast iteration; "
                             "keeps exactness gates, skips the ratio gate")
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
