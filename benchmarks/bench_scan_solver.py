"""Scan tier vs the wavefront path on a declared-linear workload.

The acceptance bar for the scan subsystem (:mod:`repro.scan`) is a hard
>= 10x wall-clock speedup of the full functional solve on a 2048x2048
integer summed-area table (``make_prefix_sum`` — the canonical separable
linear recurrence), with the scan table *exactly* equal to both the
closed-form oracle (:func:`reference_prefix_sum`) and the wavefront table
it replaces. The rowscan path (error diffusion, all four neighbours, NE
coefficient) is reported alongside for the trajectory — informational,
tolerance-checked rather than bit-exact (float regrouping).

The two arms are full ``Framework.solve`` calls: the scan tier and the
wavefront path (``ExecOptions(scan=False)``); the gate reads the ratio of
the minimums. Results also land in ``BENCH_scan.json`` at the repo root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_scan_solver.py --quick

or through pytest alongside the other benchmarks. ``--quick`` (512) keeps
the exactness gates hard and reports the ratio informationally; the 10x
ratio gate is enforced at full size.
"""

from __future__ import annotations

import sys

import numpy as np

import _harness
from repro import ExecOptions, Framework
from repro.machine.platform import hetero_high
from repro.problems import make_diffusion, make_prefix_sum
from repro.problems.prefix_sum import reference_prefix_sum

ROOT_JSON = "BENCH_scan.json"
TARGET_RATIO = 10.0
NO_SCAN = ExecOptions(scan=False)


def _measure_arms(fw, p, label: str, reps: int) -> tuple[dict, dict]:
    """Time the wavefront and scan arms of one workload alike."""
    timings, res = _harness.time_arms({
        "wavefront": lambda: fw.solve(p, executor="cpu", options=NO_SCAN),
        "scan": lambda: fw.solve(p, executor="cpu"),
    }, reps)
    assert res["scan"].stats.get("solver") == "scan", res["scan"].stats
    row = {
        "workload": label,
        "scan_path": res["scan"].stats["scan_path"],
        "table_shape": list(p.shape),
        "arms": timings,
        **_harness.speedup(timings, "wavefront", "scan"),
    }
    return row, {arm: r.table for arm, r in res.items()}


def measure(quick: bool, reps: int) -> dict:
    size = 512 if quick else 2048
    fw = Framework(hetero_high())
    p = make_prefix_sum(size)
    prefix, tables = _measure_arms(fw, p, f"prefix-sum-{size}", reps)
    prefix["exact_vs_oracle"] = bool(np.array_equal(
        tables["scan"], reference_prefix_sum(p.payload["x"])
    ))
    prefix["exact_vs_wavefront"] = bool(
        np.array_equal(tables["scan"], tables["wavefront"])
    )
    p = make_diffusion(size // 2)
    diffusion, tables = _measure_arms(fw, p, f"diffusion-{size // 2}", reps)
    diffusion["close_to_wavefront"] = bool(np.allclose(
        tables["scan"], tables["wavefront"], rtol=1e-9, atol=1e-9
    ))
    return {
        "target_ratio": TARGET_RATIO,
        "ratio_gate_active": not quick,
        "workloads": [prefix, diffusion],
    }


def report(r: dict) -> list[str]:
    prefix, diffusion = r["workloads"]
    gate = (f"target >= {TARGET_RATIO}x on {prefix['workload']}"
            if r["ratio_gate_active"] else "ratio informational (quick)")
    return [
        f"  {prefix['workload']} ({prefix['scan_path']}): exact vs oracle "
        f"{prefix['exact_vs_oracle']}, vs wavefront "
        f"{prefix['exact_vs_wavefront']}",
        f"  {diffusion['workload']} ({diffusion['scan_path']}): allclose "
        f"{diffusion['close_to_wavefront']}",
        f"  {gate}",
    ]


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    prefix, diffusion = r["workloads"]
    if not prefix["exact_vs_oracle"]:
        return "scan table differs from the closed-form oracle"
    if not prefix["exact_vs_wavefront"]:
        return "scan table differs from the wavefront table"
    if not diffusion["close_to_wavefront"]:
        return "rowscan diffusion outside tolerance of the wavefront table"
    if r["ratio_gate_active"] and prefix["ratio"] < TARGET_RATIO:
        return (
            f"scan speedup {prefix['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar on {prefix['workload']}"
        )
    return None


def test_scan_solver_speedup():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
