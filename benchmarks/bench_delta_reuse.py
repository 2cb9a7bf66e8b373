"""Delta patching vs fresh solves on near-duplicate traffic.

The acceptance bar for the delta subsystem (:mod:`repro.delta`) is a hard
>= 5x wall-clock speedup over the full functional solve for a 1-row edit
on a 1024x1024 instance — here the checkerboard cost board with its last
row edited: the ``payload_locality`` declaration maps the edited row to
exactly 1024 candidate cells, and under the horizontal pattern the whole
cone replays as a single wavefront span.  The patched table must be
bit-identical to the fresh solve, always, on every workload.

Two Levenshtein edits ride along to show the scaling law the tier is built
on: a suffix edit (last character of one string — a thin 1-cell-wide cone
down the final anti-diagonals) against an interior edit (earlier in the
string, so its invalidation cone sweeps every later wavefront).  Patched
cost tracks the *cone*, not the table; the suffix cone must stay smaller
than the interior cone.

Both arms — :func:`repro.delta.delta_patch` and a full ``Framework.solve``
of the edited instance — get one untimed warm-up run and the same number of
timed repetitions; the report gives the min and the median of each, and the
gate uses the ratio of the minimums. Results land in
``benchmarks/results/delta_reuse.txt`` and in ``BENCH_delta.json`` at the
repo root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_delta_reuse.py --quick

or through pytest alongside the other benchmarks. ``--quick`` (256) keeps
the bit-identity gates hard and reports the ratio informationally; the 5x
ratio gate is enforced at full size.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import ExecOptions, Framework
from repro.delta import delta_patch
from repro.machine.platform import hetero_high
from repro.problems import make_checkerboard, make_levenshtein

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
TARGET_RATIO = 5.0
EXECUTOR = "cpu"


def _edited_char(problem, index: int):
    """The problem with character ``index`` of string ``a`` replaced."""
    payload = dict(problem.payload)
    a = payload["a"].copy()
    a[index] = a[index] + 1
    payload["a"] = a
    return replace(problem, payload=payload)


def _edited_row(problem, row: int):
    """The problem with row ``row`` of the cost board perturbed."""
    payload = dict(problem.payload)
    cost = payload["cost"].copy()
    cost[row, :] += 1.0
    payload["cost"] = cost
    return replace(problem, payload=payload)


def _timed(run, reps: int):
    """One untimed warm-up, then ``reps`` timed runs.

    Returns ``(min s, median s, result of the last run)``.
    """
    result = run()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times), result


def _measure_edit(fw, base, base_result, edited, label: str,
                  reps: int) -> dict:
    fresh_s, fresh_med, fresh = _timed(
        lambda: fw.solve(edited, executor=EXECUTOR,
                         options=ExecOptions(delta=False)),
        reps,
    )
    options = ExecOptions(delta=True, delta_max_cone=1.0)
    patch_s, patch_med, patched = _timed(
        lambda: delta_patch(edited, base.payload, base_result,
                            platform=hetero_high(), options=options,
                            executor=EXECUTOR),
        reps,
    )
    assert patched.stats["solver"] == "delta", patched.stats
    return {
        "workload": label,
        "table_shape": list(base.shape),
        "probe": patched.stats["delta_probe"],
        "probed_cells": patched.stats["delta_probed_cells"],
        "cone_cells": patched.stats["delta_cone_cells"],
        "cone_fraction": patched.stats["delta_cone_fraction"],
        "cone_waves": patched.stats["delta_waves"],
        "fresh_s": fresh_s,
        "fresh_median_s": fresh_med,
        "patch_s": patch_s,
        "patch_median_s": patch_med,
        "ratio": fresh_s / patch_s,
        "ratio_median": fresh_med / patch_med,
        "bit_identical": bool(np.array_equal(patched.table, fresh.table)),
    }


def measure(quick: bool = False, reps: int = 5) -> dict:
    size = 256 if quick else 1024
    fw = Framework(hetero_high())

    board = make_checkerboard(size)
    board_result = fw.solve(board, executor=EXECUTOR)
    lastrow = _measure_edit(
        fw, board, board_result, _edited_row(board, size - 1),
        f"lastrow-edit-{size}", reps,
    )

    lev = make_levenshtein(size)
    lev_result = fw.solve(lev, executor=EXECUTOR)
    suffix = _measure_edit(
        fw, lev, lev_result, _edited_char(lev, size - 1),
        f"suffix-edit-{size}", reps,
    )
    interior = _measure_edit(
        fw, lev, lev_result, _edited_char(lev, (size * 3) // 4),
        f"interior-edit-{size}", reps,
    )
    return {
        "benchmark": "delta_reuse",
        "target_ratio": TARGET_RATIO,
        "executor": EXECUTOR,
        "reps": reps,
        "quick": quick,
        "ratio_gate_active": not quick,
        "workloads": [lastrow, suffix, interior],
    }


def report(r: dict) -> str:
    gate = (f"target >= {r['target_ratio']}x on the 1-row edit"
            if r["ratio_gate_active"] else "ratio informational (quick)")
    lines = [
        f"delta tier — patched near-duplicates vs fresh solves "
        f"(min / median of {r['reps']} runs per arm after one warm-up, "
        f"{gate})"
    ]
    for w in r["workloads"]:
        lines.append(
            f"  {w['workload']:<18} probe {w['probe']:<8} "
            f"cone {w['cone_cells']:>8} cells "
            f"({w['cone_fraction'] * 100:5.2f}% of table)   "
            f"fresh {w['fresh_s'] * 1e3:7.2f} / "
            f"{w['fresh_median_s'] * 1e3:7.2f} ms   "
            f"patch {w['patch_s'] * 1e3:6.2f} / "
            f"{w['patch_median_s'] * 1e3:6.2f} ms   "
            f"{w['ratio']:6.2f}x / {w['ratio_median']:6.2f}x   "
            f"bit-identical: {w['bit_identical']}"
        )
    return "\n".join(lines)


def _write_outputs(r: dict, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "delta_reuse.txt").write_text(text + "\n")
    (REPO_ROOT / "BENCH_delta.json").write_text(json.dumps(r, indent=2) + "\n")


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    for w in r["workloads"]:
        if not w["bit_identical"]:
            return f"patched table differs from the fresh solve on {w['workload']}"
    lastrow, suffix, interior = r["workloads"]
    if suffix["cone_cells"] >= interior["cone_cells"]:
        return (
            "suffix-edit cone is not smaller than the interior-edit cone — "
            "cone scaling is broken"
        )
    if r["ratio_gate_active"] and lastrow["ratio"] < r["target_ratio"]:
        return (
            f"delta speedup {lastrow['ratio']:.2f}x below the "
            f"{r['target_ratio']}x acceptance bar on {lastrow['workload']}"
        )
    return None


def test_delta_reuse_speedup():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    _write_outputs(r, report(r))
    failure = _gate(r)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller table (256) for fast iteration; keeps "
                             "bit-identity gates, skips the ratio gate")
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
