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

The two arms are :func:`repro.delta.delta_patch` and a full
``Framework.solve`` of the edited instance; the gate reads the ratio of the
minimums. Results also land in ``BENCH_delta.json`` at the repo root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_delta_reuse.py --quick

or through pytest alongside the other benchmarks. ``--quick`` (256) keeps
the bit-identity gates hard and reports the ratio informationally; the 5x
ratio gate is enforced at full size.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

import _harness
from repro import ExecOptions, Framework
from repro.delta import delta_patch
from repro.machine.platform import hetero_high
from repro.problems import make_checkerboard, make_levenshtein

ROOT_JSON = "BENCH_delta.json"
TARGET_RATIO = 5.0
EXECUTOR = "cpu"


def _edited(problem, key: str, index):
    """The problem with ``payload[key][index]`` incremented by one."""
    payload = dict(problem.payload)
    payload[key] = payload[key].copy()
    payload[key][index] += 1
    return replace(problem, payload=payload)


def _measure_edit(fw, base, edited, label: str, reps: int) -> dict:
    base_result = fw.solve(base, executor=EXECUTOR)
    no_delta = ExecOptions(delta=False)
    options = ExecOptions(delta=True, delta_max_cone=1.0)
    timings, res = _harness.time_arms({
        "fresh": lambda: fw.solve(edited, executor=EXECUTOR, options=no_delta),
        "patch": lambda: delta_patch(edited, base.payload, base_result,
                                     platform=hetero_high(), options=options,
                                     executor=EXECUTOR),
    }, reps)
    patched = res["patch"]
    assert patched.stats["solver"] == "delta", patched.stats
    return {
        "workload": label,
        "table_shape": list(base.shape),
        "probe": patched.stats["delta_probe"],
        "probed_cells": patched.stats["delta_probed_cells"],
        "cone_cells": patched.stats["delta_cone_cells"],
        "cone_fraction": patched.stats["delta_cone_fraction"],
        "cone_waves": patched.stats["delta_waves"],
        "arms": timings,
        **_harness.speedup(timings, "fresh", "patch"),
        "bit_identical": bool(
            np.array_equal(patched.table, res["fresh"].table)
        ),
    }


def measure(quick: bool, reps: int) -> dict:
    size = 256 if quick else 1024
    fw = Framework(hetero_high())
    board = make_checkerboard(size)
    lev = make_levenshtein(size)
    return {
        "target_ratio": TARGET_RATIO,
        "executor": EXECUTOR,
        "ratio_gate_active": not quick,
        "workloads": [
            _measure_edit(fw, board, _edited(board, "cost", size - 1),
                          f"lastrow-edit-{size}", reps),
            _measure_edit(fw, lev, _edited(lev, "a", size - 1),
                          f"suffix-edit-{size}", reps),
            _measure_edit(fw, lev, _edited(lev, "a", (size * 3) // 4),
                          f"interior-edit-{size}", reps),
        ],
    }


def report(r: dict) -> list[str]:
    lines = [
        f"  {w['workload']:<18} probe {w['probe']:<8} "
        f"cone {w['cone_cells']:>8} cells "
        f"({w['cone_fraction'] * 100:5.2f}% of table)   "
        f"bit-identical: {w['bit_identical']}"
        for w in r["workloads"]
    ]
    lines.append(f"  target >= {TARGET_RATIO}x on the 1-row edit"
                 if r["ratio_gate_active"]
                 else "  ratio informational (quick)")
    return lines


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
    if r["ratio_gate_active"] and lastrow["ratio"] < TARGET_RATIO:
        return (
            f"delta speedup {lastrow['ratio']:.2f}x below the "
            f"{TARGET_RATIO}x acceptance bar on {lastrow['workload']}"
        )
    return None


def test_delta_reuse_speedup():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
