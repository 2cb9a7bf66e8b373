"""Allocation profile of ``gather_neighbors`` (the generic path's gather).

The interior case — every neighbour read in bounds, which is every wavefront
of a problem with a fixed boundary — must allocate *only* the gather outputs
plus the transient offset-index arrays inherent to any gather: the in-bounds
test is two min/max scans, not a mask array, and there is no ``np.where``
fill pair. The boundary case pays for masks and clipped indices; the old
implementation paid that on *every* batch.

The gate reads ``tracemalloc`` peaks (allocation bytes, not timing, so the
result is machine-independent). Both cases are also timed as arms, each rep
``CALLS`` gathers, for reference. There is no quick mode: the script takes
well under a second.

Run standalone::

    python benchmarks/bench_gather_neighbors.py

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np

import _harness
from repro.core.cellfunc import gather_neighbors
from repro.types import ContributingSet

ROWS = COLS = 1024
WIDTH = 1000
CALLS = 2000
CONTRIBUTING = ContributingSet.of("W", "NW", "N")
#: int64 gather output per neighbour; everything beyond outputs is overhead.
OUTPUT_BYTES = 3 * WIDTH * 8


def _batches() -> tuple[tuple, tuple]:
    """An all-in-bounds batch and one with out-of-bounds reads."""
    table = np.arange(ROWS * COLS, dtype=np.int64).reshape(ROWS, COLS)
    k = np.arange(WIDTH, dtype=np.int64)
    interior = (table, 1 + k, COLS - 2 - k)      # neighbours all in bounds
    boundary = (table, k, COLS - 1 - k)          # i-1 / j-1 go negative
    return interior, boundary


def _alloc_peak(table, i, j) -> int:
    """Peak new-allocation bytes of one gather, via tracemalloc."""
    gather_neighbors(table, CONTRIBUTING, i, j, oob_value=0)  # warm caches
    tracemalloc.start()
    tracemalloc.reset_peak()
    out = gather_neighbors(table, CONTRIBUTING, i, j, oob_value=0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(out) == 4
    return peak


def _gathers(table, i, j) -> None:
    for _ in range(CALLS):
        gather_neighbors(table, CONTRIBUTING, i, j, oob_value=0)


def measure(quick: bool, reps: int) -> dict:
    interior, boundary = _batches()
    timings, _ = _harness.time_arms({
        "interior": lambda: _gathers(*interior),
        "boundary": lambda: _gathers(*boundary),
    }, reps)
    return {"workloads": [{
        "workload": f"{len(CONTRIBUTING.members())} neighbours x {WIDTH} "
                    f"lanes, {CALLS} gathers per rep",
        "arms": timings,
        "output_bytes": OUTPUT_BYTES,
        "interior_peak": _alloc_peak(*interior),
        "boundary_peak": _alloc_peak(*boundary),
    }]}


def report(r: dict) -> list[str]:
    w = r["workloads"][0]
    return [
        f"  peak alloc per gather: interior {w['interior_peak']} B, "
        f"boundary {w['boundary_peak']} B ({w['output_bytes']} output bytes)"
    ]


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    w = r["workloads"][0]
    # Live at the peak: the gather outputs plus at most one neighbour's two
    # transient offset-index arrays (2/3 of output size here). Anything near
    # the boundary case's footprint means a mask/fill pair sneaked back in.
    if w["interior_peak"] >= w["output_bytes"] * 2:
        return (
            f"interior gather allocated {w['interior_peak']} B peak for "
            f"{w['output_bytes']} B of outputs — mask-path allocations are back"
        )
    if w["boundary_peak"] <= w["interior_peak"]:
        return "boundary gather should allocate more than the interior one"
    return None


def test_interior_allocates_only_outputs():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
