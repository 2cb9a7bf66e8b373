"""Cost model of the scan tier: O(rows·cols) work at O(log) depth.

A scan solve performs

* one cell-function pass over the computed region (the zero-probe that
  recovers the additive term ``d``), and
* a handful of unit-work vectorized passes: per scanned axis, one pass for
  coefficient 1 (``cumsum``) or ⌈log₂ n⌉ doubling passes otherwise; the
  rowscan path additionally pays one pass per nonzero upper-row coefficient
  and a per-row dispatch overhead (the Python row loop), charged at the CPU
  model's fork cost.

The result's ``simulated_time``/timeline and the serve/SLO admission price
(:meth:`repro.slo.pricing.Pricer`) are built from one list of cost terms
(:func:`_cost_terms`), so the price equals the timeline's makespan: a
linear request is priced as the scan it will actually run, not as the
wavefront sweep it avoids.
"""

from __future__ import annotations

import math

from ..core.problem import LDDPProblem
from ..sim.engine import Engine

__all__ = ["scan_makespan", "scan_passes", "scan_timeline"]


def _axis_passes(coeff, size: int) -> int:
    if coeff == 0 or size <= 1:
        return 0
    if coeff == 1:
        return 1
    return max(1, math.ceil(math.log2(size)))


def scan_passes(problem: LDDPProblem) -> tuple[int, str]:
    """``(unit-work passes, path)`` for one scan solve (probe excluded)."""
    spec = problem.linear
    R, C = problem.computed_shape
    separable = (
        spec.separable
        and problem.fixed_rows == 0
        and problem.fixed_cols == 0
        and problem.oob_value == 0
    )
    if separable:
        return _axis_passes(spec.n, R) + _axis_passes(spec.w, C), "separable"
    upper = sum(1 for coeff in (spec.n, spec.nw, spec.ne) if coeff != 0)
    return upper + _axis_passes(spec.w, C), "rowscan"


def _cost_terms(problem: LDDPProblem, platform) -> list[tuple[str, float]]:
    """The scan's serial ``(label, seconds)`` terms: probe, then passes."""
    cpu = platform.cpu
    cells = problem.total_computed_cells
    passes, path = scan_passes(problem)
    terms = [("scan.probe", cpu.parallel_time(cells, problem.cpu_work))]
    scan_time = passes * cpu.parallel_time(cells, 1.0)
    if path == "rowscan":
        R, _ = problem.computed_shape
        scan_time += R * cpu.fork_us * 1e-6
    if scan_time > 0:
        terms.append((f"scan.{path}", scan_time))
    return terms


def scan_timeline(problem: LDDPProblem, platform):
    """DES timeline of one scan solve: the probe task plus the scan passes."""
    engine = Engine()
    for label, seconds in _cost_terms(problem, platform):
        engine.task("cpu", seconds, label=label, kind="compute")
    return engine.run()


def scan_makespan(problem: LDDPProblem, platform, options=None) -> float:
    """Closed-form seconds for one scan solve (the admission price).

    Built from the same cost terms as :func:`scan_timeline`, so it equals
    that timeline's makespan exactly. ``options`` is accepted for signature
    parity with the wavefront pricing models; the scan cost does not depend
    on any of its knobs.
    """
    return sum(seconds for _, seconds in _cost_terms(problem, platform))
