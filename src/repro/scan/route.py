"""Routing layer: offer declared-linear solves to the scan tier first.

``Executor.solve`` calls :func:`try_scan_solve` before running its wavefront
path — the same shape as the kernels tier's plan→generic fallback, one
level up. The contract:

* **Opt-out** — ``ExecOptions(scan=False)`` (CLI ``--no-scan``) routes
  nothing; the wavefront path still serves linear problems.
* **Applicability** — only functional solves of aux-free declared-linear
  problems; the ``sequential`` reference executor is never routed, so it
  stays the independent oracle the scan is checked against.
* **Degradation** — any scan failure (injected ``scan.solve`` fault,
  verification mismatch, solver bug) falls back to the wavefront path,
  whose table is bit-identical by construction; the result carries a
  ``scan`` entry in ``stats["route"]`` and ``scan.degraded`` counts it
  (:func:`repro.faults.degrade`). Deadline/cancel aborts
  (:data:`repro.faults.PASSTHROUGH`) are *never* degraded — they surface,
  exactly as on the wavefront path.
"""

from __future__ import annotations

from ..core.problem import LDDPProblem
from ..faults import PASSTHROUGH, check_fault, degrade
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from .solver import scan_solve
from .timing import scan_timeline

__all__ = ["scan_applicable", "try_scan_solve"]

#: Executors the scan tier never fronts: the scalar reference executor is
#: the oracle scan results are validated against, so it must stay a true
#: wavefront sweep.
_EXCLUDED_EXECUTORS = frozenset({"sequential"})


def scan_applicable(
    problem: LDDPProblem, options=None, executor: str | None = None
) -> bool:
    """Whether a functional solve of ``problem`` would route to the scan tier.

    Shared by the router and the serve/SLO pricer, so admission prices
    exactly the runs that will actually scan.
    """
    if executor is not None and executor in _EXCLUDED_EXECUTORS:
        return False
    if options is not None and not options.scan:
        return False
    if problem.linear is None:
        return False
    if problem.aux_specs:
        return False
    return True


def try_scan_solve(executor, problem: LDDPProblem):
    """Attempt a scan solve for ``executor``; returns ``(result, reason)``.

    ``(SolveResult, None)`` on success; ``(None, None)`` when the scan tier
    does not apply; ``(None, reason)`` when the scan was attempted and
    failed — the caller runs its wavefront path and records ``reason``.
    """
    if problem.linear is None:
        return None, None
    from ..exec.base import SolveResult, check_control

    metrics = get_metrics()
    options = executor.options
    if not scan_applicable(problem, options, executor.name):
        metrics.counter("scan.declined").inc()
        return None, None
    check_control(options, f"solve of {problem.name!r}")
    try:
        check_fault("scan.solve")
        with get_tracer().span(
            "scan.solve", cat="executor", problem=problem.name,
            executor=executor.name,
        ):
            table, stats = scan_solve(problem)
    except PASSTHROUGH:
        raise
    except Exception as exc:
        return None, degrade("scan", exc, counters=("scan.degraded",),
                             executor=executor.name, problem=problem.name)
    metrics.counter("scan.solved").inc()
    strategy = strategy_for(
        problem,
        pattern_override=options.pattern_override,
        inverted_l_as_horizontal=options.inverted_l_as_horizontal,
    )
    timeline = scan_timeline(problem, executor.platform)
    executor._maybe_validate(timeline)
    result = SolveResult(
        problem=problem.name,
        executor=executor.name,
        pattern=strategy.schedule.pattern,
        simulated_time=timeline.makespan,
        table=table,
        aux={},
        timeline=timeline,
        stats={"solver": "scan", **stats},
    )
    return result, None
