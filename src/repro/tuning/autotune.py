"""The paper's empirical two-step tuning procedure (Sec. V-A, Fig. 7).

Step 1: fix ``t_share = 0`` and sweep ``t_switch``; the runtime-vs-t_switch
curve is U-shaped and its minimum gives the optimal ``t_switch``.

Step 2: fix that ``t_switch`` and sweep ``t_share``; again take the minimum.

Objectives are evaluated with the heterogeneous executor in estimate mode
(the full task-graph timing model, no table filling), so tuning paper-scale
sizes takes milliseconds per point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..exec.base import ExecOptions
from ..exec.hetero import HeteroExecutor
from ..machine.platform import Platform
from ..patterns.registry import strategy_for
from ..types import Pattern
from .search import argmin_curve, grid, sweep

__all__ = ["TuneResult", "autotune"]


@dataclass
class TuneResult:
    """Outcome of the two-step sweep."""

    params: HeteroParams
    t_switch_curve: list[tuple[int, float]]
    t_share_curve: list[tuple[int, float]]
    best_time: float


def autotune(
    problem: LDDPProblem,
    platform: Platform,
    options: ExecOptions | None = None,
    t_switch_grid: list[int] | None = None,
    t_share_grid: list[int] | None = None,
    points: int = 13,
) -> TuneResult:
    """Run the two-step procedure; returns the tuned parameters and curves."""
    options = options or ExecOptions()
    executor = HeteroExecutor(platform, options)
    strategy = strategy_for(
        problem,
        pattern_override=options.pattern_override,
        inverted_l_as_horizontal=options.inverted_l_as_horizontal,
    )
    sched = strategy.schedule
    pattern = sched.pattern

    # -- step 1: t_switch with t_share = 0 -----------------------------------
    if pattern in (Pattern.HORIZONTAL, Pattern.VERTICAL):
        # Constant-width patterns have no low-work region (paper Sec. III-B).
        ts_curve = [(0, _time(executor, problem, 0, 0))]
    else:
        if t_switch_grid is None:
            hi = (
                sched.num_iterations
                if pattern in (Pattern.INVERTED_L, Pattern.MINVERTED_L)
                else sched.num_iterations // 2
            )
            t_switch_grid = grid(0, hi, points)
        ts_curve = sweep(
            t_switch_grid, lambda ts: _time(executor, problem, ts, 0)
        )
    best_ts, _ = argmin_curve(ts_curve)

    # -- step 2: t_share with t_switch fixed ----------------------------------
    if t_share_grid is None:
        t_share_grid = grid(0, sched.max_width, points)
    share_curve = sweep(
        t_share_grid, lambda sh: _time(executor, problem, best_ts, sh)
    )
    best_share, best_time = argmin_curve(share_curve)

    return TuneResult(
        params=HeteroParams(t_switch=best_ts, t_share=best_share),
        t_switch_curve=ts_curve,
        t_share_curve=share_curve,
        best_time=best_time,
    )


def _time(
    executor: HeteroExecutor, problem: LDDPProblem, t_switch: int, t_share: int
) -> float:
    from ..exec.hetero import fast_hetero_makespan

    params = HeteroParams(t_switch=t_switch, t_share=t_share)
    # the executor's own task graph without a timeline: exactly the DES
    # makespan, and cheaper — tuning sweeps dozens of points
    return fast_hetero_makespan(
        problem, executor.platform, params, executor.options
    )
