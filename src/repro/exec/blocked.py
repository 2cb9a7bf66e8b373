"""Block-tiled CPU executor (paper Sec. IV-A's thread-per-block strategy).

One fork/join per *block wavefront* instead of per cell wavefront: far fewer
barriers on patterns with many narrow wavefronts (anti-diagonal), and each
core sweeps its blocks sequentially with contiguous access — the
cache-efficiency argument of the Chowdhury-Ramachandran line of work the
paper builds on.

Tile shape is chosen per contributing set:

* **NE-free** sets use square tiles scheduled by their own pattern
  (:class:`~repro.core.blocking.BlockGrid`) — the "at most three neighbours"
  regime of Bille & Stockel's cache-oblivious algorithms;
* **NE-containing** sets use parallelogram tiles skewed by the knight-move
  wavefront index (:class:`~repro.core.blocking.SkewedBlockGrid`), under
  which every representative-set dependency stays behind a tile-level
  anti-diagonal order. This extends tiling to all 15 contributing sets.

The trade: coarser tiles mean fewer parallel units, so very large blocks
starve cores. ``benchmarks/bench_ablation_blocking.py`` sweeps the block
size and exposes the resulting U-curve.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.blocking import Block, SkewedBlock, grid_for
from ..core.problem import LDDPProblem
from ..core.schedule import schedule_for
from ..errors import ExecutionError
from ..kernels import evaluate_cells
from ..machine.platform import Platform
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from ..sim.engine import Engine
from .base import (
    ExecOptions,
    Executor,
    SolveResult,
    check_control,
    evaluate_span,
    register_executor,
)

__all__ = [
    "BlockedCPUExecutor",
    "evaluate_block",
    "evaluate_skewed_block",
    "fast_blocked_makespan",
]


@lru_cache(maxsize=512)
def _local_schedule(pattern, rows: int, cols: int):
    """Per-tile cell schedules, memoized.

    Every tile of one grid shares a handful of distinct geometries (interior
    tiles are all ``block x block``) and ``schedule_for`` itself is uncached
    pure geometry, so memoize here. Identity-stable results also keep
    ``evaluate_span``'s one-entry hot-state memo effective across tiles.
    """
    return schedule_for(pattern, rows, cols)


def evaluate_block(
    problem: LDDPProblem,
    pattern,
    table: np.ndarray,
    aux: dict[str, np.ndarray],
    block: Block,
    fastpath: bool = True,
    options: ExecOptions | None = None,
) -> int:
    """Sweep one square block's cells in (cell-level) wavefront order.

    Intra-block dependencies are respected by the local schedule; deps that
    leave the block land in already-finished blocks (see
    :mod:`repro.core.blocking`). Each block wavefront routes through
    :func:`~repro.exec.base.evaluate_span` with the block's origin, so tiles
    share the compiled kernel plans of :mod:`repro.kernels` (one plan per
    distinct block geometry x origin). ``options`` threads deadline/cancel
    control through the span evaluator (checked per local wavefront).
    """
    local = _local_schedule(pattern, block.rows, block.cols)
    done = 0
    for t in range(local.num_iterations):
        if local.width(t) == 0:
            continue
        done += evaluate_span(
            problem, local, table, aux, t,
            origin=(block.r0, block.c0), fastpath=fastpath, options=options,
        )
    return done


def evaluate_skewed_block(
    problem: LDDPProblem,
    table: np.ndarray,
    aux: dict[str, np.ndarray],
    block: SkewedBlock,
) -> int:
    """Sweep one parallelogram tile in knight-index order (``v`` ascending).

    The knight-move index is the universal cell schedule: every
    representative-set dependency strictly decreases it, for all 15 sets.
    """
    done = 0
    for v in range(block.v0, block.v1):
        i_lo = max(block.r0, -((block.cols - 1 - v) // 2))
        i_hi = min(block.r1 - 1, v // 2)
        if i_lo > i_hi:
            continue
        ci = np.arange(i_hi, i_lo - 1, -1, dtype=np.int64)
        cj = v - 2 * ci
        done += evaluate_cells(
            problem, table, aux, ci + problem.fixed_rows, cj + problem.fixed_cols
        )
    return done


def _blocked_grid(problem: LDDPProblem, options: ExecOptions,
                  block_size: int):
    """The strategy and tile grid of one ``cpu-blocked`` run."""
    strategy = strategy_for(
        problem,
        pattern_override=options.pattern_override,
        inverted_l_as_horizontal=options.inverted_l_as_horizontal,
    )
    rows, cols = problem.computed_shape
    grid = grid_for(rows, cols, block_size, pattern=strategy.schedule.pattern,
                    skewed=problem.contributing.ne)
    return strategy, grid


def _wave_costs(problem: LDDPProblem, platform, options: ExecOptions,
                strategy, grid) -> list[tuple[int, int, float]]:
    """``(t, blocks, seconds)`` of every non-empty block wavefront.

    Each wave is one LPT-packed :meth:`~repro.machine.cpu.CPUModel.
    blocked_time` task on the single ``cpu`` resource. The executor's
    timeline and :func:`fast_blocked_makespan` are both built from this one
    list, so the price equals the timeline's makespan exactly.
    """
    work = problem.cpu_work * strategy.cpu_overhead
    cpu = platform.cpu
    costs = []
    for t in range(grid.num_iterations):
        check_control(options, f"estimate of {problem.name!r}")
        blocks = grid.blocks(t)
        if blocks:
            costs.append(
                (t, len(blocks), cpu.blocked_time([b.cells for b in blocks], work))
            )
    return costs


def fast_blocked_makespan(
    problem: LDDPProblem,
    platform: Platform,
    options: ExecOptions | None = None,
    block_size: int | None = None,
) -> float:
    """Simulated seconds for a ``cpu-blocked`` run, no task graph.

    The sum of :func:`_wave_costs`, whose DES serializes one LPT-packed
    :meth:`~repro.machine.cpu.CPUModel.blocked_time` task per block
    wavefront on a single ``cpu`` resource, so the two agree exactly
    (``tests/test_blocking.py`` asserts ``==``) — including the
    ramp-up/ramp-down waves where only a few tiles exist and most cores
    idle behind the barrier, which a per-cell split model such as
    :func:`~repro.exec.hetero.fast_hetero_makespan` cannot see.
    """
    options = options or ExecOptions()
    block = block_size if block_size is not None else options.block_size
    strategy, grid = _blocked_grid(problem, options, block)
    costs = _wave_costs(problem, platform, options, strategy, grid)
    return sum(seconds for _, _, seconds in costs)


class BlockedCPUExecutor(Executor):
    """CPU-only execution with ``block_size x block_size`` tiles."""

    name = "cpu-blocked"

    def __init__(self, platform, options=None, block_size: int | None = None) -> None:
        super().__init__(platform, options)
        if block_size is None:
            block_size = self.options.block_size
        if block_size <= 0:
            raise ExecutionError("block_size must be positive")
        self.block_size = block_size

    def _barrier_sweep(
        self, problem, pattern, grid, skewed, table, aux
    ) -> int:
        """The functional fork/join sweep: one pass per block wavefront."""
        total_done = 0
        tracer = get_tracer()
        for t in range(grid.num_iterations):
            check_control(self.options, f"solve of {problem.name!r}")
            blocks = grid.blocks(t)
            if not blocks:
                continue
            # Row-major order within the wave. Every cross-tile dependency
            # offset is componentwise <= 0: a cell reads only the same or
            # the previous row, and a column (square tiles, NE-free sets)
            # or knight index (skewed tiles) that is no larger. So
            # ascending (bi, bj) is a valid sequential order even on waves
            # that carry *intra*-wave tile dependencies — the inverted-L
            # Γ-wave, whose block>1 tiles fan {NW} into W/N/NW neighbours
            # inside the same wave, and whose canonical enumeration walks
            # the column arm bottom-up (tile before its N predecessor).
            if len(blocks) > 1:
                blocks = sorted(
                    blocks, key=lambda b: (b.bi, b.bt if skewed else b.bj)
                )
            with tracer.span(
                "block-wave", cat="wavefront", t=t, blocks=len(blocks),
            ):
                for blk in blocks:
                    if skewed:
                        total_done += evaluate_skewed_block(problem, table, aux, blk)
                    else:
                        total_done += evaluate_block(
                            problem, pattern, table, aux, blk,
                            fastpath=self.options.kernel_fastpath,
                            options=self.options,
                        )
        return total_done

    def _barrier_timeline(self, costs):
        """The fork/join timing model: one LPT-packed task per wavefront."""
        engine = Engine()
        for t, blocks, seconds in costs:
            engine.task("cpu", seconds, label=f"block-wave[{t}]",
                        kind="compute", iteration=t, blocks=blocks)
        return engine.run()

    # -- entry point ----------------------------------------------------------

    def _run(self, problem: LDDPProblem, functional: bool) -> SolveResult:
        strategy, grid = _blocked_grid(problem, self.options, self.block_size)
        pattern = strategy.schedule.pattern
        skewed = problem.contributing.ne

        table = aux = None
        if functional:
            table = problem.make_table()
            aux = problem.make_aux()

        with get_tracer().span(
            "cpu-blocked.solve", cat="executor",
            problem=problem.name, pattern=pattern.value, functional=functional,
            block_size=self.block_size, tiling="skewed" if skewed else "square",
        ):
            total_done = (
                self._barrier_sweep(problem, pattern, grid, skewed, table, aux)
                if functional
                else 0
            )
            costs = _wave_costs(problem, self.platform, self.options,
                                strategy, grid)
            timeline = self._barrier_timeline(costs)
            num_blocks = sum(blocks for _, blocks, _ in costs)
            if functional and total_done != problem.total_computed_cells:
                raise ExecutionError(
                    f"swept {total_done} cells, expected {problem.total_computed_cells}"
                )
        get_metrics().counter("exec.cpu-blocked.blocks").inc(num_blocks)
        self._maybe_validate(timeline)
        stats = {
            "iterations": grid.num_iterations,
            "block_size": self.block_size,
            "blocks": num_blocks,
            "tiling": "skewed" if skewed else "square",
            "strategy": strategy.name,
        }
        return SolveResult(
            problem=problem.name,
            executor=self.name,
            pattern=pattern,
            simulated_time=timeline.makespan,
            table=table,
            aux=aux or {},
            timeline=timeline,
            stats=stats,
        )


register_executor("cpu-blocked", BlockedCPUExecutor)
