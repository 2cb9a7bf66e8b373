"""Functional execution over wavefront-major storage (paper Sec. IV-B,
applied end to end).

The other executors compute on a row-major 2-D table and *model* the
coalescing layout's effect on device cost. This executor actually runs on
the flat wavefront-major array: every wavefront's cells are a contiguous
slice, writes are `flat[a:b] = values`, and each neighbour read is a
(gathered) slice of an earlier wavefront — exactly the access structure a
coalesced GPU kernel would see. It exists to prove the layout is
functionally complete (bit-identical tables) and to give the coalescing
ablation a real end-to-end functional code path, not just microbenchmarks.

The read-compute-store loop is :func:`repro.exec.streaming.sweep`, shared
with the streaming solver: this executor hands it the flat array, so every
wavefront slice is kept, and each computed-region read lands at
``starts[t - delta] + position`` (``AddressMap.flat_of``) through one read
geometry per wavefront (``KernelPlan.read_geometry``).
"""

from __future__ import annotations

import numpy as np

from ..core.problem import LDDPProblem
from ..kernels import plan_for
from ..memory.layout import WavefrontLayout
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from ..sim.engine import Engine
from .base import Executor, SolveResult, check_control, register_executor
from .streaming import sweep

__all__ = ["WavefrontMajorExecutor"]


class WavefrontMajorExecutor(Executor):
    """CPU execution with the table stored wavefront-major."""

    name = "cpu-wavefront-major"

    def _run(self, problem: LDDPProblem, functional: bool) -> SolveResult:
        strategy = strategy_for(
            problem,
            pattern_override=self.options.pattern_override,
            inverted_l_as_horizontal=self.options.inverted_l_as_horizontal,
        )
        schedule = strategy.schedule
        layout = WavefrontLayout(schedule)
        fr, fc = problem.fixed_rows, problem.fixed_cols
        what = f"solve of {problem.name!r}"

        tracer = get_tracer()
        root = tracer.span(
            "cpu-wavefront-major.solve", cat="executor",
            problem=problem.name, pattern=schedule.pattern.value,
            functional=functional, flat_cells=layout.size,
        )
        table = aux = None
        try:
            if functional:
                # boundary values still live in 2-D (they are not wavefront
                # cells); computed cells live only in the flat array until the
                # final unpack
                table = problem.make_table()
                aux = problem.make_aux()
                flat = np.zeros(layout.size, dtype=problem.dtype)

                plan = (
                    plan_for(problem, schedule)
                    if self.options.kernel_fastpath else None
                )
                for _ in sweep(
                    problem, schedule, plan, table[:fr], table[fr:, :fc], aux,
                    lambda: check_control(self.options, what), flat=flat,
                ):
                    pass
                # unpack into the 2-D table for the caller
                with tracer.span("unpack", cat="layout", cells=layout.size):
                    region = layout.from_flat(flat)
                    table[fr:, fc:] = region

            engine = Engine()
            cpu = self.platform.cpu
            work = problem.cpu_work * strategy.cpu_overhead
            for t in range(schedule.num_iterations):
                if not functional:
                    check_control(self.options, what)
                width = schedule.width(t)
                if width:
                    engine.task(
                        "cpu",
                        cpu.parallel_time(width, work, contiguous=True),
                        label=f"iter[{t}]",
                        kind="compute",
                        iteration=t,
                    )
            timeline = engine.run()
        finally:
            # Ending the root out-of-order also closes any wavefront span
            # left open by a cancellation/fault raised mid-iteration.
            root.end()
        get_metrics().counter("exec.cpu-wavefront-major.cells").inc(
            problem.total_computed_cells
        )
        self._maybe_validate(timeline)
        return SolveResult(
            problem=problem.name,
            executor=self.name,
            pattern=schedule.pattern,
            simulated_time=timeline.makespan,
            table=table,
            aux=aux or {},
            timeline=timeline,
            stats={
                "iterations": schedule.num_iterations,
                "strategy": strategy.name,
                "flat_cells": layout.size,
            },
        )


register_executor("cpu-wavefront-major", WavefrontMajorExecutor)
