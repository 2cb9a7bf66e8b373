"""The heterogeneous executor: phased CPU/GPU split with boundary exchange.

This is the framework proper (paper Sec. III). Per iteration of the phase
plan it submits:

* a CPU task (fork/join parallel region over the CPU's prefix of the
  wavefront, if any);
* a GPU kernel task over the remainder (if any);
* the boundary copies the pattern requires — pipelined on the copy engine
  for one-way patterns (Sec. IV-C1), or host-blocking pinned-memory
  exchanges for two-way patterns (Sec. IV-C2);

plus bulk staging copies at phase boundaries (the halo of the last few
wavefronts changes ownership when the machine switches between CPU-only and
split execution) and at setup/teardown.

Dependencies submitted to the engine:

* same-device tasks serialize via resource FIFO;
* a GPU task at iteration ``t+1`` waits for the H2D boundary copy issued
  after CPU iteration ``t`` (and vice versa for D2H) — the binding edges of
  Figs. 3-6; longer-range edges (NW at ``t-2``/``t-3``) are strictly slacker
  and therefore implied;
* pinned/pageable copies block the host: the next CPU task waits for them
  too. Streamed copies only block their consumer.

These rules are written once, in :meth:`HeteroExecutor._build`. A solve or
estimate feeds it an :class:`~repro.sim.engine.Engine`; pricing and tuning
(:func:`fast_hetero_makespan`) feed the same graph to a makespan-only
:class:`~repro.sim.engine.Makespan` sink, so price equals timeline.

Observability: the run is wrapped in a ``hetero.solve`` span with one
``phase:*`` child per phase-plan segment, one ``wavefront`` span per
iteration, and ``kernel`` / ``transfer`` spans per submission — see
``docs/observability.md``.

Resilience: a GPU or transfer model failure restarts the run CPU-only via
:meth:`~repro.exec.base.Executor._run_or_cpu` — same table, CPU-only
timing. Deadline/cancel control is checked once per assignment.
"""

from __future__ import annotations

from ..core.partition import HeteroParams, PhasePlan
from ..core.problem import LDDPProblem
from ..errors import ExecutionError
from ..machine.platform import Platform
from ..machine.transfer import staging_kind
from ..memory.buffers import TransferLedger
from ..obs import NullTracer, get_metrics, get_tracer
from ..patterns.base import PatternStrategy
from ..patterns.registry import strategy_for
from ..sim.engine import Engine, Makespan
from ..types import Pattern, TransferDirection, TransferKind
from .base import (
    ExecOptions,
    Executor,
    SolveResult,
    check_control,
    evaluate_span,
    register_executor,
    wavefront_contiguous,
)

__all__ = ["HeteroExecutor", "fast_hetero_makespan"]

#: Dependency depth: how many previous wavefronts hold live halo cells.
_HALO_DEPTH: dict[Pattern, int] = {
    Pattern.ANTI_DIAGONAL: 2,
    Pattern.HORIZONTAL: 1,
    Pattern.VERTICAL: 1,
    Pattern.INVERTED_L: 1,
    Pattern.MINVERTED_L: 1,
    Pattern.KNIGHT_MOVE: 3,
}


class HeteroExecutor(Executor):
    name = "hetero"

    def _run(self, problem, functional, params=None) -> SolveResult:
        return self._run_or_cpu(self._run_hetero, problem, functional, params)

    def _plan(
        self, problem: LDDPProblem, params: HeteroParams | None
    ) -> tuple[PatternStrategy, PhasePlan]:
        strategy = strategy_for(
            problem,
            pattern_override=self.options.pattern_override,
            inverted_l_as_horizontal=self.options.inverted_l_as_horizontal,
        )
        if params is None:
            from ..tuning.model import analytic_params

            params = analytic_params(problem, self.platform, strategy)
        return strategy, strategy.plan(params)

    def _run_hetero(
        self,
        problem: LDDPProblem,
        functional: bool,
        params: HeteroParams | None = None,
    ) -> SolveResult:
        tracer = get_tracer()
        strategy, plan = self._plan(problem, params)
        schedule = strategy.schedule

        table = aux = None
        if functional:
            table = problem.make_table()
            aux = problem.make_aux()

        engine = Engine()
        root = tracer.span(
            "hetero.solve", cat="executor",
            problem=problem.name, pattern=schedule.pattern.value,
            functional=functional, strategy=strategy.name,
            t_switch=plan.params.t_switch, t_share=plan.params.t_share,
        )
        root.__enter__()
        try:
            ledger = self._build(engine, tracer, problem, strategy, plan, table, aux)
            timeline = engine.run()
        finally:
            # Out-of-order exit closes any phase/wavefront span a fault or
            # cancellation left open mid-iteration.
            root.__exit__(None, None, None)

        metrics = get_metrics()
        metrics.counter("exec.hetero.cells.cpu").inc(plan.cpu_cells_total())
        metrics.counter("exec.hetero.cells.gpu").inc(plan.gpu_cells_total())
        for rec in ledger.records:
            metrics.counter(f"exec.hetero.transfers.{rec.direction.value}").inc()
            metrics.counter("exec.hetero.transfer_bytes").inc(rec.nbytes)
        metrics.histogram("exec.hetero.iterations").observe(schedule.num_iterations)

        self._maybe_validate(timeline)
        return SolveResult(
            problem=problem.name,
            executor=self.name,
            pattern=schedule.pattern,
            simulated_time=timeline.makespan,
            table=table,
            aux=aux or {},
            timeline=timeline,
            ledger=ledger,
            stats={
                "iterations": schedule.num_iterations,
                "strategy": strategy.name,
                "t_switch": plan.params.t_switch,
                "t_share": plan.params.t_share,
                "phases": [(p.name, p.start, p.stop) for p in plan.phases],
                "cpu_cells": plan.cpu_cells_total(),
                "gpu_cells": plan.gpu_cells_total(),
                "transfer_way": plan.transfer_way(),
                "contiguous": wavefront_contiguous(
                    schedule.pattern, self.options.use_wavefront_layout
                ),
                "cpu_utilization": timeline.utilization("cpu"),
                "gpu_utilization": timeline.utilization("gpu"),
            },
        )

    def _build(
        self,
        sink: Engine | Makespan,
        tracer,
        problem: LDDPProblem,
        strategy: PatternStrategy,
        plan: PhasePlan,
        table=None,
        aux=None,
    ) -> TransferLedger:
        """Submit ``plan``'s task graph to ``sink``; fill ``table`` if given.

        The one place the heterogeneous timing rules are written down: an
        :class:`~repro.sim.engine.Engine` sink yields the DES timeline, a
        :class:`~repro.sim.engine.Makespan` sink the price
        (:func:`fast_hetero_makespan`), so the two agree by construction.
        """
        schedule = strategy.schedule
        what = f"solve of {problem.name!r}"
        contiguous = wavefront_contiguous(
            schedule.pattern, self.options.use_wavefront_layout
        )
        cpu_work = problem.cpu_work * strategy.cpu_overhead
        gpu_work = problem.gpu_work * strategy.gpu_overhead
        ledger = TransferLedger()
        cpu, gpu, xfer = self.platform.cpu, self.platform.gpu, self.platform.transfer
        itemsize = problem.dtype.itemsize
        halo = _HALO_DEPTH[schedule.pattern]

        gpu_cells_total = plan.gpu_cells_total()
        setup_tid = None
        if gpu_cells_total:
            in_bytes = self._payload_nbytes(problem) + (
                problem.shape[0] * problem.shape[1] - problem.total_computed_cells
            ) * itemsize
            with tracer.span(
                "transfer", cat="transfer",
                direction="h2d", kind="pageable", label="setup", nbytes=in_bytes,
            ):
                setup_tid = sink.task(
                    "bus",
                    xfer.time(max(in_bytes, itemsize), TransferKind.PAGEABLE),
                    label="h2d-setup",
                    kind="setup",
                )
                ledger.record(
                    TransferDirection.H2D, TransferKind.PAGEABLE,
                    cells=0, nbytes=in_bytes, label="setup",
                )

        cpu_extra = []  # deps for the *next* CPU task
        gpu_extra = [setup_tid] if setup_tid is not None else []
        last_cpu = last_gpu = None
        prev_phase: str | None = None
        phase_span = None
        # Deferred cpu-low -> split halo: emitted just before the phase's
        # first actual GPU task, so an all-CPU "split" phase moves nothing.
        pending_h2d_halo: tuple[int, int] | None = None  # (iteration, cells)

        for a in plan.assignments:
            check_control(self.options, what)
            if prev_phase is None or a.phase != prev_phase:
                if phase_span is not None:
                    phase_span.end()
                phase_span = tracer.span(
                    f"phase:{a.phase}", cat="phase", phase=a.phase, start=a.t,
                )

            # ---- phase-boundary bulk halo copies ------------------------------
            if prev_phase is not None and a.phase != prev_phase:
                lo = max(0, a.t - halo)
                if a.phase == "split" and prev_phase == "cpu-low":
                    halo_cells = sum(pa.width for pa in plan.assignments[lo: a.t])
                    pending_h2d_halo = (a.t, halo_cells)
                elif a.phase == "cpu-low" and prev_phase == "split":
                    gpu_halo_cells = sum(
                        pa.gpu_cells for pa in plan.assignments[lo: a.t]
                    )
                    if gpu_halo_cells > 0:
                        halo_bytes = gpu_halo_cells * itemsize
                        with tracer.span(
                            "transfer", cat="transfer", direction="d2h",
                            kind="pageable", label="phase-halo", t=a.t,
                            cells=gpu_halo_cells,
                        ):
                            tid = sink.task(
                                "bus",
                                xfer.time(halo_bytes, TransferKind.PAGEABLE),
                                deps=() if last_gpu is None else (last_gpu,),
                                label=f"d2h-halo[{a.t}]",
                                kind="phase-transfer",
                            )
                            cpu_extra.append(tid)
                            ledger.record(
                                TransferDirection.D2H, TransferKind.PAGEABLE,
                                cells=gpu_halo_cells, nbytes=halo_bytes,
                                label="phase-halo",
                            )
                    pending_h2d_halo = None
            prev_phase = a.phase

            if pending_h2d_halo is not None and a.gpu_cells:
                at, halo_cells = pending_h2d_halo
                pending_h2d_halo = None
                if halo_cells > 0:
                    halo_bytes = halo_cells * itemsize
                    with tracer.span(
                        "transfer", cat="transfer", direction="h2d",
                        kind="pageable", label="phase-halo", t=at,
                        cells=halo_cells,
                    ):
                        tid = sink.task(
                            "bus",
                            xfer.time(halo_bytes, TransferKind.PAGEABLE),
                            deps=() if last_cpu is None else (last_cpu,),
                            label=f"h2d-halo[{at}]",
                            kind="phase-transfer",
                        )
                        gpu_extra.append(tid)
                        cpu_extra.append(tid)  # pageable copy blocks the host
                        ledger.record(
                            TransferDirection.H2D, TransferKind.PAGEABLE,
                            cells=halo_cells, nbytes=halo_bytes,
                            label="phase-halo",
                        )

            wf_span = tracer.span(
                "wavefront", cat="wavefront", t=a.t, phase=a.phase,
                cpu_cells=a.cpu_cells, gpu_cells=a.gpu_cells,
            )
            with wf_span:
                # ---- functional evaluation ---------------------------------------
                if table is not None:
                    if a.cpu_cells:
                        evaluate_span(
                            problem, schedule, table, aux, a.t, 0, a.cpu_cells,
                            options=self.options,
                        )
                    if a.gpu_cells:
                        evaluate_span(
                            problem, schedule, table, aux, a.t, a.cpu_cells, a.width,
                            options=self.options,
                        )

                # ---- compute tasks ------------------------------------------------
                cpu_tid = gpu_tid = None
                if a.cpu_cells:
                    cpu_tid = sink.task(
                        "cpu",
                        cpu.parallel_time(a.cpu_cells, cpu_work, contiguous),
                        deps=tuple(cpu_extra),
                        label=f"cpu[{a.t}]",
                        kind="compute",
                        iteration=a.t,
                        phase=a.phase,
                    )
                    cpu_extra = []
                    last_cpu = cpu_tid
                if a.gpu_cells:
                    with tracer.span("kernel", cat="kernel", t=a.t, cells=a.gpu_cells):
                        gpu_tid = sink.task(
                            "gpu",
                            gpu.kernel_time(a.gpu_cells, gpu_work, contiguous),
                            deps=tuple(gpu_extra),
                            label=f"gpu[{a.t}]",
                            kind="compute",
                            iteration=a.t,
                            phase=a.phase,
                        )
                    gpu_extra = []
                    last_gpu = gpu_tid

                # ---- boundary transfers ------------------------------------------
                for spec in a.transfers:
                    nbytes = spec.cells * itemsize
                    producer = cpu_tid if spec.direction is TransferDirection.H2D else gpu_tid
                    if producer is None:
                        raise ExecutionError(
                            f"iteration {a.t}: transfer {spec} has no producer task"
                        )
                    kind = staging_kind(spec.kind, self.options.pipeline)
                    streamed = kind is TransferKind.STREAMED
                    direction = spec.direction.value
                    with tracer.span(
                        "transfer", cat="transfer",
                        direction=direction, kind=kind.value,
                        label="boundary", t=a.t, cells=spec.cells,
                    ):
                        tid = sink.task(
                            "copy" if streamed else "bus",
                            xfer.time(nbytes, kind),
                            deps=(producer,),
                            label=f"{direction}[{a.t}]",
                            kind="boundary-transfer",
                            iteration=a.t,
                            direction=direction,
                        )
                        if spec.direction is TransferDirection.H2D:
                            gpu_extra.append(tid)
                            if not streamed:
                                cpu_extra.append(tid)  # host blocked by the copy
                        else:
                            cpu_extra.append(tid)
                            if not streamed:
                                gpu_extra.append(tid)
                        ledger.record(
                            spec.direction, kind, cells=spec.cells, nbytes=nbytes,
                            iteration=a.t,
                        )

        if phase_span is not None:
            phase_span.end()

        # ---- gather the GPU-resident part of the result -----------------------
        if gpu_cells_total:
            out_bytes = gpu_cells_total * itemsize
            with tracer.span(
                "transfer", cat="transfer",
                direction="d2h", kind="pageable", label="result", nbytes=out_bytes,
            ):
                sink.task(
                    "bus",
                    xfer.time(out_bytes, TransferKind.PAGEABLE),
                    deps=() if last_gpu is None else (last_gpu,),
                    label="d2h-result",
                    kind="setup",
                )
                ledger.record(
                    TransferDirection.D2H, TransferKind.PAGEABLE,
                    cells=gpu_cells_total, nbytes=out_bytes, label="result",
                )
        return ledger


def fast_hetero_makespan(
    problem: LDDPProblem,
    platform: Platform,
    params: HeteroParams | None = None,
    options: ExecOptions | None = None,
) -> float:
    """Simulated seconds for a heterogeneous run, without a timeline.

    Replays :class:`HeteroExecutor`'s own task graph into a
    :class:`~repro.sim.engine.Makespan` sink with tracing off: the same
    number as ``estimate(...).simulated_time``, without task records, spans
    or metrics. There is no CPU-only fallback — a device or transfer fault
    raises.
    """
    ex = HeteroExecutor(platform, options)
    strategy, plan = ex._plan(problem, params)
    sink = Makespan()
    ex._build(sink, NullTracer(), problem, strategy, plan)
    return sink.makespan


register_executor("hetero", HeteroExecutor)
