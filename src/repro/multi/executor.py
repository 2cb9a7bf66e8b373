"""The generalized CPU + N-accelerator executor.

Task-graph construction mirrors :class:`repro.exec.hetero.HeteroExecutor`,
with one compute segment per device per iteration and boundary copies at
each cut between adjacent non-empty segments:

* a cut with the CPU on its left behaves exactly like the paper's split
  (streamed pipeline / pinned exchange on that accelerator's own link);
* a cut between two accelerators moves its boundary cells peer-to-peer —
  directly when the platform supports it, else staged through host memory
  (both links, host blocked).

Resilience mirrors the two-device executor: an accelerator or link model
failure degrades the run to CPU-only, and deadline / cancel control is
checked once per assignment.
"""

from __future__ import annotations

from ..core.problem import LDDPProblem
from ..errors import ExecutionError
from ..exec.base import (
    Executor,
    SolveResult,
    check_control,
    evaluate_span,
    wavefront_contiguous,
)
from ..exec.hetero import _HALO_DEPTH
from ..machine.transfer import staging_kind
from ..memory.buffers import TransferLedger
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from ..sim.engine import Engine
from ..types import TransferDirection, TransferKind
from .partition import MultiParams, segment_bounds
from .platform import MultiPlatform
from .tuning import multi_analytic_params

__all__ = ["MultiHeteroExecutor"]


class MultiHeteroExecutor(Executor):
    """Heterogeneous execution across a :class:`MultiPlatform`.

    Note: unlike the two-device executors this one takes a
    :class:`MultiPlatform` (its ``platform`` attribute shadows the base
    class's meaning of a two-device platform).

    Split semantics: segments are plain canonical-position prefixes
    (``segment_bounds``), not the per-pattern strips the two-device
    executor uses. Functionally identical; for ramp patterns the timing
    model therefore treats every cut as exchanging in the pattern's
    declared directions even where a strip split would need fewer — a
    conservative approximation, acceptable for the extension study.
    """

    name = "multi-hetero"

    def __init__(self, platform: MultiPlatform, options=None) -> None:
        # Deliberately not calling super().__init__: the platform type
        # differs. Options handling matches the base class.
        from ..exec.base import ExecOptions

        self.platform = platform
        self.options = options or ExecOptions()

    def _run(self, problem, functional, params=None) -> SolveResult:
        return self._run_or_cpu(self._run_multi, problem, functional, params)

    def _run_multi(
        self,
        problem: LDDPProblem,
        functional: bool,
        params: MultiParams | None = None,
    ) -> SolveResult:
        plat = self.platform
        strategy = strategy_for(
            problem,
            pattern_override=self.options.pattern_override,
            inverted_l_as_horizontal=self.options.inverted_l_as_horizontal,
        )
        if params is None:
            params = multi_analytic_params(problem, plat, strategy)
        if len(params.shares) != plat.num_devices:
            raise ExecutionError(
                f"params carry {len(params.shares)} shares, platform has "
                f"{plat.num_devices} devices"
            )
        schedule = strategy.schedule
        what = f"solve of {problem.name!r}"
        # reuse the pattern's phase layout via a two-device plan skeleton
        from ..core.partition import HeteroParams

        skeleton = strategy.plan(HeteroParams(params.t_switch, 0))

        contiguous = wavefront_contiguous(
            schedule.pattern, self.options.use_wavefront_layout
        )
        cpu_work = problem.cpu_work * strategy.cpu_overhead
        acc_work = problem.gpu_work * strategy.gpu_overhead
        itemsize = problem.dtype.itemsize
        halo = _HALO_DEPTH[schedule.pattern]
        n_acc = len(plat.accelerators)

        table = aux = None
        if functional:
            table = problem.make_table()
            aux = problem.make_aux()

        engine = Engine()
        ledger = TransferLedger()
        tracer = get_tracer()
        root = tracer.span(
            "multi-hetero.solve", cat="executor",
            problem=problem.name, pattern=schedule.pattern.value,
            functional=functional, devices=plat.num_devices,
        )

        try:
            # -- setup: stage the payload to every accelerator with work -----
            acc_cells_total = [0] * n_acc
            seg_cache: dict[int, list[tuple[int, int]]] = {}

            def segments_for(a) -> list[tuple[int, int]]:
                if a.phase == "cpu-low":
                    return [(0, a.width)] + [(a.width, a.width)] * n_acc
                if a.width not in seg_cache:
                    seg_cache[a.width] = segment_bounds(a.width, params.shares)
                return seg_cache[a.width]

            for a in skeleton.assignments:
                segs = segments_for(a)
                for k in range(n_acc):
                    lo, hi = segs[k + 1]
                    acc_cells_total[k] += hi - lo

            in_bytes = self._payload_nbytes(problem) + (
                problem.shape[0] * problem.shape[1] - problem.total_computed_cells
            ) * itemsize
            dev_extra: list[list[int]] = [[] for _ in range(plat.num_devices)]
            for k in range(n_acc):
                if acc_cells_total[k] > 0:
                    with tracer.span(
                        "transfer", cat="transfer", direction="h2d",
                        kind="pageable", label="setup", device=f"acc{k}",
                        nbytes=in_bytes,
                    ):
                        tid = engine.task(
                            "bus",
                            plat.links[k].time(max(in_bytes, itemsize), TransferKind.PAGEABLE),
                            label=f"h2d-setup[acc{k}]",
                            kind="setup",
                        )
                        dev_extra[k + 1].append(tid)
                        ledger.record(
                            TransferDirection.H2D, TransferKind.PAGEABLE,
                            cells=0, nbytes=in_bytes, label=f"setup-acc{k}",
                        )

            dev_last: list[int | None] = [None] * plat.num_devices
            halo_pending: list[int | None] = [None] * plat.num_devices  # cells
            prev_phase: str | None = None
            phase_span = None

            for a in skeleton.assignments:
                check_control(self.options, what)
                segs = segments_for(a)

                if prev_phase is None or a.phase != prev_phase:
                    if phase_span is not None:
                        phase_span.end()
                    phase_span = tracer.span(
                        f"phase:{a.phase}", cat="phase", phase=a.phase, start=a.t,
                    )

                # -- phase transitions --------------------------------------
                if prev_phase is not None and a.phase != prev_phase:
                    lo_t = max(0, a.t - halo)
                    if a.phase == "split":
                        halo_cells = sum(schedule.width(u) for u in range(lo_t, a.t))
                        for k in range(n_acc):
                            halo_pending[k + 1] = halo_cells
                    else:  # split -> cpu-low: gather each accelerator's halo
                        for k in range(n_acc):
                            acc_halo = 0
                            for u in range(lo_t, a.t):
                                w_u = schedule.width(u)
                                s = segment_bounds(w_u, params.shares)[k + 1]
                                acc_halo += s[1] - s[0]
                            if acc_halo > 0 and dev_last[k + 1] is not None:
                                nbytes = acc_halo * itemsize
                                with tracer.span(
                                    "transfer", cat="transfer", direction="d2h",
                                    kind="pageable", label="phase-halo", t=a.t,
                                    device=f"acc{k}", cells=acc_halo,
                                ):
                                    tid = engine.task(
                                        "bus",
                                        plat.links[k].time(nbytes, TransferKind.PAGEABLE),
                                        deps=(dev_last[k + 1],),
                                        label=f"d2h-halo[acc{k}@{a.t}]",
                                        kind="phase-transfer",
                                    )
                                    dev_extra[0].append(tid)
                                    ledger.record(
                                        TransferDirection.D2H, TransferKind.PAGEABLE,
                                        cells=acc_halo, nbytes=nbytes, label="phase-halo",
                                    )
                            halo_pending[k + 1] = None
                prev_phase = a.phase

                # -- compute tasks ------------------------------------------
                wf_span = tracer.span(
                    "wavefront", cat="wavefront", t=a.t, phase=a.phase, width=a.width,
                )
                iter_tids: list[int | None] = [None] * plat.num_devices
                for d in range(plat.num_devices):
                    lo, hi = segs[d]
                    cells = hi - lo
                    if cells <= 0:
                        continue
                    if d > 0 and halo_pending[d] is not None:
                        pend = halo_pending[d]
                        halo_pending[d] = None
                        if pend:
                            nbytes = pend * itemsize
                            with tracer.span(
                                "transfer", cat="transfer", direction="h2d",
                                kind="pageable", label="phase-halo", t=a.t,
                                device=f"acc{d - 1}", cells=pend,
                            ):
                                tid = engine.task(
                                    "bus",
                                    plat.links[d - 1].time(nbytes, TransferKind.PAGEABLE),
                                    deps=() if dev_last[0] is None else (dev_last[0],),
                                    label=f"h2d-halo[acc{d - 1}@{a.t}]",
                                    kind="phase-transfer",
                                )
                                dev_extra[d].append(tid)
                                dev_extra[0].append(tid)  # host blocked
                                ledger.record(
                                    TransferDirection.H2D, TransferKind.PAGEABLE,
                                    cells=pend, nbytes=nbytes, label="phase-halo",
                                )
                    if functional:
                        evaluate_span(
                            problem, schedule, table, aux, a.t, lo, hi,
                            options=self.options,
                        )
                    if d == 0:
                        duration = plat.cpu.parallel_time(cells, cpu_work, contiguous)
                    else:
                        duration = plat.accelerators[d - 1].kernel_time(
                            cells, acc_work, contiguous
                        )
                    with tracer.span(
                        "kernel" if d > 0 else "cpu-batch",
                        cat="kernel" if d > 0 else "compute",
                        t=a.t, device=plat.device_name(d), cells=cells,
                    ):
                        tid = engine.task(
                            plat.device_name(d),
                            duration,
                            deps=tuple(dev_extra[d]),
                            label=f"{plat.device_name(d)}[{a.t}]",
                            kind="compute",
                            iteration=a.t,
                            phase=a.phase,
                        )
                    dev_extra[d] = []
                    dev_last[d] = tid
                    iter_tids[d] = tid

                # -- boundary copies between adjacent non-empty segments ----
                active = [d for d in range(plat.num_devices) if iter_tids[d] is not None]
                for left, right in zip(active, active[1:]):
                    for spec in strategy.split_transfers():
                        nbytes = spec.cells * itemsize
                        toward_right = spec.direction is TransferDirection.H2D
                        src = left if toward_right else right
                        dst = right if toward_right else left
                        self._boundary_copy(
                            engine, plat, ledger, dev_extra, iter_tids,
                            src, dst, spec, nbytes, a.t,
                        )
                wf_span.end()

            if phase_span is not None:
                phase_span.end()
                phase_span = None

            # -- gather each accelerator's share of the result ---------------
            for k in range(n_acc):
                if acc_cells_total[k] > 0:
                    nbytes = acc_cells_total[k] * itemsize
                    with tracer.span(
                        "transfer", cat="transfer", direction="d2h",
                        kind="pageable", label="result", device=f"acc{k}",
                        cells=acc_cells_total[k],
                    ):
                        engine.task(
                            "bus",
                            plat.links[k].time(nbytes, TransferKind.PAGEABLE),
                            deps=() if dev_last[k + 1] is None else (dev_last[k + 1],),
                            label=f"d2h-result[acc{k}]",
                            kind="setup",
                        )
                        ledger.record(
                            TransferDirection.D2H, TransferKind.PAGEABLE,
                            cells=acc_cells_total[k], nbytes=nbytes, label="result",
                        )

            timeline = engine.run()
        finally:
            # Out-of-order exit closes any phase/wavefront span a fault or
            # cancellation left open mid-iteration.
            root.end()
        metrics = get_metrics()
        metrics.counter("exec.multi-hetero.cells").inc(problem.total_computed_cells)
        for rec in ledger.records:
            metrics.counter(
                f"exec.multi-hetero.transfers.{rec.direction.value}"
            ).inc()
        self._maybe_validate(timeline)
        util = {
            plat.device_name(d): timeline.utilization(plat.device_name(d))
            for d in range(plat.num_devices)
        }
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
                "t_switch": params.t_switch,
                "shares": params.shares,
                "acc_cells": tuple(acc_cells_total),
                "utilization": util,
            },
        )

    def _boundary_copy(
        self, engine, plat, ledger, dev_extra, iter_tids, src, dst, spec, nbytes, t
    ) -> None:
        producer = iter_tids[src]
        if src == 0 or dst == 0:
            acc = (src if src > 0 else dst) - 1
            kind = staging_kind(spec.kind, self.options.pipeline)
            streamed = kind is TransferKind.STREAMED
            duration = plat.links[acc].time(nbytes, kind)
            resource = f"copy{acc}" if streamed else "bus"
        else:
            kind = staging_kind(spec.kind, pipeline=False)
            streamed = False
            duration = plat.peer_time(src - 1, dst - 1, nbytes)
            resource = "bus"  # staged through the host (or host-arbitrated P2P)
        with get_tracer().span(
            "transfer", cat="transfer", direction=spec.direction.value,
            label="boundary", t=t,
            src=plat.device_name(src), dst=plat.device_name(dst),
            cells=spec.cells,
        ):
            tid = engine.task(
                resource,
                duration,
                deps=(producer,),
                label=f"{plat.device_name(src)}->{plat.device_name(dst)}[{t}]",
                kind="boundary-transfer",
                iteration=t,
                direction=spec.direction.value,
            )
        dev_extra[dst].append(tid)
        if not streamed:
            dev_extra[src].append(tid)  # synchronous copies stall the source
            if src != 0 and dst != 0:
                dev_extra[0].append(tid)  # host staging blocks the CPU too
        ledger.record(
            spec.direction, kind, cells=spec.cells, nbytes=nbytes, iteration=t,
        )
