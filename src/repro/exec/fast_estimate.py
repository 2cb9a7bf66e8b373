"""Closed-form fast path for heterogeneous timing estimates.

Building the full task graph costs ~30 Python-level objects and dict
operations per wavefront; paper-scale sweeps (10^5 iterations) spend seconds
in pure bookkeeping. This module computes the *identical* makespan with a
scalar scan: because every task's start time is ``max(resource available,
max over dep ends)``, and the heterogeneous graph touches only four
resources with a fixed per-iteration wiring, the whole schedule reduces to a
handful of running maxima.

The scan mirrors :class:`repro.exec.hetero.HeteroExecutor`'s graph
construction step for step (setup staging, deferred phase halos, streamed
vs host-blocking copies, result gather); ``tests/test_fast_estimate.py``
asserts exact agreement with the discrete-event engine across patterns,
platforms, parameters and options.
"""

from __future__ import annotations

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..exec.base import ExecOptions, check_control, wavefront_contiguous
from ..exec.blocked import _blocked_grid, _wave_costs
from ..exec.hetero import _HALO_DEPTH
from ..machine.platform import Platform
from ..patterns.registry import strategy_for
from ..types import TransferDirection, TransferKind

__all__ = ["fast_hetero_makespan", "fast_blocked_makespan"]


def fast_hetero_makespan(
    problem: LDDPProblem,
    platform: Platform,
    params: HeteroParams | None = None,
    options: ExecOptions | None = None,
) -> float:
    """Simulated seconds for a heterogeneous run, no task graph."""
    options = options or ExecOptions()
    strategy = strategy_for(
        problem,
        pattern_override=options.pattern_override,
        inverted_l_as_horizontal=options.inverted_l_as_horizontal,
    )
    if params is None:
        from ..tuning.model import analytic_params

        params = analytic_params(problem, platform, strategy)
    params = strategy.clamp_params(params)
    schedule = strategy.schedule
    phases = strategy.phase_bounds(params)

    contiguous = wavefront_contiguous(schedule.pattern, options.use_wavefront_layout)
    cpu_work = problem.cpu_work * strategy.cpu_overhead
    gpu_work = problem.gpu_work * strategy.gpu_overhead
    cpu, gpu, xfer = platform.cpu, platform.gpu, platform.transfer
    itemsize = problem.dtype.itemsize
    halo = _HALO_DEPTH[schedule.pattern]
    t_share = params.t_share

    widths = schedule.widths()

    def cpu_cells_at(t: int, phase_name: str) -> int:
        w = int(widths[t])
        if phase_name == "cpu-low":
            return w
        return strategy.split_cpu_cells(t, w, t_share)

    def phase_of(t: int) -> str:
        for ph in phases:
            if ph.start <= t < ph.stop:
                return ph.name
        raise AssertionError(f"iteration {t} outside phases")  # pragma: no cover

    def gpu_cells_at(t: int) -> int:
        return int(widths[t]) - cpu_cells_at(t, phase_of(t))

    # does the GPU ever get cells?
    gpu_total_cells = 0
    for ph in phases:
        if ph.name == "split":
            for t in range(ph.start, ph.stop):
                w = int(widths[t])
                gpu_total_cells += w - strategy.split_cpu_cells(t, w, t_share)
    gpu_participates = gpu_total_cells > 0

    # precompute the fixed per-iteration transfer recipe of split iterations
    sample_specs = strategy.split_transfers(max(0, schedule.num_iterations // 2))
    recipe = []
    for spec in sample_specs:
        nbytes = spec.cells * itemsize
        streamed = spec.kind is TransferKind.STREAMED and options.pipeline
        kind = (
            spec.kind
            if streamed
            else (
                TransferKind.PINNED
                if spec.kind in (TransferKind.PINNED, TransferKind.STREAMED)
                else TransferKind.PAGEABLE
            )
        )
        recipe.append(
            (spec.direction is TransferDirection.H2D, streamed, xfer.time(nbytes, kind))
        )

    NEG = float("-inf")
    cpu_res = gpu_res = copy_res = bus_res = 0.0
    cpu_extra = gpu_extra = NEG
    last_cpu = last_gpu = NEG
    makespan = 0.0

    if gpu_participates:
        in_bytes = problem.payload_nbytes() + (
            problem.shape[0] * problem.shape[1] - problem.total_computed_cells
        ) * itemsize
        end = bus_res + xfer.time(max(in_bytes, itemsize), TransferKind.PAGEABLE)
        bus_res = end
        gpu_extra = max(gpu_extra, end)
        makespan = max(makespan, end)

    prev_phase: str | None = None
    pending_halo_cells: float | None = None

    for ph in phases:
        for t in range(ph.start, ph.stop):
            if not t & 1023:  # cooperative checkpoint, amortized over the scan
                check_control(options, f"estimate of {problem.name!r}")
            w = int(widths[t])
            c_cells = cpu_cells_at(t, ph.name)
            g_cells = w - c_cells

            # ---- phase transition bookkeeping -----------------------------
            if prev_phase is not None and ph.name != prev_phase:
                lo = max(0, t - halo)
                if ph.name == "split":
                    pending_halo_cells = float(widths[lo:t].sum())
                else:  # split -> cpu-low
                    acc = 0
                    for u in range(lo, t):
                        acc += gpu_cells_at(u)
                    if acc > 0:
                        start = max(bus_res, last_gpu)
                        end = start + xfer.time(acc * itemsize, TransferKind.PAGEABLE)
                        bus_res = end
                        cpu_extra = max(cpu_extra, end)
                        makespan = max(makespan, end)
                    pending_halo_cells = None
            prev_phase = ph.name

            if pending_halo_cells is not None and g_cells > 0:
                cells = pending_halo_cells
                pending_halo_cells = None
                if cells > 0:
                    start = max(bus_res, last_cpu)
                    end = start + xfer.time(int(cells) * itemsize, TransferKind.PAGEABLE)
                    bus_res = end
                    gpu_extra = max(gpu_extra, end)
                    cpu_extra = max(cpu_extra, end)
                    makespan = max(makespan, end)

            # ---- compute tasks --------------------------------------------
            cpu_tid_end = gpu_tid_end = None
            if c_cells:
                start = max(cpu_res, cpu_extra)
                end = start + cpu.parallel_time(c_cells, cpu_work, contiguous)
                cpu_res = end
                cpu_extra = NEG
                last_cpu = end
                cpu_tid_end = end
                makespan = max(makespan, end)
            if g_cells:
                start = max(gpu_res, gpu_extra)
                end = start + gpu.kernel_time(g_cells, gpu_work, contiguous)
                gpu_res = end
                gpu_extra = NEG
                last_gpu = end
                gpu_tid_end = end
                makespan = max(makespan, end)

            # ---- boundary transfers ----------------------------------------
            if c_cells and g_cells:
                for is_h2d, streamed, dur in recipe:
                    producer = cpu_tid_end if is_h2d else gpu_tid_end
                    if streamed:
                        start = max(copy_res, producer)
                        end = start + dur
                        copy_res = end
                    else:
                        start = max(bus_res, producer)
                        end = start + dur
                        bus_res = end
                    if is_h2d:
                        gpu_extra = max(gpu_extra, end)
                        if not streamed:
                            cpu_extra = max(cpu_extra, end)
                    else:
                        cpu_extra = max(cpu_extra, end)
                        if not streamed:
                            gpu_extra = max(gpu_extra, end)
                    makespan = max(makespan, end)

    if gpu_participates:
        start = max(bus_res, last_gpu)
        end = start + xfer.time(gpu_total_cells * itemsize, TransferKind.PAGEABLE)
        makespan = max(makespan, end)

    return makespan


def fast_blocked_makespan(
    problem: LDDPProblem,
    platform: Platform,
    options: ExecOptions | None = None,
    block_size: int | None = None,
) -> float:
    """Simulated seconds for a ``cpu-blocked`` run, no task graph.

    The sum of the blocked executor's own per-wave cost list
    (:func:`repro.exec.blocked._wave_costs`), whose DES serializes one
    LPT-packed :meth:`~repro.machine.cpu.CPUModel.blocked_time` task per
    block wavefront on a single ``cpu`` resource, so the two agree exactly
    (``tests/test_blocking.py`` asserts ``==``) — including the
    ramp-up/ramp-down waves where only a few tiles exist and most cores
    idle behind the barrier. The previous practice of pricing
    blocked runs with :func:`fast_hetero_makespan` had no notion of that
    barrier idle (it models per-cell splits, not fork/joined tiles) and
    systematically underestimated ramp-heavy geometries — a *shape* error
    on Knight-move and native Inverted-L that per-executor EWMA
    calibration cannot repair.
    """
    options = options or ExecOptions()
    block = block_size if block_size is not None else options.block_size
    strategy, grid = _blocked_grid(problem, options, block)
    costs = _wave_costs(problem, platform, options, strategy, grid)
    return sum(seconds for _, _, seconds in costs)
