"""Closed-form parameter estimates from the machine models.

These provide the framework's defaults; the empirical autotuner (paper
Sec. V-A) refines them. Both are exposed so tests can verify the analytic
guess lands near the empirical optimum.
"""

from __future__ import annotations

import math

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..machine.platform import Platform
from ..patterns.base import PatternStrategy
from ..types import Pattern, TransferKind

__all__ = ["crossover_width", "balanced_share", "analytic_params"]


def crossover_width(
    platform: Platform,
    cpu_work: float = 1.0,
    gpu_work: float = 1.0,
    transfer_seconds: float = 0.0,
) -> float:
    """Wavefront width below which the CPU alone beats GPU involvement.

    Solves ``fork + w*c_cpu = launch + xfer + w*c_gpu`` for ``w``, where
    ``xfer`` is any per-iteration boundary-exchange cost the split would add
    (zero for pipelined one-way patterns, the pinned round trip for two-way
    patterns). Returns ``inf`` when the CPU's per-cell cost never exceeds the
    GPU's (the GPU then never pays off and everything is a low-work region).
    """
    cpu, gpu = platform.cpu, platform.gpu
    c_c = cpu.marginal_cell_seconds(cpu_work)
    c_g = gpu.marginal_cell_seconds(gpu_work)
    if c_c <= c_g:
        return math.inf
    gap = gpu.launch_us * 1e-6 + transfer_seconds - cpu.fork_us * 1e-6
    if gap <= 0:
        return 0.0
    return gap / (c_c - c_g)


def balanced_share(
    platform: Platform,
    width: int,
    cpu_work: float = 1.0,
    gpu_work: float = 1.0,
    transfer_seconds: float = 0.0,
) -> int:
    """CPU prefix length minimizing the per-iteration critical path.

    Minimizes ``max(cpu_time(x), gpu_time(w - x) + xfer)`` over
    ``x in [0, width]`` using the *exact* cost models (which are piecewise —
    a kernel below the GPU's resident-lane count is latency-bound, where the
    linearized balance of the paper's back-of-envelope would misplace the
    split). ``cpu_time`` is non-decreasing and ``gpu_time`` non-increasing in
    ``x``, so the max is unimodal and a bisection on the crossing suffices.
    """
    cpu, gpu = platform.cpu, platform.gpu

    def cpu_t(x: int) -> float:
        return cpu.parallel_time(x, cpu_work)

    def gpu_t(x: int) -> float:
        return gpu.kernel_time(width - x, gpu_work) + (
            transfer_seconds if 0 < x < width else 0.0
        )

    lo, hi = 0, width
    while lo < hi:
        mid = (lo + hi) // 2
        if cpu_t(mid) < gpu_t(mid):
            lo = mid + 1
        else:
            hi = mid
    candidates = {max(0, lo - 1), lo, min(width, lo + 1), 0, width}
    return min(candidates, key=lambda x: max(cpu_t(x), gpu_t(x)))


def _ramp_t_switch(widths: list[int], w_star: float, from_end: bool) -> int:
    """Count iterations (from one end) whose width stays below ``w_star``."""
    count = 0
    for w in reversed(widths) if from_end else widths:
        if w > w_star:
            break
        count += 1
    return count


def analytic_params(
    problem: LDDPProblem,
    platform: Platform,
    strategy: PatternStrategy,
) -> HeteroParams:
    """Model-based ``(t_switch, t_share)`` for a problem on a platform."""
    cpu_work = problem.cpu_work * strategy.cpu_overhead
    gpu_work = problem.gpu_work * strategy.gpu_overhead
    xfer_s = strategy.per_iteration_transfer_seconds(
        platform, problem.dtype.itemsize
    )
    w_star = crossover_width(platform, cpu_work, gpu_work, xfer_s)
    sched = strategy.schedule
    total = sched.num_iterations
    all_widths = sched.widths().tolist()

    pattern = sched.pattern
    if pattern in (Pattern.HORIZONTAL, Pattern.VERTICAL):
        t_switch = 0
    elif pattern in (Pattern.INVERTED_L, Pattern.MINVERTED_L):
        # Width only shrinks: the low-work region is the tail.
        t_switch = min(total, _ramp_t_switch(all_widths, w_star, from_end=True))
    else:  # anti-diagonal, knight-move: symmetric ramps
        t_switch = min(total // 2, _ramp_t_switch(all_widths, w_star, from_end=False))

    # Share against the widest wavefront of the split region; narrower
    # iterations simply cap the CPU prefix at their width.
    if pattern in (Pattern.INVERTED_L, Pattern.MINVERTED_L):
        split_range = range(0, total - t_switch)  # tail is CPU-only
    elif pattern in (Pattern.HORIZONTAL, Pattern.VERTICAL):
        split_range = range(0, total)
    else:
        split_range = range(t_switch, total - t_switch)
    widths = all_widths[split_range.start:split_range.stop]
    w_ref = max(widths, default=0)
    if not w_ref:
        return HeteroParams(t_switch=t_switch, t_share=0)

    # Pick the best of {optimal split, pure CPU, pure GPU} over the split
    # region, amortizing the bulk staging copies a GPU-touching choice pays:
    # the payload upload plus downloading whatever the GPU computed. This is
    # what lets the framework fall back to the pure CPU when a problem's
    # data simply is not worth shipping across PCIe (e.g. a cost grid as
    # large as the table itself).
    cpu, gpu, xfer = platform.cpu, platform.gpu, platform.transfer
    itemsize = problem.dtype.itemsize
    n_split = len(widths)
    cells_split = sum(widths)
    in_bytes = problem.payload_nbytes()

    x = balanced_share(platform, w_ref, cpu_work, gpu_work, xfer_s)
    gpu_cells_split = sum(max(0, w - x) for w in widths)
    split_obj = (
        n_split * (
            max(
                cpu.parallel_time(x, cpu_work),
                gpu.kernel_time(w_ref - x, gpu_work),
            )
            + (xfer_s if 0 < x < w_ref else 0.0)
        )
        + xfer.time(in_bytes, TransferKind.PAGEABLE)
        + xfer.time(gpu_cells_split * itemsize, TransferKind.PAGEABLE)
    )
    cpu_obj = n_split * cpu.parallel_time(w_ref, cpu_work)
    gpu_obj = (
        n_split * gpu.kernel_time(w_ref, gpu_work)
        + xfer.time(in_bytes, TransferKind.PAGEABLE)
        + xfer.time(cells_split * itemsize, TransferKind.PAGEABLE)
    )
    best = min(split_obj, cpu_obj, gpu_obj)
    if best == cpu_obj:
        t_share = w_ref
    elif best == gpu_obj:
        t_share = 0
    else:
        t_share = x
    return HeteroParams(t_switch=t_switch, t_share=t_share)
