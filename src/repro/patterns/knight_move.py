"""Knight-move strategy: three phases, two-way pinned exchange.

Paper Sec. III-D / Fig. 6. The parallelism profile resembles the
anti-diagonal's (ramp, plateau, ramp), so the phase layout is the same
three-phase split. But with wavefronts ``2i + j = t`` ordered by ``j``
(CPU owns the left/bottom cells), the boundary needs *both* directions every
iteration: the GPU's left-most cell reads its W (``t-1``) and NW (``t-3``)
values from the CPU, while the CPU's right-most cell reads its NE (``t-1``)
value from the GPU — Fig. 6's red arrows. Two-way exchange cannot be
pipelined, so it goes through pinned memory (Sec. IV-C2). This is the
scheme of Deshpande et al. for Floyd-Steinberg dithering.
"""

from __future__ import annotations

from ..core.partition import HeteroParams, Phase, TransferSpec
from ..types import Pattern, TransferDirection, TransferKind
from .base import PatternStrategy

__all__ = ["KnightMoveStrategy"]


class KnightMoveStrategy(PatternStrategy):
    pattern = Pattern.KNIGHT_MOVE
    cpu_overhead = 1.05
    gpu_overhead = 1.2  # skewed index arithmetic + divergence

    def clamp_params(self, params: HeteroParams) -> HeteroParams:
        half = self.schedule.num_iterations // 2
        ts = min(params.t_switch, half)
        if ts == params.t_switch:
            return params
        return HeteroParams(t_switch=ts, t_share=params.t_share)

    def phase_bounds(self, params: HeteroParams) -> list[Phase]:
        total = self.schedule.num_iterations
        ts = params.t_switch
        return [
            Phase("cpu-low", 0, ts),
            Phase("split", ts, total - ts),
            Phase("cpu-low", total - ts, total),
        ]

    def split_cpu_cells(self, t: int, width: int, t_share: int) -> int:
        """The CPU owns the fixed left strip of columns ``j < t_share``
        (Fig. 6's split line).

        Wavefront cells sit at ``j = t - 2i`` with the canonical order by
        ``j`` ascending, so the strip is a canonical prefix; its share is
        the count of wavefront columns below ``t_share``.
        """
        rows, cols = self.schedule.rows, self.schedule.cols
        lo = max(0, -((cols - 1 - t) // 2))
        hi = min(rows - 1, t // 2)
        if hi < lo:
            return 0
        # cells have i in [lo, hi]; j = t - 2i < t_share  <=>  i > (t - t_share)/2
        i_min_cpu = (t - t_share) // 2 + 1 if t >= t_share else lo
        return max(0, hi - max(lo, i_min_cpu) + 1)

    def split_transfers(self) -> tuple[TransferSpec, ...]:
        return (
            # W (consumed at t+1) and NW (consumed at t+3) of the GPU edge.
            TransferSpec(TransferDirection.H2D, 2, TransferKind.PINNED),
            # NE (consumed at t+1) of the CPU edge.
            TransferSpec(TransferDirection.D2H, 1, TransferKind.PINNED),
        )
