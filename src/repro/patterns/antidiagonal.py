"""Anti-diagonal strategy: three phases, one-way pipelined transfers.

Paper Sec. III-A / Fig. 3. The wavefront width ramps 1, 2, ... up to the main
diagonal and back down, so the CPU alone handles the first and last
``t_switch`` iterations (low-work regions) and the middle iterations are
split. The CPU owns the *top* strip (small ``i``); a GPU boundary cell then
needs the CPU-computed cells from the previous two anti-diagonals (its N from
``t-1`` and NW from ``t-2``), giving one-way CPU->GPU traffic that the
pipeline hides (Sec. IV-C1).
"""

from __future__ import annotations

from ..core.partition import HeteroParams, Phase, TransferSpec
from ..types import Pattern, TransferDirection, TransferKind
from .base import PatternStrategy

__all__ = ["AntiDiagonalStrategy"]


class AntiDiagonalStrategy(PatternStrategy):
    pattern = Pattern.ANTI_DIAGONAL
    cpu_overhead = 1.0
    gpu_overhead = 1.1  # diagonal index arithmetic in the kernel

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
        """The CPU owns the fixed top strip of rows ``i < t_share`` (Fig. 3).

        On diagonal ``t`` those are canonical-prefix cells (the order is
        ``i`` ascending); in the shrinking half the diagonal's row range
        starts at ``lo > 0``, so the strip's share thins out and eventually
        vanishes — keeping every cross-boundary dependency CPU -> GPU.
        """
        lo = max(0, t - self.schedule.cols + 1)
        hi = min(self.schedule.rows - 1, t)
        return max(0, min(hi + 1, t_share) - lo)

    def split_transfers(self) -> tuple[TransferSpec, ...]:
        # Two boundary cells feed the GPU's next iterations: the CPU strip's
        # last cell of this diagonal (read as NW at t+2, N at t+1).
        return (
            TransferSpec(
                direction=TransferDirection.H2D,
                cells=2,
                kind=TransferKind.STREAMED,
            ),
        )
