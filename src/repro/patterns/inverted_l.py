"""Inverted-L strategy: split first, CPU-only tail.

Paper Sec. III-C / Fig. 5. Ring width decreases monotonically, so work is
shared from the first iteration and the CPU takes over entirely for the last
``t_switch`` iterations. With rings stored arm-by-arm (see
:class:`~repro.core.schedule.InvertedLSchedule`), a cell at canonical
position ``p`` has its single diagonal parent at position ``p + 1`` of the
previous ring, so exactly one boundary cell crosses the split each iteration
— one-way traffic, pipelined.

The two-arm ring indexing is branchy in a GPU kernel (``gpu_overhead``),
which is why the paper ultimately recommends executing these problems as
horizontal case-1 (Sec. V-B, reproduced by ``benchmarks/bench_fig8_*``).
The same strategy drives mirrored (mInverted-L) schedules.
"""

from __future__ import annotations

from ..core.partition import HeteroParams, Phase, TransferSpec
from ..types import Pattern, TransferDirection, TransferKind
from .base import PatternStrategy

__all__ = ["InvertedLStrategy"]


class InvertedLStrategy(PatternStrategy):
    pattern = Pattern.INVERTED_L
    cpu_overhead = 1.1
    gpu_overhead = 1.6

    def clamp_params(self, params: HeteroParams) -> HeteroParams:
        ts = min(params.t_switch, self.schedule.num_iterations)
        if ts == params.t_switch:
            return params
        return HeteroParams(t_switch=ts, t_share=params.t_share)

    def phase_bounds(self, params: HeteroParams) -> list[Phase]:
        total = self.schedule.num_iterations
        cut = total - params.t_switch
        return [Phase("split", 0, cut), Phase("cpu-low", cut, total)]

    def split_transfers(self) -> tuple[TransferSpec, ...]:
        # CPU's boundary cell (position t_share-1) reads ring t's cell at
        # position t_share, which the GPU computed: one cell, device-to-host.
        return (
            TransferSpec(
                direction=TransferDirection.D2H,
                cells=1,
                kind=TransferKind.STREAMED,
            ),
        )
