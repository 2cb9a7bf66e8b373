"""Horizontal strategy: one phase, constant-width split rows.

Paper Sec. III-B / Fig. 4. Width is constant, so work is shared from the very
first iteration with a fixed ``t_share`` (no ``t_switch``). Transfers depend
on the contributing set (paper's case-1 vs case-2):

* ``{N}`` (or any set whose cross-split deps vanish): no transfer;
* a left-pointing dep (NW after canonical orientation): CPU->GPU, pipelined;
* a right-pointing dep (NE): GPU->CPU, pipelined;
* both: two-way exchange through pinned memory (case-2, Sec. IV-C2).

The same strategy drives vertical schedules (columns instead of rows, with
the contributing set transposed) and inverted-L problems re-scheduled as rows
(paper Sec. V-B).
"""

from __future__ import annotations

from ..core.classification import classify
from ..core.partition import HeteroParams, Phase, TransferSpec
from ..core.schedule import WavefrontSchedule
from ..types import ContributingSet, Pattern, TransferDirection, TransferKind
from .base import PatternStrategy

__all__ = ["HorizontalStrategy"]


class HorizontalStrategy(PatternStrategy):
    pattern = Pattern.HORIZONTAL
    cpu_overhead = 1.0
    gpu_overhead = 1.0

    def __init__(self, schedule: WavefrontSchedule, contributing: ContributingSet) -> None:
        super().__init__(schedule, contributing)
        # Orient the set so "left" means lower canonical position. A vertical
        # problem executed as columns has W/NW playing the roles N/NW play
        # for rows; transposing maps it onto the row picture.
        cs = contributing
        if classify(cs) is Pattern.VERTICAL:
            cs = cs.transposed()
        self._needs_h2d = cs.nw  # GPU boundary cell reads a CPU cell
        self._needs_d2h = cs.ne  # CPU boundary cell reads a GPU cell
        self._two_way = self._needs_h2d and self._needs_d2h

    @property
    def case(self) -> int:
        """Paper's case-1 (<= one-way) vs case-2 (two-way)."""
        return 2 if self._two_way else 1

    def phase_bounds(self, params: HeteroParams) -> list[Phase]:
        return [Phase("split", 0, self.schedule.num_iterations)]

    def split_transfers(self) -> tuple[TransferSpec, ...]:
        kind = TransferKind.PINNED if self._two_way else TransferKind.STREAMED
        out: list[TransferSpec] = []
        if self._needs_h2d:
            out.append(TransferSpec(TransferDirection.H2D, 1, kind))
        if self._needs_d2h:
            out.append(TransferSpec(TransferDirection.D2H, 1, kind))
        return tuple(out)
