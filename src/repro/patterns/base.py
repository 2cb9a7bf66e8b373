"""Strategy ABC: turns (schedule, params) into a :class:`PhasePlan`."""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..core.partition import (
    HeteroParams,
    IterationAssignment,
    Phase,
    PhasePlan,
    TransferSpec,
)
from ..core.schedule import WavefrontSchedule
from ..errors import PartitionError
from ..machine.transfer import staging_kind
from ..types import ContributingSet, Pattern, TransferKind

__all__ = ["PatternStrategy"]


class PatternStrategy(ABC):
    """Heterogeneous execution strategy for one canonical pattern.

    Parameters
    ----------
    schedule:
        The wavefront schedule the plan will cover. Its pattern need not be
        the strategy's nominal pattern — e.g. the horizontal strategy also
        drives vertical schedules (symmetry) and inverted-L *problems*
        re-scheduled as rows (paper Sec. V-B).
    contributing:
        The problem's contributing set; decides transfer directions.
    """

    #: Nominal pattern this strategy implements.
    pattern: Pattern
    #: Addressing-overhead multipliers on the machine models' per-cell cost.
    #: They encode index-arithmetic/divergence cost of non-row wavefronts
    #: (GPU kernels suffer far more than CPU loops — paper Sec. V-B).
    cpu_overhead: float = 1.0
    gpu_overhead: float = 1.0

    def __init__(self, schedule: WavefrontSchedule, contributing: ContributingSet) -> None:
        self.schedule = schedule
        self.contributing = contributing

    # -- per-pattern hooks ---------------------------------------------------

    @abstractmethod
    def phase_bounds(self, params: HeteroParams) -> list[Phase]:
        """The phase layout over ``[0, num_iterations)``."""

    @abstractmethod
    def split_transfers(self) -> tuple[TransferSpec, ...]:
        """Boundary copies issued after every split iteration.

        The recipe is a per-strategy constant: which cells cross the CPU/GPU
        cut depends on the pattern and contributing set, not on ``t``.
        """

    # -- common machinery -----------------------------------------------------

    def clamp_params(self, params: HeteroParams) -> HeteroParams:
        """Clamp ``t_switch`` so phases fit; subclasses refine."""
        return params

    def split_cpu_cells(self, t: int, width: int, t_share: int) -> int:
        """How many canonical-prefix cells the CPU takes in split iteration t.

        Default: the first ``t_share`` cells (constant-width patterns).
        Ramp patterns override this with a *strip* rule (fixed rows/columns,
        paper Figs. 3 and 6): a plain positional prefix would drift across
        the table in the shrinking half and reverse boundary-transfer
        directions (violating Table II).
        """
        return min(t_share, width)

    def plan(self, params: HeteroParams) -> PhasePlan:
        """Materialize the full iteration-by-iteration plan."""
        params = self.clamp_params(params)
        phases = self.phase_bounds(params)
        self._check_phases(phases)
        widths = self.schedule.widths().tolist()
        recipe = self.split_transfers()
        assignments: list[IterationAssignment] = []
        for ph in phases:
            for t in range(ph.start, ph.stop):
                width = widths[t]
                if ph.name == "cpu-low":
                    cpu, gpu = width, 0
                else:  # "split"
                    cpu = self.split_cpu_cells(t, width, params.t_share)
                    gpu = width - cpu
                transfers = recipe if (cpu > 0 and gpu > 0) else ()
                assignments.append(
                    IterationAssignment(
                        t=t, phase=ph.name, cpu_cells=cpu, gpu_cells=gpu,
                        transfers=transfers,
                    )
                )
        return PhasePlan(
            pattern=self.pattern, params=params, phases=phases,
            assignments=assignments,
        )

    def _check_phases(self, phases: list[Phase]) -> None:
        t = 0
        for ph in phases:
            if ph.start != t or ph.stop < ph.start:
                raise PartitionError(f"phase {ph} does not tile the iterations")
            t = ph.stop
        if t != self.schedule.num_iterations:
            raise PartitionError(
                f"phases cover [0, {t}), schedule has "
                f"{self.schedule.num_iterations} iterations"
            )

    def per_iteration_transfer_seconds(
        self, platform, itemsize: int, pipeline: bool = True
    ) -> float:
        """Boundary-exchange cost on the critical path of one split iteration.

        Pipelined (streamed) copies overlap compute and cost ~nothing on the
        critical path; pinned/pageable copies stall both devices. Used by the
        analytic tuner to position ``t_switch``/``t_share`` for two-way
        patterns.
        """
        total = 0.0
        for spec in self.split_transfers():
            kind = staging_kind(spec.kind, pipeline)
            if kind is not TransferKind.STREAMED:
                total += platform.transfer.time(spec.cells * itemsize, kind)
        return total

    # -- description -----------------------------------------------------------

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(schedule={self.schedule!r}, cs={self.contributing})"
