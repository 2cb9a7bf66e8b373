"""Multicore CPU cost model.

Reflects the paper's CPU-side strategy (Sec. IV-A): a few heavy-weight OpenMP
threads, each owning a block of cells, with a fork/join barrier per wavefront
iteration. Costs are deterministic functions of the cell count — the model is
a throughput/latency abstraction, not a cycle-accurate simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlatformError
from ..faults import check_fault

__all__ = ["CPUModel"]


@dataclass(frozen=True)
class CPUModel:
    """Cost model for a multicore CPU.

    Parameters
    ----------
    name:
        Marketing name, for reports.
    cores:
        Physical core count.
    threads:
        Logical threads (with SMT); only reported, throughput scales with
        ``cores`` and ``parallel_efficiency``.
    freq_ghz:
        Core clock, for reports.
    cell_ns:
        Nanoseconds for one core to process one unit-work cell sequentially.
    parallel_efficiency:
        Scaling efficiency of the parallel loop in (0, 1]; effective speedup
        over one core is ``1 + (p - 1) * parallel_efficiency`` for ``p``
        participating cores.
    fork_us:
        Microseconds of fork/barrier overhead charged once per parallel
        iteration (an OpenMP ``parallel for`` region).
    strided_penalty:
        Multiplier on ``cell_ns`` when the wavefront is not stored
        contiguously (cache-line waste on strided access); mild compared to
        the GPU's coalescing penalty.
    """

    name: str
    cores: int
    threads: int
    freq_ghz: float
    cell_ns: float
    parallel_efficiency: float = 0.85
    fork_us: float = 3.0
    strided_penalty: float = 1.15

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise PlatformError("cores must be >= 1")
        if self.threads < self.cores:
            raise PlatformError("logical threads cannot be fewer than cores")
        if self.cell_ns <= 0:
            raise PlatformError("cell_ns must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise PlatformError("parallel_efficiency must be in (0, 1]")
        if self.fork_us < 0:
            raise PlatformError("fork_us cannot be negative")
        if self.strided_penalty < 1:
            raise PlatformError("strided_penalty must be >= 1")

    # -- costs (seconds) ----------------------------------------------------

    def speedup(self, cells: int) -> float:
        """Effective parallel speedup for a batch of ``cells`` cells."""
        p = min(self.cores, max(1, cells))
        return 1.0 + (p - 1) * self.parallel_efficiency

    def parallel_time(self, cells: int, work: float = 1.0, contiguous: bool = True) -> float:
        """Seconds for one parallel iteration over ``cells`` cells.

        ``work`` scales the per-cell cost (problem-specific arithmetic
        intensity relative to the unit cell); ``contiguous=False`` applies the
        strided-access penalty. ``machine.cpu`` is a fault-injection site
        (no fallback device exists, so a fault here surfaces as an error).
        """
        check_fault("machine.cpu")
        if cells < 0:
            raise PlatformError("cells cannot be negative")
        if cells == 0:
            return 0.0
        per_cell = self.cell_ns * (1.0 if contiguous else self.strided_penalty)
        compute = cells * work * per_cell * 1e-9 / self.speedup(cells)
        return self.fork_us * 1e-6 + compute

    def blocked_time(
        self, block_cells: list[int] | tuple[int, ...], work: float = 1.0
    ) -> float:
        """Seconds for one fork/join over a batch of *blocks* (Sec. IV-A).

        Each core sweeps whole blocks sequentially (contiguous, no per-cell
        synchronization); cores make as many passes as needed. Load balance
        follows LPT-style greedy assignment, modeled by the max-loaded core
        of a longest-processing-time packing.
        """
        if not block_cells:
            return 0.0
        if any(c < 0 for c in block_cells):
            raise PlatformError("block cell counts cannot be negative")
        loads = [0] * min(self.cores, len(block_cells))
        for c in sorted(block_cells, reverse=True):
            k = loads.index(min(loads))
            loads[k] += c
        return self.fork_us * 1e-6 + max(loads) * work * self.cell_ns * 1e-9

    def sequential_time(self, cells: int, work: float = 1.0, contiguous: bool = True) -> float:
        """Seconds for one core to process ``cells`` cells, no fork cost."""
        if cells < 0:
            raise PlatformError("cells cannot be negative")
        per_cell = self.cell_ns * (1.0 if contiguous else self.strided_penalty)
        return cells * work * per_cell * 1e-9

    @property
    def peak_cells_per_second(self) -> float:
        """Aggregate throughput at full parallel width (unit work)."""
        return self.speedup(self.cores) / (self.cell_ns * 1e-9)

    def marginal_cell_seconds(self, work: float = 1.0, contiguous: bool = True) -> float:
        """Per-cell cost at full parallelism — used by the analytic tuner."""
        per_cell = self.cell_ns * (1.0 if contiguous else self.strided_penalty)
        return work * per_cell * 1e-9 / self.speedup(self.cores)
