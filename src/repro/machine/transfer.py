"""Host<->device transfer cost model (paper Sec. IV-C).

Three staging kinds:

* ``PAGEABLE`` — plain synchronous ``cudaMemcpy`` through pageable host
  memory: highest latency, and it stalls *both* devices (the calling CPU
  thread blocks, the GPU stream serializes behind it).
* ``PINNED`` — page-locked staging buffers: much lower latency for the small
  boundary exchanges of two-way patterns (paper Sec. IV-C2).
* ``STREAMED`` — asynchronous copy on the dedicated copy engine, overlappable
  with compute on both devices (the paper's pipelining scheme, Sec. IV-C1).
  Async copies require pinned memory, so the per-byte cost equals ``PINNED``;
  the difference is purely scheduling, handled by :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransferError
from ..faults import check_fault
from ..types import TransferKind

__all__ = ["TransferModel", "staging_kind"]


def staging_kind(kind: TransferKind, pipeline: bool) -> TransferKind:
    """The staging kind a boundary copy of declared ``kind`` runs with.

    A streamed copy stays on the copy engine only when pipelining is on;
    otherwise it becomes a host-blocking pinned exchange, like a pinned one.
    Pageable stays pageable.
    """
    if kind is TransferKind.STREAMED and pipeline:
        return kind
    if kind is TransferKind.PAGEABLE:
        return kind
    return TransferKind.PINNED


@dataclass(frozen=True)
class TransferModel:
    """PCIe link cost model.

    Parameters
    ----------
    pageable_latency_us / pageable_gbps:
        Fixed setup latency and bandwidth for pageable copies (includes the
        driver's staging copy, hence lower bandwidth).
    pinned_latency_us / pinned_gbps:
        Latency and bandwidth for page-locked copies. Latency is what matters
        for the few-cell boundary exchanges.
    """

    pageable_latency_us: float = 20.0
    pageable_gbps: float = 5.0
    pinned_latency_us: float = 1.5
    pinned_gbps: float = 6.5

    def __post_init__(self) -> None:
        if min(self.pageable_latency_us, self.pinned_latency_us) < 0:
            raise TransferError("latencies cannot be negative")
        if min(self.pageable_gbps, self.pinned_gbps) <= 0:
            raise TransferError("bandwidths must be positive")

    def time(self, nbytes: int, kind: TransferKind) -> float:
        """Seconds to move ``nbytes`` with the given staging kind.

        ``machine.transfer`` is a fault-injection site (a flaky PCIe link);
        the hetero/multi executors treat it like a device failure and degrade
        to CPU-only execution.
        """
        check_fault("machine.transfer")
        if nbytes < 0:
            raise TransferError(f"nbytes cannot be negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        if kind is TransferKind.PAGEABLE:
            lat, bw = self.pageable_latency_us, self.pageable_gbps
        elif kind in (TransferKind.PINNED, TransferKind.STREAMED):
            lat, bw = self.pinned_latency_us, self.pinned_gbps
        else:  # pragma: no cover - enum is closed
            raise TransferError(f"unknown transfer kind {kind!r}")
        return lat * 1e-6 + nbytes / (bw * 1e9)
