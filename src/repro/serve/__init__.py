"""Concurrent solve service: queue + worker pool + content-keyed result cache.

The production-traffic layer over :class:`~repro.core.framework.Framework`
(see ``docs/serving.md``): requests go onto a bounded priority queue, a
worker pool drains them, repeated problems resolve from an LRU cache of
bit-identical results, and the whole path is observable through
:mod:`repro.obs`. With ``coalesce_window > 0`` a worker additionally waits
a short window and drains batch-compatible queued requests (same
:func:`~repro.batch.batch_key`) into one batched execution — see
``docs/batching.md``.

    from repro.serve import ServiceConfig, SolveRequest, SolveService

    with SolveService(config=ServiceConfig(workers=4)) as svc:
        result = svc.solve(problem)                 # sync convenience
        pending = svc.submit(SolveRequest(problem)) # async future
        result = pending.result(timeout=1.0)

Rejections and expiries surface as :class:`~repro.errors.ServiceOverloaded`,
:class:`~repro.errors.ServiceTimeout` and :class:`~repro.errors.ServiceClosed`.
"""

from .backends import ProcessPoolBackend, ThreadBackend
from .cache import ResultCache
from .config import BACKENDS, ServiceConfig
from .request import SolveRequest, problem_signature, request_key
from .service import PendingSolve, SolveService
from .shm import SegmentIndex

__all__ = [
    "BACKENDS",
    "ProcessPoolBackend",
    "ResultCache",
    "SegmentIndex",
    "ServiceConfig",
    "SolveRequest",
    "PendingSolve",
    "SolveService",
    "ThreadBackend",
    "problem_signature",
    "request_key",
]
