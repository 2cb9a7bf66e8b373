"""`ServiceConfig` — the one documented way to configure a solve service.

Six PRs of growth left :class:`~repro.serve.SolveService` with a sprawling
constructor (queue, cache, coalescing, SLO, backoff kwargs). This module
redesigns that surface into a single frozen dataclass:

* ``ServiceConfig`` holds every service knob, validates once at
  construction, and is immutable — a config can be shared, logged
  (``describe()``), and echoed back verbatim from ``stats()["config"]``;
* ``backend`` selects the execution backend: ``"thread"`` (the in-process
  worker pool of PRs 2-6) or ``"process"`` (the process pool with
  shared-memory result transport — see :mod:`repro.serve.backends`).

Usage::

    from repro.serve import ServiceConfig, SolveService

    cfg = ServiceConfig(backend="process", workers=4, cache_size=256)
    with SolveService(platform, config=cfg) as svc:
        ...
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from ..exec.base import ExecOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..slo import SLOPolicy

__all__ = ["ServiceConfig", "BACKENDS"]

#: Recognised execution backends (``ServiceConfig.backend``).
BACKENDS = ("thread", "process")

DELTA_NEEDS_THREADS = (
    "delta solving needs the thread backend: the process backend's "
    "shared-memory cache keeps no base payloads to patch from"
)


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of one :class:`~repro.serve.SolveService`, validated once.

    Parameters
    ----------
    backend:
        ``"thread"`` — solves run on the service's worker threads inside
        this process (one GIL; best for cache-heavy or I/O-light traffic).
        ``"process"`` — solves run in a pool of spawned worker processes,
        result tables return zero-copy through POSIX shared memory, and
        requests shard across workers by consistent-hashed batch key (see
        ``docs/serving.md`` — "Choosing a backend").
    workers:
        Execution concurrency: worker threads, and (process backend) worker
        processes paired 1:1 with the dispatch threads.
    queue_size:
        Maximum waiting requests before ``submit`` raises
        :class:`~repro.errors.ServiceOverloaded`.
    cache_size:
        Result-cache capacity; ``0`` disables caching. Thread backend: LRU
        of frozen heap copies (hits are fresh writable copies). Process
        backend: LRU *segment index* over the shared-memory result blocks
        (hits are zero-copy read-only views; copy to mutate).
    default_timeout:
        Deadline (seconds from submission) for requests without their own.
    retries:
        Retries for a *failed* execution (timeouts/cancellations excluded).
    backoff_base / backoff_max:
        Exponential retry backoff schedule (jittered).
    options:
        Service-wide :class:`~repro.exec.base.ExecOptions`; per-request
        overrides still apply. ``delta=True`` requires the thread backend.
    coalesce_window:
        Seconds a worker whose request will execute (it survived its
        cache, delta, expiry and cancellation checks) waits for
        batch-compatible requests to coalesce into one stacked execution
        (``0`` disables).
    max_batch:
        Cap on requests coalesced into one batched execution.
    slo:
        Optional :class:`~repro.slo.SLOPolicy` enabling the policy brain
        (admission, EDF, quotas, autoscaling).
    """

    backend: str = "thread"
    workers: int = 4
    queue_size: int = 64
    cache_size: int = 128
    default_timeout: float | None = None
    retries: int = 1
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    options: ExecOptions | None = None
    coalesce_window: float = 0.0
    max_batch: int = 16
    slo: "SLOPolicy | None" = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_size < 1:
            raise ValueError(
                f"queue_size must be >= 1, got {self.queue_size}"
            )
        if self.cache_size < 0:
            raise ValueError(
                f"cache_size cannot be negative, got {self.cache_size}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base/backoff_max cannot be negative")
        if self.coalesce_window < 0:
            raise ValueError(
                f"coalesce_window cannot be negative, got "
                f"{self.coalesce_window}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.default_timeout is not None and self.default_timeout < 0:
            raise ValueError(
                f"default_timeout cannot be negative, got "
                f"{self.default_timeout}"
            )
        if (
            self.backend == "process"
            and self.options is not None
            and self.options.delta
        ):
            raise ValueError(DELTA_NEEDS_THREADS)

    # -- derivation ------------------------------------------------------------

    def replace(self, **changes) -> "ServiceConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- introspection ---------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """A JSON-serializable echo of the resolved config.

        Nested objects (``options``, ``slo``) are rendered as their
        ``repr`` — stable, diffable, and exactly what ``stats()["config"]``
        returns for dashboards.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("options", "slo"):
                out[f.name] = None if value is None else repr(value)
            else:
                out[f.name] = value
        return out
