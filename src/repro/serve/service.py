"""The concurrent solve service: bounded queue + worker pool + result cache.

:class:`SolveService` turns the synchronous ``Framework.solve()`` call into a
stream-of-requests server (the ROADMAP's production-traffic seam):

* ``submit()`` enqueues a :class:`~repro.serve.request.SolveRequest` onto a
  **bounded priority queue** (smaller ``priority`` first, FIFO within a
  priority) and returns a :class:`PendingSolve` future immediately; a full
  queue rejects with :class:`~repro.errors.ServiceOverloaded` — backpressure,
  not unbounded buffering;
* a pool of worker threads drains the queue, resolving each request through
  the **content-keyed LRU result cache** or a fresh ``Framework`` run;
* per-request **deadlines** are enforced end to end: a request past its
  deadline while still queued fails with
  :class:`~repro.errors.ServiceTimeout` without occupying a worker, and the
  deadline (plus a per-request :class:`~repro.cancel.CancelToken`) travels
  into the executor, which aborts cooperatively at the next wavefront
  boundary — an expired request frees its worker within one wavefront;
* a failed execution is **retried with exponential backoff and jitter**,
  re-checking the remaining deadline before each attempt (never sleeping
  into a guaranteed timeout);
* with ``coalesce_window > 0``, a worker whose request survives its own
  prelude (not cancelled, expired, cached or delta-patched — those settle
  at once) briefly drains **batch-compatible** queued requests (same
  :func:`repro.batch.batch_key`) and executes them as one stacked sweep —
  per-request caching, deadlines, cancellation and degradation semantics
  are preserved member by member (see ``docs/batching.md``). Only a
  request that will execute waits out the window.

Everything is instrumented through :mod:`repro.obs`: a ``serve.queue.depth``
gauge, ``serve.cache.hits``/``serve.cache.misses`` counters, latency
histograms (``serve.queue_wait_ms``, ``serve.execute_ms``,
``serve.latency_ms``) and one ``serve.request`` span per processed request.
``serve.execute`` is a fault-injection site (see :mod:`repro.faults` and
``docs/resilience.md``). See ``docs/serving.md`` for failure semantics.

Execution itself is pluggable (:mod:`repro.serve.backends`): the default
``"thread"`` backend runs solves on the worker threads in-process, while
``backend="process"`` ships them to a pool of spawned worker processes with
zero-copy shared-memory result transport and batch-key sharding — see
``docs/serving.md`` ("Choosing a backend").

Usage::

    from repro.serve import ServiceConfig, SolveRequest, SolveService

    cfg = ServiceConfig(workers=4, queue_size=256, cache_size=128)
    with SolveService(config=cfg) as svc:
        pending = [svc.submit(SolveRequest(p)) for p in problems]
        results = [p.result() for p in pending]
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Iterable

from ..batch import BatchItem, batch_key
from ..cancel import CancelToken
from ..core.framework import Framework
from ..core.problem import LDDPProblem
from ..errors import (
    AdmissionRejected,
    QuotaExceeded,
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
    SolveCancelled,
)
from ..delta import delta_applicable, delta_key, delta_patch
from ..exec.base import ExecOptions, SolveResult
from ..faults import PASSTHROUGH, check_fault, degrade, record
from ..machine.platform import Platform
from ..obs import get_metrics, get_tracer
from ..slo import AdmissionController, Autoscaler, Pricer, QuotaManager
from .backends import make_backend
from .cache import ResultCache
from .config import DELTA_NEEDS_THREADS, ServiceConfig
from .request import SolveRequest, request_key
from .shm import SegmentIndex

__all__ = ["PendingSolve", "SolveService"]

_BATCH_KEY_UNSET = object()  # memo sentinel for PendingSolve._batch_key
_SETTLED = object()  # SolveService._claim: the prelude settled the request


class PendingSolve:
    """Handle for one submitted request — a future with deadline semantics."""

    def __init__(self, request: SolveRequest, deadline: float | None) -> None:
        self.request = request
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.cache_hit: bool | None = None  # set by the worker
        # Effective execution plan: identical to the request unless the SLO
        # admission controller down-tiered it at submit time.
        self.effective_executor: str = request.executor
        self.effective_functional: bool = request.functional
        self.downgraded: str | None = None  # admission down-tier reason
        # One token per request: reuse a caller-supplied one so firing either
        # side aborts the same run.
        opts = request.options
        self.cancel_token: CancelToken = (
            opts.cancel_token
            if opts is not None and opts.cancel_token is not None
            else CancelToken()
        )
        self._future: Future = Future()
        self._batch_key = _BATCH_KEY_UNSET  # lazily memoized by the service
        self._delta_key = _BATCH_KEY_UNSET  # near-match key, memoized too
        self._delta_base = None  # payload of the base a patch started from
        self._delta_reason: str | None = None  # why a delta patch degraded
        self._units: float | None = None  # closed-form price (SLO mode)
        self._priced_wall: float = 0.0  # predicted wall s, backlog accounting

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel if still queued; running/finished requests are unaffected."""
        return self._future.cancel()

    def request_cancel(self) -> bool:
        """Cancel queued work, or cooperatively abort a running solve.

        Queued requests are cancelled outright (as :meth:`cancel`). A request
        already running has its :attr:`cancel_token` fired instead: the worker
        aborts at its next wavefront boundary and stores
        :class:`~repro.errors.SolveCancelled`. Returns ``True`` when the
        request is cancelled or the abort was signalled in time — best-effort
        for running work, since the solve may complete before it observes the
        token.
        """
        if self._future.cancel():
            return True
        self.cancel_token.cancel()
        return not self._future.done()

    def exception(self, timeout: float | None = None):
        """The exception the worker stored, or ``None`` on success.

        Mirrors :meth:`concurrent.futures.Future.exception`: an exception
        *stored in the future* — including a worker-side
        :class:`~repro.errors.ServiceTimeout` — is **returned**, not raised.
        Raised are only the waiting failures: :class:`ServiceTimeout` when
        the request's own deadline passes while still waiting, and
        :class:`concurrent.futures.TimeoutError` when the caller's
        ``timeout`` elapses first.
        """
        return self._wait(self._future.exception, timeout)

    def result(self, timeout: float | None = None) -> SolveResult:
        """Wait for the result.

        Raises :class:`ServiceTimeout` once the request's own deadline has
        passed, :class:`concurrent.futures.TimeoutError` if the caller's
        ``timeout`` elapses first, or the worker's exception on failure.
        """
        return self._wait(self._future.result, timeout)

    def _wait(self, get, timeout: float | None):
        """``get(budget)`` for the future's ``result`` or ``exception``.

        The wait is capped by the request's own deadline, whose passing
        raises :class:`ServiceTimeout`.
        """
        budget = timeout
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            budget = remaining if budget is None else min(budget, remaining)
        try:
            return get(budget)
        except FutureTimeoutError:
            if (
                self.deadline is not None
                and time.monotonic() >= self.deadline
                and not self._future.done()
            ):
                raise ServiceTimeout(
                    f"request for {self.request.problem.name!r} exceeded its "
                    f"{self.request.timeout!r} s timeout"
                ) from None
            raise


class SolveService:
    """Bounded worker-pool solve server with a content-keyed result cache.

    Parameters
    ----------
    platform:
        Machine model shared by every request (default ``hetero_high``).
    config:
        A :class:`~repro.serve.config.ServiceConfig` — the one documented
        way to configure the service (queue, cache, retries, coalescing,
        SLO policy, and the execution ``backend``). ``stats()["config"]``
        echoes the resolved config back.

    Execution is delegated to the configured backend
    (:mod:`repro.serve.backends`): ``"thread"`` runs solves on the service's
    own worker threads; ``"process"`` ships them to a pool of spawned
    worker processes (paired 1:1 with the dispatch threads) with
    shared-memory result transport and batch-key sharding. The result cache
    follows the backend: a copying LRU (:class:`~repro.serve.cache.ResultCache`)
    in-process, a zero-copy :class:`~repro.serve.shm.SegmentIndex` over the
    shared-memory segments for the process pool.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        if config is None:
            config = ServiceConfig()
        elif not isinstance(config, ServiceConfig):
            raise TypeError(
                f"config must be a ServiceConfig, got {type(config).__name__}"
            )
        slo = config.slo
        if slo is not None:
            config = config.replace(workers=max(
                slo.min_workers, min(slo.max_workers, config.workers)
            ))
        self.config = config
        self.framework = Framework(platform, config.options)
        self.queue_size = config.queue_size
        self.default_timeout = config.default_timeout
        self.retries = config.retries
        self.backoff_base = config.backoff_base
        self.backoff_max = config.backoff_max
        self.coalesce_window = config.coalesce_window
        self.max_batch = config.max_batch
        self._sleep = time.sleep  # patchable seam for backoff tests
        self._rng = random.Random()
        self._workers: list[threading.Thread] = []
        self._all_workers: list[threading.Thread] = []
        self._backend = make_backend(config, self.framework)
        self.cache: ResultCache | SegmentIndex | None = None
        if config.cache_size > 0:
            self.cache = (
                SegmentIndex(config.cache_size)
                if config.backend == "process"
                else ResultCache(config.cache_size)
            )
        self._queue: list[tuple[int, float, int, PendingSolve]] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = 0
        self._closed = False
        self._busy = 0  # workers currently processing a request
        self._backlog_wall = 0.0  # predicted wall s of queued work (SLO)
        self._queued_keys: dict[str, int] = {}  # batch key -> queued count
        self._active_batch_keys: dict[str, int] = {}  # mid-coalesce keys
        self._latency_ewma: float | None = None  # ms, autoscaler signal
        # -- SLO machinery (all None/off without a policy) ---------------------
        self.slo = slo
        self._pricer: Pricer | None = None
        self._admission: AdmissionController | None = None
        self._quotas: QuotaManager | None = None
        self._autoscaler: Autoscaler | None = None
        self._stop_scaling = threading.Event()
        self._scaler_thread: threading.Thread | None = None
        self._retire = 0  # workers asked to exit at their next idle check
        self._counters = {
            "admitted": 0, "shed": 0, "downgraded": 0, "quota_rejected": 0,
            "scale_ups": 0, "scale_downs": 0,
        }
        # Process dispatch pays a real IPC round-trip the execution price
        # cannot see; admission adds it on top of dispatch_overhead.
        self._extra_overhead = (
            slo.process_overhead
            if slo is not None and config.backend == "process" else 0.0
        )
        if slo is not None:
            self._pricer = Pricer(self.framework)
            self._admission = AdmissionController(slo, self._pricer)
            self._quotas = QuotaManager(slo)
            self._autoscaler = Autoscaler(slo)
        for _ in range(config.workers):
            self._spawn_worker()
        get_metrics().gauge("serve.workers").set(len(self._workers))
        if slo is not None:
            self._scaler_thread = threading.Thread(
                target=self._autoscale_loop, name="solve-autoscaler",
                daemon=True,
            )
            self._scaler_thread.start()

    # -- submission ------------------------------------------------------------

    def submit(self, request: SolveRequest) -> PendingSolve:
        """Enqueue a request; returns immediately with a future handle.

        With an :class:`~repro.slo.SLOPolicy` installed this is also the
        *only* place policy can refuse work: tenant quota first
        (:class:`~repro.errors.QuotaExceeded`), then closed-form admission
        (:class:`~repro.errors.AdmissionRejected` or a down-tier) — an
        admitted request is never shed later. A request whose own options
        enable delta raises ``ValueError`` on the process backend, like a
        service-wide ``delta`` does at configuration.
        """
        metrics = get_metrics()
        if request.functional:
            # Estimate-only instances fail here, at submission, with a clear
            # error — not with a KeyError inside a worker thread.
            request.problem.require_solvable()
        if (
            self.config.backend == "process"
            and request.options is not None
            and request.options.delta
        ):
            raise ValueError(DELTA_NEEDS_THREADS)
        timeout = (
            request.timeout if request.timeout is not None
            else self.default_timeout
        )
        pending = PendingSolve(
            request, None if timeout is None else time.monotonic() + timeout
        )
        units = None
        if self.slo is not None:
            # Price outside the lock: batch-key hashing and the closed-form
            # scan are pure, and the LRU makes repeat keys O(1).
            key = self._batch_key_of(pending)
            delta_fraction = None
            dkey = self._delta_key_of(pending)
            if dkey is not None and self.cache.has_base(dkey):
                # A near-match base is cached: price the request as the
                # delta patch it will most likely run, not the full solve
                # it avoids. The suffixed LRU key keeps full and delta
                # prices for one batch shape apart.
                delta_fraction = self.slo.delta_cone_fraction
            units = self._pricer.units(
                request.problem,
                options=request.options or self.framework.options,
                params=request.params,
                key=(
                    key + ":delta"
                    if (delta_fraction is not None and key is not None)
                    else key
                ),
                executor=request.executor,
                delta_cone_fraction=delta_fraction,
            )
        with self._not_empty:
            if self._closed:
                raise ServiceClosed("service is closed; no further requests")
            if len(self._queue) >= self.queue_size:
                metrics.counter("serve.requests.rejected").inc()
                raise ServiceOverloaded(
                    f"request queue is full ({self.queue_size} waiting); "
                    "back off and retry"
                )
            order = 0.0
            if self.slo is not None:
                if self._quotas is not None and not self._quotas.admit(
                    request.tenant
                ):
                    self._counters["quota_rejected"] += 1
                    metrics.counter("serve.quota.rejected").inc()
                    raise QuotaExceeded(
                        f"tenant {request.tenant!r} is over its quota "
                        f"({self.slo.quota_for(request.tenant)!r}); "
                        "back off and retry"
                    )
                pending._units = units
                order = self._admit(pending, timeout, units, key, metrics)
            self._seq += 1
            heapq.heappush(
                self._queue, (request.priority, order, self._seq, pending)
            )
            self._note_enqueued(pending)
            metrics.counter("serve.requests.submitted").inc()
            metrics.gauge("serve.queue.depth").set(len(self._queue))
            # notify_all, not notify: with coalescing on, a worker sitting in
            # its coalescing wait shares this condition with idle workers — a
            # single notify could be absorbed by the coalescer and strand the
            # request until the window closes.
            self._not_empty.notify_all()
        return pending

    def _admit(self, pending, timeout, units, key, metrics) -> float:
        """SLO admission for one submission (caller holds the lock).

        Raises :class:`AdmissionRejected` for priced-out requests, applies
        down-tiers to ``pending``'s effective plan, and returns the heap
        ordering key — latest feasible start under EDF scheduling, a
        constant otherwise.
        """
        policy = self.slo
        request = pending.request
        decision = None
        if policy.admission and timeout is not None:
            decision = self._admission.decide(
                deadline_remaining=timeout,
                units=units,
                executor=request.executor,
                functional=request.functional,
                backlog_wall=self._backlog_wall,
                workers=len(self._workers),
                downgradable=request.downgradable,
                coalescible=self._coalescible(key),
                extra_overhead=self._extra_overhead,
            )
            if not decision.admitted:
                self._counters["shed"] += 1
                metrics.counter("serve.admission.shed").inc()
                raise AdmissionRejected(
                    f"request for {request.problem.name!r} shed at "
                    f"admission: {decision.reason}"
                )
            if decision.action == "downgrade":
                pending.effective_executor = decision.executor
                pending.effective_functional = decision.functional
                pending.downgraded = decision.reason
                # The down-tiered run coalesces with its own kind, not with
                # full-fidelity batch-mates, and may no longer be a delta
                # candidate: reset both memos (queue accounting reads the
                # batch key, so recompute that one now).
                pending._batch_key = pending._delta_key = _BATCH_KEY_UNSET
                self._batch_key_of(pending)
                self._counters["downgraded"] += 1
                metrics.counter("serve.admission.downgraded").inc()
        self._counters["admitted"] += 1
        metrics.counter("serve.admission.admitted").inc()
        predicted = (
            decision.predicted_exec if decision is not None
            and decision.predicted_exec is not None
            else (
                self._pricer.predict(
                    units, pending.effective_executor,
                    pending.effective_functional,
                ) if units is not None else 0.0
            )
        )
        pending._priced_wall = predicted
        if policy.scheduling and pending.deadline is not None:
            # EDF on feasibility: run whoever must start soonest to still
            # make its deadline. No-deadline work sorts last in its band.
            return pending.deadline - predicted
        return 0.0 if pending.deadline is not None or not policy.scheduling \
            else float("inf")

    def _coalescible(self, key: str | None) -> bool:
        """Whether batch-compatible work is queued or mid-coalesce now."""
        if key is None or self.coalesce_window <= 0:
            return False
        return bool(
            self._queued_keys.get(key) or self._active_batch_keys.get(key)
        )

    def _note_enqueued(self, pending: PendingSolve) -> None:
        """Backlog/key accounting for one queued request (lock held)."""
        self._backlog_wall += pending._priced_wall
        if self.coalesce_window > 0 and self.slo is not None:
            key = pending._batch_key
            if key is not _BATCH_KEY_UNSET and key is not None:
                self._queued_keys[key] = self._queued_keys.get(key, 0) + 1

    def _note_dequeued(self, pending: PendingSolve) -> None:
        """Reverse of :meth:`_note_enqueued` (lock held)."""
        self._backlog_wall = max(0.0, self._backlog_wall - pending._priced_wall)
        if self.coalesce_window > 0 and self.slo is not None:
            key = pending._batch_key
            if key is not _BATCH_KEY_UNSET and key is not None:
                count = self._queued_keys.get(key, 0) - 1
                if count > 0:
                    self._queued_keys[key] = count
                else:
                    self._queued_keys.pop(key, None)

    def submit_problem(self, problem: LDDPProblem, **kwargs) -> PendingSolve:
        """Shorthand: wrap ``problem`` in a :class:`SolveRequest` and submit."""
        return self.submit(SolveRequest(problem, **kwargs))

    def solve(self, problem: LDDPProblem, **kwargs) -> SolveResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit_problem(problem, **kwargs).result()

    def map(self, problems: Iterable[LDDPProblem], **kwargs) -> list[SolveResult]:
        """Submit a batch and wait for all results, in input order."""
        pending = [self.submit_problem(p, **kwargs) for p in problems]
        return [p.result() for p in pending]

    # -- lifecycle -------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; drain the queue (``wait``) or fail it fast.

        Joins every worker ever started — including workers the autoscaler
        already retired — so a closed service provably leaks no threads.
        """
        self._stop_scaling.set()
        with self._not_empty:
            self._closed = True
            drained: list[PendingSolve] = []
            if not wait:
                drained = [entry[-1] for entry in self._queue]
                self._queue.clear()
                self._backlog_wall = 0.0
                self._queued_keys.clear()
                get_metrics().gauge("serve.queue.depth").set(0)
            self._not_empty.notify_all()
        for pending in drained:
            pending._future.cancel()
        if self._scaler_thread is not None:
            self._scaler_thread.join()
        for t in self._all_workers:
            t.join()
        self._backend.close()
        if isinstance(self.cache, SegmentIndex):
            # Drop the index's segment references: with every result handed
            # out and now the index drained, the last reference drop unlinks
            # each block — a closed service leaks no /dev/shm segments.
            self.cache.clear()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=True)

    # -- introspection ---------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict[str, object]:
        """A snapshot for dashboards: queue, workers, cache, SLO counters.

        ``workers`` / ``workers_busy`` are **backend-aggregated**: they
        count the execution units of whichever backend is configured
        (worker processes for ``backend="process"``, the in-process pool
        otherwise) rather than reading thread-pool fields directly —
        dispatch threads and backend workers are paired 1:1, so the busy
        count is the number of in-flight executions either way. The
        thread-pool view stays available as ``dispatch_threads`` plus
        ``workers_started`` (threads ever spawned) and ``workers_alive``
        (threads not yet joined). ``config`` echoes the resolved
        :class:`~repro.serve.config.ServiceConfig`; ``backend`` carries the
        backend's own aggregation (for the process pool: pids, restart and
        inline-fallback counts, per-worker-process job counters and metric
        snapshots). With an :class:`~repro.slo.SLOPolicy` installed, an
        ``"slo"`` sub-dict adds the admission/shed/downgrade and autoscale
        counters, predicted backlog, pricer calibration and price error
        (``price_error``: count/p50/p90 of observed ÷ predicted wall per
        ``executor:solve|estimate``) and per-tenant quota books.
        """
        with self._lock:
            depth = len(self._queue)
            closed = self._closed
            threads = len(self._workers)
            busy = self._busy
            started = len(self._all_workers)
            alive = sum(1 for t in self._all_workers if t.is_alive())
            counters = dict(self._counters)
            backlog = self._backlog_wall
            latency = self._latency_ewma
        backend_stats = self._backend.stats()
        workers = backend_stats.get("workers", threads)
        get_metrics().gauge("serve.workers").set(workers)
        get_metrics().gauge("serve.workers_busy").set(busy)
        out: dict[str, object] = {
            "queue_depth": depth,
            "queue_size": self.queue_size,
            "workers": workers,
            "workers_busy": busy,
            "dispatch_threads": threads,
            "workers_started": started,
            "workers_alive": alive,
            "closed": closed,
            "cache": None if self.cache is None else self.cache.stats(),
            "config": self.config.describe(),
            "backend": backend_stats,
        }
        if self.slo is not None:
            out["slo"] = {
                **counters,
                "backlog_wall_s": backlog,
                "latency_ewma_ms": latency,
                "calibration": self._pricer.calibration(),
                "price_error": self._pricer.price_error(),
                "tenants": self._quotas.snapshot(),
            }
        return out

    # -- worker internals ------------------------------------------------------

    def _spawn_worker(self) -> None:
        """Start one worker thread (lock not required; threads self-register)."""
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"solve-worker-{len(self._all_workers)}",
            daemon=True,
        )
        self._workers.append(thread)
        self._all_workers.append(thread)
        thread.start()

    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    if self._retire > 0:
                        # Scale-down: retire between requests, never mid-solve.
                        self._retire -= 1
                        if me in self._workers:
                            self._workers.remove(me)
                        get_metrics().gauge("serve.workers").set(
                            len(self._workers)
                        )
                        return
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                entry = heapq.heappop(self._queue)
                pending = entry[-1]
                self._note_dequeued(pending)
                self._busy += 1
                get_metrics().gauge("serve.queue.depth").set(len(self._queue))
            try:
                self._process(pending)
            finally:
                with self._lock:
                    self._busy -= 1

    # -- autoscaling -----------------------------------------------------------

    def _autoscale_loop(self) -> None:
        """Background thread: reconcile pool size every ``scale_interval``."""
        metrics = get_metrics()
        while not self._stop_scaling.wait(self.slo.scale_interval):
            resize_to = None
            with self._not_empty:
                if self._closed:
                    return
                target = self._autoscaler.desired(
                    depth=len(self._queue),
                    workers=len(self._workers),
                    busy=self._busy,
                    latency_ms=self._latency_ewma,
                )
                current = len(self._workers)
                if target > current:
                    for _ in range(target - current):
                        self._spawn_worker()
                    self._counters["scale_ups"] += 1
                    metrics.counter("serve.autoscale.up").inc(target - current)
                    metrics.gauge("serve.workers").set(len(self._workers))
                    resize_to = target
                elif target < current:
                    # Ask (current - target) idle workers to exit at their
                    # next queue check; a worker mid-solve finishes first.
                    self._retire += current - target
                    self._counters["scale_downs"] += 1
                    metrics.counter("serve.autoscale.down").inc(
                        current - target
                    )
                    self._not_empty.notify_all()
                    resize_to = target
            if resize_to is not None:
                # Backend pool follows the dispatch pool 1:1; resized
                # outside the service lock (process spawn is slow, and the
                # backend takes its own lock).
                self._backend.resize(resize_to)

    def _note_latency(self, wall_ms: float) -> None:
        """Feed the autoscaler's latency EWMA (lock held by caller)."""
        prior = self._latency_ewma
        self._latency_ewma = (
            wall_ms if prior is None else 0.8 * prior + 0.2 * wall_ms
        )
        get_metrics().gauge("serve.latency.ewma_ms").set(self._latency_ewma)

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential delay before retry ``attempt`` (1-based)."""
        delay = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        return delay * (0.5 + self._rng.random())

    def _process(self, pending: PendingSolve) -> None:
        """Settle one dequeued request and any batch-compatible queue-mates.

        The leader ``pending`` passes :meth:`_claim` first, so a cancelled,
        expired, cached or delta-patched leader frees the worker at once.
        A leader that will execute, with ``coalesce_window > 0`` and a batch
        key, then drains compatible requests from the queue for up to the
        window; either way the set — often just ``[pending]`` — goes through
        :meth:`_process_batch`, the one request lifecycle.
        """
        leader_key = self._claim(pending)
        if leader_key is _SETTLED:
            return
        key = self._batch_key_of(pending) if self.coalesce_window > 0 else None
        if key is None:
            self._process_batch([pending], leader_key=leader_key)
            return
        # Register the in-flight key so admission can price a compatible
        # late arrival at its marginal (coalesced) cost, not full freight.
        if self.slo is not None:
            with self._lock:
                self._active_batch_keys[key] = (
                    self._active_batch_keys.get(key, 0) + 1
                )
        try:
            self._process_batch(
                [pending] + self._drain_compatible(pending, key),
                leader_key=leader_key,
            )
        finally:
            if self.slo is not None:
                with self._lock:
                    count = self._active_batch_keys.get(key, 0) - 1
                    if count > 0:
                        self._active_batch_keys[key] = count
                    else:
                        self._active_batch_keys.pop(key, None)

    def _process_batch(self, members: list[PendingSolve], *, leader_key) -> None:
        """Resolve a set of requests: per-request prelude, then execute.

        The leader ``members[0]`` already survived :meth:`_claim` with cache
        key ``leader_key``; every drained member passes it here, so a
        cancelled, expired, cached or delta-patched request never pays for
        execution. A lone survivor runs through :meth:`_attempt` (the
        backend's ``execute``); several go to the backend's
        ``execute_batch`` as one batch group with their deadlines and cancel
        tokens live per wavefront, and a member whose batched run fails
        retryably falls back to :meth:`_attempt`.
        """
        run: list[tuple[PendingSolve, object]] = [(members[0], leader_key)]
        for pending in members[1:]:
            key = self._claim(pending)
            if key is not _SETTLED:
                run.append((pending, key))
        if len(run) == 1:
            pending, key = run[0]
            with self._request_span(pending) as span:
                self._attempt(pending, span, key)
            return

        metrics = get_metrics()
        metrics.counter("batch.coalesced").inc(len(run))
        items = [self._item(pending, k) for k, (pending, _) in enumerate(run)]
        started = time.monotonic()
        with metrics.histogram("serve.execute_ms").time():
            outcomes = self._backend.execute_batch(items)
        # Calibrate on the *marginal* cost: the batch amortises one sweep
        # over len(run) members, so each member's observed wall share is the
        # honest per-request price for future coalesced admissions.
        member_wall = (time.monotonic() - started) / len(run)
        for (pending, key), outcome in zip(run, outcomes):
            with self._request_span(pending, coalesced=len(run)) as span:
                if isinstance(outcome, SolveResult):
                    self._observe_run(pending, member_wall)
                if not self._resolve(pending, span, key, outcome):
                    # Retryable failure inside the batch: this member gets
                    # the full per-request retry path (fresh attempts — the
                    # batched try was the free one).
                    span.set(batch_failed=type(outcome).__name__)
                    self._attempt(pending, span, key)

    def _request_span(self, pending: PendingSolve, **attrs):
        """Open the one ``serve.request`` span of ``pending``.

        Carries the problem, the *effective* executor, the priority and,
        for a request down-tiered at admission, ``downgraded``.
        """
        request = pending.request
        if pending.downgraded is not None:
            attrs["downgraded"] = pending.downgraded
        return get_tracer().span(
            "serve.request",
            cat="serve",
            problem=request.problem.name,
            executor=pending.effective_executor,
            priority=request.priority,
            **attrs,
        )

    def _claim(self, pending: PendingSolve):
        """The per-request prelude: the survivor's cache key, or ``_SETTLED``.

        In order: claim the future (a request cancelled in the queue is
        dropped), observe its queue wait, fail an expired deadline, serve an
        exact cache hit, then offer the miss to the delta tier. A request
        settled here never reaches execution.
        """
        metrics = get_metrics()
        request = pending.request
        if not pending._future.set_running_or_notify_cancel():
            metrics.counter("serve.requests.cancelled").inc()
            return _SETTLED
        metrics.histogram("serve.queue_wait_ms").observe(
            (time.monotonic() - pending.submitted_at) * 1e3
        )
        if (
            pending.deadline is not None
            and time.monotonic() >= pending.deadline
        ):
            with self._request_span(pending) as span:
                self._resolve(pending, span, None, ServiceTimeout(
                    f"request for {request.problem.name!r} expired after "
                    f"{request.timeout or self.default_timeout!r} s in the "
                    "queue"
                ))
            return _SETTLED
        key = None
        if self.cache is not None and request.cacheable:
            key = request_key(
                request,
                self.framework.platform,
                request.options or self.framework.options,
                executor=pending.effective_executor,
                functional=pending.effective_functional,
            )
            hit = self.cache.get(key)
            if hit is not None:
                pending.cache_hit = True
                metrics.counter("serve.cache.hits").inc()
                metrics.histogram("serve.latency_ms").observe(
                    (time.monotonic() - pending.submitted_at) * 1e3
                )
                metrics.counter("serve.requests.completed").inc()
                with self._request_span(pending, outcome="hit"):
                    pending._future.set_result(hit)
                return _SETTLED
            metrics.counter("serve.cache.misses").inc()
        pending.cache_hit = False
        outcome = self._try_delta(pending, key)
        if outcome is not None:
            with self._request_span(pending) as span:
                self._resolve(pending, span, key, outcome)
            return _SETTLED
        return key

    def _attempt(self, pending: PendingSolve, span, key) -> None:
        """The retry loop for one claimed request: execute, back off, finish.

        ``span`` is the request's open ``serve.request`` span; ``key`` its
        cache key (``None`` when uncacheable). Runs a lone survivor of
        :meth:`_claim` and each member whose batched run failed retryably;
        the request already had its one delta probe in the prelude.
        """
        metrics = get_metrics()
        request = pending.request
        item = self._item(pending)
        attempts = 0
        while True:
            try:
                check_fault("serve.execute")
                started = time.monotonic()
                with metrics.histogram("serve.execute_ms").time():
                    result = self._backend.execute(item)
                self._observe_run(pending, time.monotonic() - started)
                break
            except (SolveCancelled, ServiceTimeout) as exc:
                # A deadline hit mid-run frees the worker within one
                # wavefront. Neither is retried.
                self._resolve(pending, span, key, exc)
                return
            except Exception as exc:  # noqa: BLE001 - surfaced via future
                attempts += 1
                if attempts > self.retries:
                    metrics.counter("serve.requests.failed").inc()
                    span.set(outcome="failed", error=type(exc).__name__)
                    pending._future.set_exception(exc)
                    return
                delay = self._backoff_delay(attempts)
                if pending.deadline is not None:
                    remaining = pending.deadline - time.monotonic()
                    if remaining <= delay:
                        # Fail fast: sleeping would overshoot the
                        # deadline, so surface the timeout now with the
                        # triggering failure chained for diagnosis.
                        metrics.counter("serve.requests.timeout").inc()
                        span.set(outcome="timeout", retried=attempts)
                        timeout_exc = ServiceTimeout(
                            f"request for {request.problem.name!r} has "
                            f"{max(0.0, remaining):.3f} s left, less than "
                            f"the {delay:.3f} s retry backoff"
                        )
                        timeout_exc.__cause__ = exc
                        pending._future.set_exception(timeout_exc)
                        return
                metrics.counter("serve.retries").inc()
                span.set(retried=attempts)
                if delay > 0:
                    self._sleep(delay)

        self._finish(pending, span, key, result)

    def _resolve(self, pending: PendingSolve, span, key, outcome) -> bool:
        """Settle ``pending`` with one run's outcome.

        A result finishes the request; a cancellation or timeout fails it.
        Returns ``False`` for any other exception, which the caller retries.
        """
        metrics = get_metrics()
        if isinstance(outcome, SolveResult):
            self._finish(pending, span, key, outcome)
        elif isinstance(outcome, SolveCancelled):
            metrics.counter("serve.requests.aborted").inc()
            span.set(outcome="cancelled")
            pending._future.set_exception(outcome)
        elif isinstance(outcome, ServiceTimeout):
            metrics.counter("serve.requests.timeout").inc()
            span.set(outcome="timeout")
            pending._future.set_exception(outcome)
        else:
            return False
        return True

    def _observe_run(self, pending: PendingSolve, wall: float) -> None:
        """Feed one measured execution back into the pricer's calibration."""
        if self._pricer is not None and pending._units is not None:
            self._pricer.observe(
                pending.effective_executor,
                pending.effective_functional,
                pending._units,
                wall,
            )

    def _delta_key_of(self, pending: PendingSolve) -> str | None:
        """Memoized :func:`repro.delta.delta_key`, ``None`` when ineligible.

        The one delta-eligibility predicate: the request's options enable
        delta, its effective run is functional, the cache is the thread
        backend's :class:`ResultCache` (the only one holding base payloads)
        and :func:`repro.delta.delta_applicable` accepts the problem.
        """
        memo = pending._delta_key
        if memo is _BATCH_KEY_UNSET:
            request = pending.request
            options = request.options or self.framework.options
            memo = None
            if (
                options.delta
                and pending.effective_functional
                and isinstance(self.cache, ResultCache)
                and delta_applicable(request.problem, options) is None
            ):
                memo = delta_key(
                    request.problem, options=options, params=request.params
                )
            pending._delta_key = memo
        return memo

    def _try_delta(
        self, pending: PendingSolve, key
    ) -> SolveResult | SolveCancelled | ServiceTimeout | None:
        """Serve an exact-cache miss by patching a near-match base, if any.

        Returns the patched result (bit-identical to a fresh solve), the
        timeout or cancellation the patch raised (for :meth:`_resolve`), or
        ``None`` — either because the request is not a delta candidate (no
        opt-in, no base cached, structurally ineligible) or
        because the patch degraded, in which case ``pending._delta_reason``
        carries the reason for :meth:`_finish` to surface. The patch starts
        from the cached base nearest the request's payload, recorded in
        ``pending._delta_base`` so the result supersedes it. Only the thread
        backend's :class:`ResultCache` holds base payloads, which is why
        :class:`ServiceConfig` rejects delta on the process backend.
        """
        dkey = None if key is None else self._delta_key_of(pending)
        if dkey is None:
            return None
        request = pending.request
        base = self.cache.get_base(dkey, request.problem.payload)
        if base is None:
            return None
        base_payload, base_result = base
        try:
            result = delta_patch(
                request.problem,
                base_payload,
                base_result,
                platform=self.framework.platform,
                options=self._control_options(pending),
                executor=pending.effective_executor,
            )
        except PASSTHROUGH as exc:
            return exc
        except Exception as exc:  # noqa: BLE001 - degrade, never fail
            pending._delta_reason = degrade(
                "delta", exc, counters=("serve.cache.delta_degraded",),
                problem=request.problem.name)
            return None
        get_metrics().counter("serve.cache.delta_hit").inc()
        self.cache.note_delta_hit()
        pending._delta_base = base_payload
        return result

    def _finish(self, pending: PendingSolve, span, key, result: SolveResult) -> None:
        """Cache, count and resolve one successfully executed request."""
        metrics = get_metrics()
        if pending._delta_reason is not None:
            # A delta patch was attempted and degraded to this full solve.
            record(result.stats, "delta", "full-solve", pending._delta_reason)
        if pending._delta_base is not None:
            span.set(delta=True)
        if key is not None:
            base_key = (
                None if result.table is None else self._delta_key_of(pending)
            )
            if base_key is not None:
                # Register the result as a delta base — delta-patched ones
                # too, so edit chains patch against the freshest table. The
                # request's payload is already a frozen snapshot
                # (SolveRequest freezes it), so it is safe to keep as the
                # diffing reference. A patched result replaces its base.
                self.cache.put(
                    key, result,
                    base_key=base_key,
                    payload=pending.request.problem.payload,
                    supersedes=pending._delta_base,
                )
            else:
                self.cache.put(key, result)
        metrics.counter("serve.requests.completed").inc()
        latency_ms = (time.monotonic() - pending.submitted_at) * 1e3
        metrics.histogram("serve.latency_ms").observe(latency_ms)
        if self.slo is not None:
            with self._lock:
                self._note_latency(latency_ms)
        if result.stats.get("degraded"):
            span.set(degraded=result.stats["degraded"])
        span.set(outcome="miss" if key is not None else "uncached")
        pending._future.set_result(result)

    # -- coalescing ------------------------------------------------------------

    def _batch_key_of(self, pending: PendingSolve) -> str | None:
        """Memoized :func:`repro.batch.batch_key` for one queued request.

        Keyed on the *effective* plan: a down-tiered request coalesces with
        runs that will actually execute the same way, not with its original
        tier.
        """
        memo = pending._batch_key
        if memo is _BATCH_KEY_UNSET:
            request = pending.request
            memo = pending._batch_key = batch_key(
                request.problem,
                executor=pending.effective_executor,
                options=request.options or self.framework.options,
                params=request.params,
                functional=pending.effective_functional,
            )
        return memo

    def _drain_compatible(self, leader: PendingSolve, key: str) -> list[PendingSolve]:
        """Pull batch-compatible requests off the queue for up to the window.

        Returns at most ``max_batch - 1`` requests whose batch key equals
        ``key`` in queue order — ``(priority, order, seq)``, so FIFO within
        a priority — removing them from the queue (incompatible entries are
        left untouched). Waits on the queue condition until
        the coalescing window — capped by the leader's own deadline —
        closes, the batch fills, or the service closes.
        """
        end = time.monotonic() + self.coalesce_window
        if leader.deadline is not None:
            end = min(end, leader.deadline)
        members: list[PendingSolve] = []
        with self._not_empty:
            while True:
                keep = []
                took = False
                for entry in sorted(self._queue):
                    if (
                        len(members) + 1 < self.max_batch
                        and self._batch_key_of(entry[-1]) == key
                    ):
                        members.append(entry[-1])
                        self._note_dequeued(entry[-1])
                        took = True
                    else:
                        keep.append(entry)
                if took:  # kept in sorted order: still a valid heap
                    self._queue[:] = keep
                    get_metrics().gauge("serve.queue.depth").set(len(keep))
                if len(members) + 1 >= self.max_batch or self._closed:
                    break
                remaining = end - time.monotonic()
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
        return members

    def _control_options(self, pending: PendingSolve) -> ExecOptions:
        """The request's effective options with its control plane injected.

        Merges the pending deadline with any options-level one (earlier
        wins) and threads the per-request cancel token; both fields are
        ``repr``-excluded, so cache keys are unaffected. Shared by every
        backend item and the delta patch, which must honor the same
        deadline/cancellation contract.
        """
        options = pending.request.options or self.framework.options
        return options.with_control(pending.deadline, pending.cancel_token)

    def _item(self, pending: PendingSolve, index: int = 0) -> BatchItem:
        """The one backend job of ``pending``: its effective plan as a
        :class:`~repro.batch.BatchItem`.

        Carries the effective executor and functional flag, the options
        with the request's deadline and cancel token injected, and the
        memoized batch key, on which the process backend shards.
        """
        request = pending.request
        return BatchItem(
            index=index,
            problem=request.problem,
            executor=pending.effective_executor,
            options=self._control_options(pending),
            params=request.params,
            functional=pending.effective_functional,
            key=self._batch_key_of(pending),
        )
