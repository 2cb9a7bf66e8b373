"""Execution backends: where a claimed request actually runs.

:class:`~repro.serve.SolveService` owns admission, queueing, caching,
coalescing and retries; *execution* is delegated to a backend selected by
:attr:`ServiceConfig.backend <repro.serve.config.ServiceConfig.backend>`.
Every job a backend receives has one shape, a list of
:class:`~repro.batch.BatchItem`: ``execute(item)`` runs a solo request and
raises its exception, ``execute_batch(items)`` runs a coalesced set and
returns one result or exception per item. A one-item list is a plain
solve; several are one :func:`~repro.batch.execute_items` group.

* :class:`ThreadBackend` (``"thread"``) — the job runs on the calling
  service thread, inside this process. One GIL; best for cache-heavy or
  I/O-light traffic.
* :class:`ProcessPoolBackend` (``"process"``) — a pool of **spawned** worker
  processes, one per service dispatch thread. Each job crosses the process
  boundary as the same item list (pre-pickled, so unpicklable problems are
  detected up front and fall back to an in-parent run) to a worker chosen by
  **consistent-hashing the first item's batch key** — batch-compatible
  requests land on the same worker, whose :class:`~repro.kernels.KernelPlan`
  cache stays hot for exactly that shape. Result tables come back
  **zero-copy** through :mod:`repro.serve.shm`: the worker packs them into
  one shared-memory segment and replies with a small descriptor; the parent
  materializes read-only NumPy views over the same bytes.

Spawn safety (``"spawn"`` is the only start method: the parent is
multi-threaded, so ``fork`` would clone held locks): each worker runs a
deterministic initializer from a picklable :class:`_WorkerSpec` that
re-registers every picklable custom executor and re-installs the active
fault plan (rules travel as plain tuples; each worker seeds its RNG with
its worker id, so rate-based chaos stays reproducible *and* decorrelated
across workers).

Cross-process control plane:

* **deadlines** travel as absolute ``time.monotonic()`` values —
  ``CLOCK_MONOTONIC`` is system-wide on every supported platform, so the
  worker enforces exactly the deadline the parent computed;
* **cancellation** uses a per-worker *cancel slab*: one shared-memory byte
  per in-flight item, seeded from the item's
  :class:`~repro.cancel.CancelToken` at dispatch. The parent's dispatch
  thread then polls the token and flips the slot; the worker's
  :class:`_SlabCancelToken` reads it at every wavefront boundary — the
  same cooperative abort latency as the thread backend;
* **worker death** is detected by the waiting dispatch thread, which
  respawns the worker *under the same ring position* (warm cache keys
  re-shard identically) and raises a retryable
  :class:`~repro.errors.ExecutionError` so the service's existing retry
  loop re-dispatches the job.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass

import multiprocessing as mp
from multiprocessing import shared_memory

from ..batch import BatchItem, execute_items
from ..batch.executor import _solo_outcome
from ..cancel import CancelToken
from ..core.framework import Framework
from ..errors import ExecutionError
from ..exec.base import SolveResult
from ..faults import FaultPlan, FaultRule, active_faults, install_faults
from ..obs import get_metrics
from .shm import export_result, materialize_result

__all__ = ["ThreadBackend", "ProcessPoolBackend", "make_backend"]

_POLL = 0.05  # parent-side cancel/death poll interval (s)
_SLAB_SLOTS = 128  # concurrent cancellable items per worker
# The parent is multi-threaded, so ``fork`` would clone held locks.
_SPAWN = mp.get_context("spawn")


def make_backend(config, framework: Framework):
    """Build the backend for ``config`` (see :mod:`repro.serve.config`)."""
    if config.backend == "process":
        return ProcessPoolBackend(framework, workers=config.workers)
    return ThreadBackend(framework)


def _run_items(items: list[BatchItem], framework: Framework) -> list:
    """One outcome per item: a lone item is a plain solve, several a group."""
    if len(items) == 1:
        return [_solo_outcome(items[0], framework)]
    return execute_items(items, framework)


class _Backend:
    """The backend interface: every job is a list of :class:`BatchItem`.

    ``execute`` and ``execute_batch`` both call the subclass's ``_run``,
    never each other, so each public call is exactly one dispatch.
    """

    kind = ""

    def execute(self, item: BatchItem) -> SolveResult:
        """Run one item; raises the exception that stopped it."""
        outcome = self._run([item])[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def execute_batch(self, items: list[BatchItem]) -> list:
        """Run a batch-compatible set; one result or exception per item."""
        return self._run(items)

    def resize(self, target: int) -> None:
        pass

    def stats(self) -> dict:
        return {"kind": self.kind}

    def close(self) -> None:
        pass


# -- thread backend ------------------------------------------------------------


class ThreadBackend(_Backend):
    """Execute on the calling service thread, in-process (the default).

    The dispatch threads *are* the pool, so ``resize`` has nothing to do
    and ``stats`` leaves the worker count to the service.
    """

    kind = "thread"

    def __init__(self, framework: Framework) -> None:
        self.framework = framework

    def _run(self, items: list[BatchItem]) -> list:
        return _run_items(items, self.framework)


# -- consistent-hash ring ------------------------------------------------------


class _HashRing:
    """Consistent hashing of affinity keys onto worker ids.

    Virtual nodes smooth the distribution; adding or removing one worker
    remaps only the keys in its arcs, so a resize keeps most per-worker
    plan caches warm.
    """

    def __init__(self, vnodes: int = 64) -> None:
        self.vnodes = vnodes
        self._hashes: list[int] = []
        self._ids: list[int] = []

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode()).digest()[:8], "big"
        )

    def rebuild(self, worker_ids) -> None:
        points = sorted(
            (self._hash(f"{wid}#{v}"), wid)
            for wid in worker_ids
            for v in range(self.vnodes)
        )
        self._hashes = [h for h, _ in points]
        self._ids = [wid for _, wid in points]

    def lookup(self, key: str) -> int:
        if not self._ids:
            raise ExecutionError("hash ring is empty (backend closed?)")
        idx = bisect_right(self._hashes, self._hash(key)) % len(self._ids)
        return self._ids[idx]


# -- worker-process side -------------------------------------------------------


class _SlabCancelToken(CancelToken):
    """Worker-side token backed by one byte of the shared cancel slab."""

    __slots__ = ("_buf", "_slot")

    def __init__(self, buf, slot: int) -> None:
        super().__init__()
        self._buf = buf
        self._slot = slot

    def cancelled(self) -> bool:
        return super().cancelled() or self._buf[self._slot] != 0

    def wait(self, timeout: float | None = None) -> bool:
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.cancelled():
                return True
            step = 0.02
            if end is not None:
                left = end - time.monotonic()
                if left <= 0:
                    return self.cancelled()
                step = min(step, left)
            super().wait(step)


@dataclass
class _WorkerSpec:
    """Everything a spawned worker needs to rebuild the parent's world.

    Strictly picklable by construction: the platform and base options are
    plain dataclasses, executors travel as classes (pickled by reference —
    module-level classes only; unpicklable registrations are skipped at
    snapshot time), and the fault plan travels as rule tuples because
    :class:`~repro.faults.FaultPlan` holds a lock.
    """

    worker_id: int
    platform: object
    options: object  # ExecOptions with deadline/cancel_token stripped
    executors: dict  # name -> Executor subclass, beyond the builtins
    fault_rules: tuple  # (site, nth, rate, latency, message) per rule
    slab_name: str


def _snapshot_executors() -> dict:
    """Picklable view of the non-builtin executor registry (parent side)."""
    from ..exec.base import _EXECUTOR_REGISTRY, _load_builtin_executors

    _load_builtin_executors()
    builtins = dict(_EXECUTOR_REGISTRY)
    out = {}
    for name, cls in builtins.items():
        try:
            pickle.dumps(cls)
        except Exception:
            continue  # locally-defined class; solves using it fall back inline
        out[name] = cls
    return out


def _snapshot_faults() -> tuple:
    """The active fault plan as plain rule tuples (parent side)."""
    plan = active_faults()
    if plan is None:
        return ()
    return tuple(
        (r.site, r.nth, r.rate, r.latency, r.message) for r in plan.rules
    )


def _worker_init(spec: _WorkerSpec) -> Framework:
    """Spawn-safe initializer: registry, faults, framework (worker side)."""
    from ..exec.base import register_executor

    for name, cls in spec.executors.items():
        register_executor(name, cls, replace=True)
    if spec.fault_rules:
        rules = [
            FaultRule(site=s, nth=n, rate=r, latency=lat, message=m)
            for s, n, r, lat, m in spec.fault_rules
        ]
        # Seed by worker id: each worker's rate-based draws are
        # deterministic, and workers do not fire in lockstep.
        install_faults(FaultPlan(rules, seed=spec.worker_id))
    return Framework(spec.platform, spec.options)


def _run_job(framework: Framework, job: list, buf) -> list:
    """Rebuild the shipped items around their slab tokens and run them."""
    items = []
    for k, it in enumerate(job):
        token = (
            _SlabCancelToken(buf, it["slot"])
            if it["slot"] is not None else None
        )
        items.append(BatchItem(
            index=k,
            problem=it["problem"],
            executor=it["executor"],
            options=(it["options"] or framework.options).with_control(
                it["deadline"], token
            ),
            params=it["params"],
            functional=it["functional"],
            key=it["key"],
        ))
    return _run_items(items, framework)


def _picklable_exc(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecutionError(f"{type(exc).__name__}: {exc}")


def _worker_main(spec: _WorkerSpec, inbox, outbox) -> None:
    """One worker process: init once, then drain jobs until the sentinel.

    ``outbox`` is this worker's *private* reply pipe (the write end of a
    one-way :func:`multiprocessing.Pipe`). Single writer per pipe is the
    crash-safety invariant: a SIGKILLed worker can never die holding a
    lock shared with its siblings' replies — the parent just sees EOF on
    this worker's pipe and every other worker keeps flowing.
    """
    framework = _worker_init(spec)
    slab = shared_memory.SharedMemory(name=spec.slab_name)
    buf = slab.buf
    jobs = failures = batched = 0
    try:
        while True:
            payload = inbox.get()
            if payload is None:
                return
            ticket, job = pickle.loads(payload)
            try:
                entries = [
                    ("ok",) + export_result(out)
                    if isinstance(out, SolveResult)
                    else ("err", _picklable_exc(out), None)
                    for out in _run_job(framework, job, buf)
                ]
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                entries = [("err", _picklable_exc(exc), None)] * len(job)
            jobs += 1
            failures += sum(1 for entry in entries if entry[0] == "err")
            if len(job) > 1:
                batched += len(job)
            health = {
                "worker_id": spec.worker_id,
                "pid": os.getpid(),
                "jobs": jobs,
                "failures": failures,
                "batched": batched,
                "metrics": get_metrics().snapshot(),
            }
            outbox.send(((ticket, entries), health))
    finally:
        del buf
        slab.close()
        try:
            outbox.close()
        except OSError:  # pragma: no cover - parent already gone
            pass


# -- parent-process side -------------------------------------------------------


class _Inflight:
    __slots__ = ("event", "entries")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.entries: list | None = None  # one (status, a, b) per item


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("id", "process", "inbox", "slab", "buf", "free", "pending",
                 "health")

    def __init__(self, wid, process, inbox, slab) -> None:
        self.id = wid
        self.process = process
        self.inbox = inbox
        self.slab = slab
        self.buf = slab.buf
        self.free = list(range(_SLAB_SLOTS))
        self.pending = 0
        self.health: dict = {"pid": process.pid, "jobs": 0, "failures": 0}


class ProcessPoolBackend(_Backend):
    """Spawned worker-process pool with shared-memory result transport."""

    kind = "process"

    def __init__(self, framework: Framework, *, workers: int = 4) -> None:
        self.framework = framework
        self._lock = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._retired: list[_Worker] = []
        self._next_id = 0
        # One reply pipe (read end) per live worker. A shared reply Queue
        # would be a crash hazard: a SIGKILLed worker can die holding the
        # queue's cross-process write lock, wedging every sibling's
        # replies forever. Single-writer pipes turn worker death into a
        # clean EOF on exactly one connection.
        self._conns: set = set()
        self._inflight: dict[int, _Inflight] = {}
        self._tickets = itertools.count(1)
        self._ring = _HashRing()
        self._closed = False
        self._restarts = 0
        self._inline = 0
        base = framework.options
        self._spec_options = (
            None if base is None
            else base.replace(deadline=None, cancel_token=None)
        )
        with self._lock:
            for _ in range(workers):
                self._start_worker_locked()
            self._ring.rebuild(self._workers)
        self._reader = threading.Thread(
            target=self._reply_loop, name="solve-backend-replies", daemon=True,
        )
        self._reader.start()

    # -- pool plumbing ---------------------------------------------------------

    def _start_worker_locked(self, wid: int | None = None, slab=None) -> None:
        if wid is None:
            wid = self._next_id
            self._next_id += 1
        if slab is None:
            slab = shared_memory.SharedMemory(create=True, size=_SLAB_SLOTS)
        slab.buf[:] = bytes(_SLAB_SLOTS)
        spec = _WorkerSpec(
            worker_id=wid,
            platform=self.framework.platform,
            options=self._spec_options,
            executors=_snapshot_executors(),
            fault_rules=_snapshot_faults(),
            slab_name=slab.name,
        )
        inbox = _SPAWN.Queue()
        reader, writer = _SPAWN.Pipe(duplex=False)
        process = _SPAWN.Process(
            target=_worker_main,
            args=(spec, inbox, writer),
            name=f"solve-backend-{wid}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: the worker now holds
        # the only writer, so its death delivers EOF to ``reader``.
        writer.close()
        self._conns.add(reader)
        self._workers[wid] = _Worker(wid, process, inbox, slab)

    def _reply_loop(self) -> None:
        from multiprocessing.connection import wait as _conn_wait

        while True:
            with self._lock:
                conns = list(self._conns)
            if not conns:
                if self._closed and not self._inflight:
                    return
                time.sleep(0.05)
                continue
            try:
                ready = _conn_wait(conns, timeout=0.2)
            except (OSError, ValueError):  # a pipe closed mid-wait
                continue
            if not ready and self._closed and not self._inflight:
                return
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Worker exit — clean or SIGKILL — shows up as EOF on
                    # its private pipe. The waiting dispatch thread owns
                    # the respawn (liveness check in ``_await``); here we
                    # just retire the drained connection.
                    with self._lock:
                        self._conns.discard(conn)
                    try:
                        conn.close()
                    except OSError:
                        pass
                    continue
                (ticket, entries), health = msg
                with self._lock:
                    worker = self._workers.get(health["worker_id"])
                    if worker is not None:
                        worker.health = health
                    fl = self._inflight.get(ticket)
                if fl is not None:
                    fl.entries = entries
                    fl.event.set()

    def _pick(self, key: str | None) -> _Worker:
        """The worker ``key`` hashes to; the least-loaded one for no key."""
        with self._lock:
            if self._closed or not self._workers:
                raise ExecutionError("process backend is closed")
            worker = (
                None if key is None
                else self._workers.get(self._ring.lookup(key))
            )
            if worker is None:  # keyless, or the ring is mid-rebuild
                worker = min(self._workers.values(), key=lambda w: w.pending)
            worker.pending += 1
            return worker

    def _alloc_slot(self, worker: _Worker, token) -> int | None:
        """A cancel-slab slot for one item, seeded with its token's state.

        Seeding makes a token fired before dispatch visible to the worker
        at its first check; ``_await`` mirrors a later fire. ``None`` when
        every slot is in flight: the item then runs without cross-process
        cancellation.
        """
        with self._lock:
            if not worker.free:
                return None
            slot = worker.free.pop()
        worker.buf[slot] = int(token is not None and token.cancelled())
        return slot

    def _revive(self, worker: _Worker) -> None:
        """Respawn a dead worker in place (same ring id, same slab)."""
        with self._lock:
            if self._closed:
                return
            current = self._workers.get(worker.id)
            if current is not worker or worker.process.is_alive():
                return  # someone else already revived it
            self._restarts += 1
            get_metrics().counter("serve.backend.restarts").inc()
            try:
                worker.inbox.close()
                worker.inbox.cancel_join_thread()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self._start_worker_locked(worker.id, slab=worker.slab)

    def _await(self, worker: _Worker, fl: _Inflight, watch) -> list:
        """Wait for a job's reply entries, mirroring cancels, watching death.

        ``watch`` is ``[(token, slot), ...]`` — cancel tokens mirrored into
        the worker's slab while the job runs.
        """
        while not fl.event.wait(_POLL):
            for token, slot in watch:
                if (
                    token is not None and slot is not None
                    and token.cancelled() and worker.buf[slot] == 0
                ):
                    worker.buf[slot] = 1
            if not worker.process.is_alive():
                # Give the reply a final chance to drain (the worker may
                # have replied, then exited) before declaring death.
                if fl.event.wait(0.2):
                    break
                self._revive(worker)
                raise ExecutionError(
                    f"solve worker {worker.id} "
                    f"(pid {worker.health.get('pid')}) died mid-job; "
                    "respawned — retry"
                )
        return fl.entries

    def _run(self, items: list[BatchItem]) -> list:
        """Ship ``items`` as one job to the worker their key shards to.

        Deadlines travel as absolute monotonic times, cancel tokens as slab
        slots. A job that cannot pickle runs on this thread instead. A
        whole-job failure in the worker (decode, injected fault) comes back
        as that exception for every item; the service retries them solo.
        """
        worker = self._pick(items[0].key)
        ticket = next(self._tickets)
        watch: list[tuple] = []
        payload = None
        try:
            job = []
            for item in items:
                options = item.options
                deadline = token = None
                if options is not None:
                    deadline, token = options.deadline, options.cancel_token
                    options = options.replace(deadline=None, cancel_token=None)
                slot = self._alloc_slot(worker, token)
                watch.append((token, slot))
                job.append({
                    "problem": item.problem,
                    "executor": item.executor,
                    "options": options,
                    "params": item.params,
                    "functional": item.functional,
                    "deadline": deadline,  # absolute monotonic: system-wide
                    "key": item.key,
                    "slot": slot,
                })
            try:
                payload = pickle.dumps(
                    (ticket, job), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:  # noqa: BLE001 - unpicklable: run inline
                pass
            else:
                with self._lock:
                    fl = self._inflight[ticket] = _Inflight()
                get_metrics().counter("serve.backend.dispatched").inc()
                worker.inbox.put(payload)
                entries = self._await(worker, fl, watch)
        finally:
            with self._lock:
                self._inflight.pop(ticket, None)
                worker.pending -= 1
                worker.free.extend(
                    slot for _, slot in watch if slot is not None
                )
        if payload is None:
            self._inline += 1
            get_metrics().counter("serve.backend.inline").inc()
            return _run_items(items, self.framework)
        return [
            materialize_result(a, b) if status == "ok" else a
            for status, a, b in entries
        ]

    # -- lifecycle / introspection ---------------------------------------------

    def resize(self, target: int) -> None:
        """Grow or shrink the pool to ``target`` processes.

        Shrinking retires the highest worker ids (a sentinel after their
        queued jobs — nothing in flight is dropped); the consistent-hash
        ring keeps every surviving worker's keys, so plan caches stay warm.
        """
        if target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        with self._lock:
            if self._closed:
                return
            current = len(self._workers)
            if target > current:
                for _ in range(target - current):
                    self._start_worker_locked()
            elif target < current:
                for wid in sorted(self._workers)[target - current:]:
                    worker = self._workers.pop(wid)
                    self._retired.append(worker)
                    try:
                        worker.inbox.put(None)
                    except Exception:  # noqa: BLE001 - already dead
                        pass
            self._ring.rebuild(self._workers)

    def stats(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "workers": len(self._workers),
                "pids": {
                    wid: w.process.pid for wid, w in self._workers.items()
                },
                "restarts": self._restarts,
                "inline_fallbacks": self._inline,
                "per_worker": {
                    wid: dict(w.health) for wid, w in self._workers.items()
                },
            }

    def close(self) -> None:
        """Stop every worker; join (then terminate) and unlink all slabs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values()) + self._retired
            self._workers.clear()
            self._retired = []
            self._ring.rebuild(())
        for worker in workers:
            try:
                worker.inbox.put(None)
            except Exception:  # noqa: BLE001 - feeder already closed
                pass
        for worker in workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=2)
            try:
                worker.process.close()
            except Exception:  # noqa: BLE001
                pass
            try:
                worker.inbox.close()
                worker.inbox.cancel_join_thread()
            except Exception:  # noqa: BLE001
                pass
            worker.buf = None
            try:
                worker.slab.close()
                worker.slab.unlink()
            except (FileNotFoundError, BufferError, OSError):
                pass
        self._reader.join(timeout=5)
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
