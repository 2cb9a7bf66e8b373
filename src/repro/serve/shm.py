"""Zero-copy result transport over POSIX shared memory.

The process backend (:mod:`repro.serve.backends`) must move solved tables —
potentially hundreds of megabytes — from worker processes back to the
service without pickling the bytes through a pipe. This module is that
transport:

* **worker side** — :func:`export_result` packs a result's arrays (table +
  aux) into one :class:`multiprocessing.shared_memory.SharedMemory` block
  (64-byte-aligned offsets, one segment per result) and returns a small
  picklable *descriptor* plus the array-stripped result; the worker closes
  its mapping immediately — the segment itself persists until unlinked;
* **parent side** — :func:`materialize_result` attaches the segment and
  rebuilds the arrays as **read-only NumPy views** directly over the shared
  block: no copy, ever. Each view holds one reference on a refcounted
  :class:`ShmSegment` handle and registers a ``weakref.finalize``; when the
  last view (and index entry) dies, the segment is closed and **unlinked**
  — no leaked ``/dev/shm`` blocks (regression-tested);
* **cache tier** — :class:`SegmentIndex` is the process backend's result
  cache: an LRU index over live segments keyed by request key. Because the
  segments are OS objects (mmap'd files under ``/dev/shm``), entries stay
  warm across worker restarts — a respawned worker's results are wherever
  they always were, and a warm key resolves parent-side with a refcount
  bump instead of a recompute. Hits are zero-copy and read-only; callers
  copy to mutate (``result.table.copy()``).

Lifetime bookkeeping is parent-owned: one :class:`ShmSegment` per segment
name lives in a module registry, acquire/release is under one lock, and
``unlink`` happens exactly once, on the drop of the last reference.
:func:`live_segment_count` exposes the registry size so tests and the
scale-out benchmark can assert zero leaks.
"""

from __future__ import annotations

import threading
import weakref
from multiprocessing import shared_memory

import numpy as np
from numpy.lib.format import descr_to_dtype, dtype_to_descr

from ..exec.base import SolveResult
from ..lru import LRU

__all__ = [
    "ShmSegment",
    "SegmentIndex",
    "export_result",
    "materialize_result",
    "live_segment_count",
]

_ALIGN = 64  # byte alignment of each packed array

# -- parent-side segment registry ----------------------------------------------

_REGISTRY: dict[str, "ShmSegment"] = {}
_REGISTRY_LOCK = threading.Lock()


class ShmSegment:
    """A refcounted parent-side handle on one shared-memory block.

    Acquire one reference per consumer (a materialized view, a
    :class:`SegmentIndex` entry); the release of the last reference closes
    the mapping and unlinks the block. Handles are interned by name in a
    module registry so every consumer of one segment shares one refcount.
    """

    __slots__ = ("name", "_shm", "_refs", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self._shm = shared_memory.SharedMemory(name=name)
        self._refs = 0

    @property
    def buf(self):
        return self._shm.buf

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def acquire(self) -> "ShmSegment":
        with _REGISTRY_LOCK:
            self._refs += 1
        return self

    def release(self) -> None:
        with _REGISTRY_LOCK:
            self._refs -= 1
            if self._refs > 0:
                return
            _REGISTRY.pop(self.name, None)
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, BufferError, OSError):  # pragma: no cover
            pass  # already gone, or torn down during interpreter exit


def _adopt(name: str) -> ShmSegment:
    """The interned handle for ``name``, attaching on first sight."""
    with _REGISTRY_LOCK:
        seg = _REGISTRY.get(name)
        if seg is None:
            seg = _REGISTRY[name] = ShmSegment(name)
    return seg


def _release(entries) -> None:
    """Drop the segment reference of each ``(meta, descriptor)`` entry."""
    for _, descriptor in entries:
        if descriptor is not None:
            _adopt(descriptor["segment"]).release()


def live_segment_count() -> int:
    """Segments this process currently holds references on (test hook)."""
    with _REGISTRY_LOCK:
        return len(_REGISTRY)


# -- packing / unpacking -------------------------------------------------------


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_specs(result: SolveResult) -> tuple[list, int]:
    """Layout ``(field, key, offset, shape, dtype)`` specs and total bytes."""
    specs: list = []
    offset = 0
    arrays: list[tuple[str, str, np.ndarray]] = []
    if result.table is not None:
        arrays.append(("table", "", result.table))
    for key, arr in result.aux.items():
        arrays.append(("aux", key, arr))
    for fieldname, key, arr in arrays:
        offset = _aligned(offset)
        specs.append(
            [fieldname, key, offset, list(arr.shape), dtype_to_descr(arr.dtype)]
        )
        offset += arr.nbytes
    return specs, offset


def export_result(result: SolveResult) -> tuple[SolveResult, dict | None]:
    """Pack ``result``'s arrays into one fresh segment (worker side).

    Returns ``(meta, descriptor)`` where ``meta`` is the result with its
    arrays stripped (small, pickles over the reply queue) and ``descriptor``
    names the segment and the packed layout — or ``None`` when the result
    carries no arrays (estimate-only runs), in which case ``meta`` is the
    result itself. The local mapping is closed before returning; the block
    persists until the parent unlinks it.
    """
    specs, nbytes = _pack_specs(result)
    if not specs:
        return result, None
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    try:
        for fieldname, key, offset, shape, dtype in specs:
            src = result.table if fieldname == "table" else result.aux[key]
            dst = np.ndarray(
                tuple(shape), dtype=descr_to_dtype(dtype), buffer=shm.buf,
                offset=offset,
            )
            dst[...] = src
            del dst
    finally:
        name = shm.name
        shm.close()
    descriptor = {"segment": name, "nbytes": nbytes, "arrays": specs}
    import dataclasses

    meta = dataclasses.replace(
        result, table=None, aux={}, stats=dict(result.stats)
    )
    return meta, descriptor


def materialize_result(
    meta: SolveResult, descriptor: dict | None
) -> SolveResult:
    """Rebuild a result from its descriptor as read-only views (parent side).

    Every returned array is a zero-copy view over the shared block with
    ``writeable=False``; each holds one segment reference released by a
    ``weakref.finalize`` when the array is garbage-collected. The
    descriptor is echoed under ``stats["shm"]`` so cache tiers (and
    debuggers) can find the segment again.
    """
    if descriptor is None:
        return meta
    seg = _adopt(descriptor["segment"])
    table = None
    aux: dict[str, np.ndarray] = {}
    for fieldname, key, offset, shape, dtype in descriptor["arrays"]:
        view = np.ndarray(
            tuple(shape), dtype=descr_to_dtype(dtype), buffer=seg.buf,
            offset=offset,
        )
        view.flags.writeable = False
        seg.acquire()
        weakref.finalize(view, seg.release)
        if fieldname == "table":
            table = view
        else:
            aux[key] = view
    import dataclasses

    stats = dict(meta.stats)
    stats["shm"] = descriptor
    stats.setdefault("transport", "shm")
    return dataclasses.replace(meta, table=table, aux=aux, stats=stats)


# -- the cross-process cache index ---------------------------------------------


class SegmentIndex:
    """LRU result cache over shared-memory segments (process backend).

    The drop-in counterpart of :class:`repro.serve.cache.ResultCache` for
    ``backend="process"``: same ``get``/``put``/``stats`` surface, different
    deal — entries reference the mmap'd segments the workers produced, hits
    are zero-copy **read-only** views (a refcount bump, not a table copy),
    and warmth survives worker restarts because the bytes live in the OS,
    not in any worker. Results without arrays (estimates) are stored
    directly. An entry holds one segment reference for as long as it is
    indexed; eviction releases it, and the block is unlinked once the last
    outstanding view dies.
    """

    def __init__(self, capacity: int = 128) -> None:
        # request key -> (array-stripped result, segment descriptor | None)
        self._entries = LRU(capacity)

    def get(self, key: str) -> SolveResult | None:
        """A zero-copy read-only view of the cached result, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        meta, descriptor = entry
        result = materialize_result(meta, descriptor)
        result.stats["transport"] = "shm-index" if descriptor else "index"
        return result

    def put(self, key: str, result: SolveResult) -> None:
        """Index ``result``; shm-backed results are indexed without copying.

        A result that came off the shared-memory transport (its
        ``stats["shm"]`` descriptor is set) is indexed by reference — the
        index just takes a segment reference. A plain heap result (the
        in-parent fallback path for unpicklable work) is exported into a
        fresh segment first, so every indexed entry is segment-backed and
        restart-proof.
        """
        descriptor = result.stats.get("shm")
        if descriptor is None and (result.table is not None or result.aux):
            meta, descriptor = export_result(result)
        else:
            import dataclasses

            stats = {
                k: v for k, v in result.stats.items()
                if k not in ("shm", "transport")
            }
            meta = dataclasses.replace(
                result, table=None, aux={}, stats=stats
            )
        if descriptor is not None:
            _adopt(descriptor["segment"]).acquire()
        # displaced entries release their segments outside the index lock
        _release(self._entries.put(key, (meta, descriptor)))

    def clear(self) -> None:
        _release(self._entries.clear())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    capacity = property(lambda self: self._entries.capacity)
    hits = property(lambda self: self._entries.hits)
    misses = property(lambda self: self._entries.misses)
    evictions = property(lambda self: self._entries.evictions)

    def stats(self) -> dict[str, int]:
        info = self._entries.info()
        return {
            "entries": info.size,
            "capacity": info.capacity,
            "hits": info.hits,
            "misses": info.misses,
            "evictions": self._entries.evictions,
            "kind": "segment-index",
        }
