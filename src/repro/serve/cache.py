"""Content-keyed LRU cache of :class:`~repro.exec.base.SolveResult`s.

The cache never hands out the stored object itself: results are *frozen* on
insert (private, read-only copies of the table and aux arrays) and *thawed*
on every hit (fresh writable copies). A caller scribbling over a returned
``result.table`` therefore can never poison what the next caller receives —
the bit-for-bit-equality guarantee of the service's cache-hit path rests on
this.

Alongside the exact-match entries the cache keeps a **base-instance index**
for the delta tier (:mod:`repro.delta`): up to :data:`BASES_PER_KEY`
``(payload snapshot, frozen result)`` bases per near-match key
(:func:`repro.delta.delta_key` — the delta-stable parts of the batch key,
payload excluded), one per *lineage*: a document and its successive edited
versions. Several documents of one shape share a key, so an exact miss
probes :meth:`get_base` for the base whose payload differs from its own in
the fewest elements, and a patched result registered with ``supersedes=``
replaces the base it was patched from — an edit chain stays one base. Base
entries share the frozen result object with the exact entry, so the index
costs one payload snapshot per base, not a second table copy.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from ..delta.diff import payload_distance
from ..exec.base import SolveResult
from ..lru import LRU

__all__ = ["ResultCache", "BASES_PER_KEY"]

#: Bases kept per near-match key: one per live lineage sharing the key.
#: Small on purpose — choosing the nearest base costs one payload compare
#: per base.
BASES_PER_KEY = 4


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


def _freeze(result: SolveResult) -> SolveResult:
    """A private snapshot safe to share across cache hits."""
    return replace(
        result,
        table=None if result.table is None else _frozen_copy(result.table),
        aux={k: _frozen_copy(v) for k, v in result.aux.items()},
        stats=dict(result.stats),
    )


def _thaw(result: SolveResult) -> SolveResult:
    """A fresh writable copy for one caller."""
    return replace(
        result,
        table=None if result.table is None else result.table.copy(),
        aux={k: v.copy() for k, v in result.aux.items()},
        stats=dict(result.stats),
    )


class ResultCache:
    """Thread-safe LRU mapping request keys to frozen solve results.

    The base index is LRU-bounded by ``capacity`` too, counted in bases.
    """

    def __init__(self, capacity: int = 128) -> None:
        self._entries = LRU(capacity)
        # Every base under its own token as ``(token, base_key, payload,
        # frozen)``, and each near-match key's tokens, most recent first.
        self._bases = LRU(capacity)
        self._lineages: dict[str, list[int]] = {}
        self._tokens = itertools.count()
        self._lock = threading.Lock()  # the base index and delta counters
        self._delta_candidates = 0
        self._delta_hits = 0

    def get(self, key: str) -> SolveResult | None:
        """The cached result for ``key`` (a fresh copy), or ``None``."""
        entry = self._entries.get(key)
        return None if entry is None else _thaw(entry)

    def put(
        self,
        key: str,
        result: SolveResult,
        *,
        base_key: str | None = None,
        payload: Mapping[str, Any] | None = None,
        supersedes: Mapping[str, Any] | None = None,
    ) -> None:
        """Insert (or refresh) ``key``, evicting least-recently-used entries.

        With ``base_key``/``payload`` the frozen result is additionally
        registered in the base-instance index under the near-match key, with
        ``payload`` stored as the diffing snapshot. The caller owns the
        snapshot's immutability (the serve layer passes the request's
        already-frozen payload, so no copy is taken here). ``supersedes`` is
        the payload snapshot of the base the result was patched from: that
        base is replaced rather than a new lineage added. A key holding more
        than :data:`BASES_PER_KEY` bases drops its least recently used one.
        """
        frozen = _freeze(result)
        self._entries.put(key, frozen)
        if base_key is None or payload is None:
            return
        with self._lock:
            tokens = self._lineages.setdefault(base_key, [])
            if supersedes is not None:
                old = next(
                    (t for t in tokens
                     if self._bases.peek(t)[2] is supersedes),
                    None,
                )
                if old is not None:
                    tokens.remove(old)
                    self._bases.pop(old)
            token = next(self._tokens)
            tokens.insert(0, token)
            if len(tokens) > BASES_PER_KEY:
                self._bases.pop(tokens.pop())
            evicted = self._bases.put(token, (token, base_key, payload, frozen))
            for old, old_key, *_ in evicted:
                lineage = self._lineages[old_key]
                lineage.remove(old)
                if not lineage:
                    del self._lineages[old_key]

    def get_base(
        self, base_key: str, payload: Mapping[str, Any] | None = None
    ) -> tuple[Mapping[str, Any], SolveResult] | None:
        """The near-match base for ``base_key`` nearest ``payload``, or ``None``.

        Among the key's bases, returns the one whose payload differs from
        ``payload`` in the fewest elements
        (:func:`~repro.delta.payload_distance`; ties and ``payload=None`` go
        to the most recently used). A key with one base is returned without
        comparing. Counts a **delta candidate** on a hit (an exact miss that
        had a near-match available — the delta tier's addressable traffic).
        The result is returned *frozen*, not thawed: the delta patch copies
        the table itself, and freezing guarantees it cannot corrupt the
        entry.
        """
        with self._lock:
            tokens = self._lineages.get(base_key)
            if not tokens:
                return None
            bases = [self._bases.peek(t) for t in tokens]
        best = bases[0]
        if payload is not None and len(bases) > 1:
            # Compare outside the lock: payloads are immutable snapshots.
            best = min(bases, key=lambda b: payload_distance(b[2], payload))
        token, _, base_payload, frozen = best
        with self._lock:
            if self._bases.get(token) is not None:  # still indexed: touch
                tokens = self._lineages[base_key]
                tokens.remove(token)
                tokens.insert(0, token)
            self._delta_candidates += 1
        return base_payload, frozen

    def has_base(self, base_key: str) -> bool:
        """Peek the base index without counting a candidate (admission)."""
        with self._lock:
            return base_key in self._lineages

    def note_delta_hit(self) -> None:
        """Record that a candidate was actually served by a delta patch."""
        with self._lock:
            self._delta_hits += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bases.clear()
            self._lineages.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    capacity = property(lambda self: self._entries.capacity)
    hits = property(lambda self: self._entries.hits)
    misses = property(lambda self: self._entries.misses)
    evictions = property(lambda self: self._entries.evictions)

    @property
    def delta_candidates(self) -> int:
        return self._delta_candidates

    @property
    def delta_hits(self) -> int:
        return self._delta_hits

    def stats(self) -> dict[str, int]:
        info = self._entries.info()
        with self._lock:
            return {
                "entries": info.size,
                "capacity": info.capacity,
                "hits": info.hits,
                "misses": info.misses,
                "evictions": self._entries.evictions,
                "base_entries": len(self._bases),
                "delta_candidates": self._delta_candidates,
                "delta_hits": self._delta_hits,
            }
