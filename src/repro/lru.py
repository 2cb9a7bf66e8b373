"""One thread-safe LRU: the eviction policy the package's caches share.

Strategies, block grids and kernel plans are memoised by geometry (the
paper's schedules are data-independent); results, delta bases, shared-memory
segments and admission prices by content. Each cache is an :class:`LRU`. An
insert hands back the values it displaced, so a caller holding a resource
per entry releases it after the lock is dropped.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple

__all__ = ["LRU", "CacheInfo"]

CacheInfo = namedtuple("CacheInfo", "hits misses size capacity")


class LRU:
    """A bounded mapping that evicts its least recently used key.

    Only :meth:`get` counts a hit or a miss; ``evictions`` counts entries
    dropped for capacity. Reads by :meth:`get` and inserts refresh a key.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        """The value under ``key``, else ``default`` (a miss).

        Pass a sentinel ``default`` to tell a stored ``None`` from a miss.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def peek(self, key, default=None):
        """The value under ``key`` without counting or reordering."""
        with self._lock:
            return self._data.get(key, default)

    def put(self, key, value) -> list:
        """Store ``value`` under ``key``; return the values it displaced.

        Those are the key's previous value, if any, then the least recently
        used entries evicted over capacity.
        """
        with self._lock:
            displaced = [self._data.pop(key)] if key in self._data else []
            self._data[key] = value
            return displaced + self._evict()

    def put_if_absent(self, key, value) -> tuple:
        """Store ``value`` unless ``key`` is present: the first value wins.

        Returns ``(kept value, evicted values)``.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key], []
            self._data[key] = value
            return value, self._evict()

    def _evict(self) -> list:
        """Drop entries over capacity, oldest first (lock held)."""
        evicted = []
        while len(self._data) > self.capacity:
            evicted.append(self._data.popitem(last=False)[1])
            self.evictions += 1
        return evicted

    def pop(self, key, default=None):
        """Remove ``key`` and return its value, else ``default``."""
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> list:
        """Drop every entry and return the values; counters are kept."""
        with self._lock:
            values = list(self._data.values())
            self._data.clear()
            return values

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self.hits, self.misses, len(self._data), self.capacity
            )

    def __len__(self) -> int:
        with self._lock:  # never the transient size inside an insert
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def __iter__(self):
        """The keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._data))
