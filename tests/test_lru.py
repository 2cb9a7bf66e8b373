"""The shared thread-safe LRU (``repro.lru``) and its plan-cache user."""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.cache import PlanCache
from repro.lru import LRU, CacheInfo
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.patterns.registry import strategy_for
from repro.problems import make_levenshtein

_MISS = object()

_keys = st.integers(0, 5)
_values = st.one_of(st.none(), st.integers(0, 3))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _keys),
        st.tuples(st.just("put"), _keys, _values),
        st.tuples(st.just("put_if_absent"), _keys, _values),
        st.tuples(st.just("pop"), _keys),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


class _Reference:
    """The LRU policy over a plain list of ``[key, value]``, oldest first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items: list[list] = []
        self.hits = self.misses = self.evictions = 0

    def _find(self, key):
        return next((i for i, (k, _) in enumerate(self.items) if k == key), None)

    def _evict(self):
        evicted = []
        while len(self.items) > self.capacity:
            evicted.append(self.items.pop(0)[1])
            self.evictions += 1
        return evicted

    def get(self, key):
        i = self._find(key)
        if i is None:
            self.misses += 1
            return _MISS
        self.hits += 1
        self.items.append(self.items.pop(i))
        return self.items[-1][1]

    def put(self, key, value):
        i = self._find(key)
        displaced = [] if i is None else [self.items.pop(i)[1]]
        self.items.append([key, value])
        return displaced + self._evict()

    def put_if_absent(self, key, value):
        i = self._find(key)
        if i is not None:
            self.items.append(self.items.pop(i))
            return self.items[-1][1], []
        self.items.append([key, value])
        return value, self._evict()

    def pop(self, key):
        i = self._find(key)
        return _MISS if i is None else self.items.pop(i)[1]

    def clear(self):
        values = [v for _, v in self.items]
        self.items = []
        return values


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 4), ops=_ops)
def test_matches_a_plain_list_reference(capacity, ops):
    lru, ref = LRU(capacity), _Reference(capacity)
    for op, *args in ops:
        if op == "get":
            assert lru.get(args[0], _MISS) is ref.get(args[0])
        elif op == "pop":
            assert lru.pop(args[0], _MISS) is ref.pop(args[0])
        else:
            assert getattr(lru, op)(*args) == getattr(ref, op)(*args)
        assert list(lru) == [k for k, _ in ref.items]
        for key, value in ref.items:
            assert key in lru and lru.peek(key, _MISS) is value
        assert (lru.hits, lru.misses, lru.evictions) == (
            ref.hits, ref.misses, ref.evictions)
        assert lru.info() == CacheInfo(
            ref.hits, ref.misses, len(ref.items), capacity)


def test_stored_none_is_a_hit_not_a_miss():
    lru = LRU(2)
    lru.put("k", None)
    assert lru.get("k", _MISS) is None
    assert lru.get("absent", _MISS) is _MISS
    assert (lru.hits, lru.misses) == (1, 1)


def test_capacity_validated():
    with pytest.raises(ValueError):
        LRU(0)


def test_concurrent_gets_and_puts_stay_bounded_and_counted():
    lru = LRU(8)
    threads, gets_per_thread = 6, 2000
    oversize = []
    done = threading.Event()

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(gets_per_thread):
            key = rng.randrange(24)
            if lru.get(key) is None:
                lru.put(key, key)

    def watcher():
        while not done.is_set():
            if len(lru) > lru.capacity:
                oversize.append(len(lru))

    watch = threading.Thread(target=watcher)
    workers = [threading.Thread(target=worker, args=(s,))
               for s in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watch.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        done.set()
        watch.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers + [watch])
    assert not oversize
    assert len(lru) == lru.capacity
    assert lru.hits + lru.misses == threads * gets_per_thread
    assert all(lru.peek(k) == k for k in lru)


def test_plan_compile_race_keeps_the_first_plan(monkeypatch):
    """Two threads miss on one plan and both compile it; the plan inserted
    first is the one both get back and the one the cache keeps."""
    import repro.kernels.cache as cache_mod

    problem = make_levenshtein(24)
    schedule = strategy_for(problem).schedule
    cache = PlanCache()
    both_missed = threading.Barrier(2, timeout=30)
    first_inserted = threading.Event()
    order = itertools.count()
    compiled, got = [], []
    real = cache_mod.KernelPlan

    def racing_plan(*args, **kwargs):
        second = next(order) == 1
        both_missed.wait()
        plan = real(*args, **kwargs)
        if second:  # finish compiling only after the first plan is in
            assert first_inserted.wait(timeout=30)
        compiled.append(plan)
        return plan

    def solve():
        got.append(cache.get(problem, schedule))
        first_inserted.set()

    monkeypatch.setattr(cache_mod, "KernelPlan", racing_plan)
    previous = set_metrics(MetricsRegistry())
    try:
        threads = [threading.Thread(target=solve) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert get_metrics().counter("kernels.plan.compiled").value == 2
    finally:
        set_metrics(previous)
    assert len(compiled) == 2 and compiled[0] is not compiled[1]
    assert [id(p) for p in got] == [id(compiled[0])] * 2
    assert len(cache) == 1 and cache.get(problem, schedule) is compiled[0]
    assert (cache.hits, cache.misses) == (1, 2)
