"""Tests for the concurrent solve service (repro.serve)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import ContributingSet, ExecOptions, Framework, LDDPProblem
from repro.errors import (
    CacheKeyError,
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.machine.platform import hetero_high
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.problems import make_dithering, make_lcs, make_levenshtein
from repro.serve import ResultCache, ServiceConfig, SolveRequest, SolveService, problem_signature


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Isolate the process-wide registry per test."""
    previous = set_metrics(MetricsRegistry())
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


def make_costs_problem(costs: np.ndarray, name: str = "serve-costs") -> LDDPProblem:
    """min(W, N) + costs[i, j] — the result depends on every payload byte."""

    def init(table, payload):
        table[0, :] = np.arange(table.shape[1])
        table[:, 0] = np.arange(table.shape[0])

    def cell(ctx):
        return np.minimum(ctx.w, ctx.n) + ctx.payload["costs"][ctx.i, ctx.j]

    return LDDPProblem(
        name=name,
        shape=costs.shape,
        contributing=ContributingSet.of("W", "N"),
        cell=cell,
        init=init,
        fixed_rows=1,
        fixed_cols=1,
        payload={"costs": costs},
    )


def make_event_problem(
    event: threading.Event, name: str = "gate", marker=None, order=None
) -> LDDPProblem:
    """A problem whose init blocks on ``event`` (and records ``marker``)."""

    def init(table, payload):
        event.wait(timeout=10.0)
        if order is not None:
            order.append(marker)

    def cell(ctx):
        return ctx.w + 1

    return LDDPProblem(
        name=name,
        shape=(4, 6),
        contributing=ContributingSet.of("W"),
        cell=cell,
        init=init,
    )


def costs(shape=(10, 12), seed=0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 4.0, size=shape)


# -- determinism and caching ---------------------------------------------------


class TestDeterminism:
    def test_result_identical_to_direct_framework_solve(self):
        c = costs()
        direct = Framework(hetero_high()).solve(make_costs_problem(c.copy()))
        with SolveService(hetero_high(), config=ServiceConfig(workers=2)) as svc:
            served = svc.solve(make_costs_problem(c.copy()))
        assert np.array_equal(served.table, direct.table)
        assert served.simulated_time == direct.simulated_time
        assert served.executor == direct.executor

    def test_cache_hit_bit_for_bit_equal(self):
        c = costs()
        direct = Framework(hetero_high()).solve(make_costs_problem(c.copy()))
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            first = svc.solve(make_costs_problem(c.copy()))
            second = svc.solve(make_costs_problem(c.copy()))
        assert svc.cache.hits == 1 and svc.cache.misses == 1
        for res in (first, second):
            assert np.array_equal(res.table, direct.table)
            assert res.simulated_time == direct.simulated_time

    def test_aux_arrays_served_and_cached(self):
        direct = Framework(hetero_high()).solve(make_dithering(16, seed=3))
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            first = svc.solve(make_dithering(16, seed=3))
            second = svc.solve(make_dithering(16, seed=3))
        assert svc.cache.hits == 1
        for res in (first, second):
            assert np.array_equal(res.table, direct.table)
            for key, arr in direct.aux.items():
                assert np.array_equal(res.aux[key], arr)

    def test_estimate_requests_cache_without_tables(self):
        direct = Framework(hetero_high()).estimate(make_lcs(64, materialize=False))
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            pends = [
                svc.submit(
                    SolveRequest(make_lcs(64, materialize=False), functional=False)
                )
                for _ in range(2)
            ]
            results = [p.result() for p in pends]
        assert svc.cache.hits == 1
        for res in results:
            assert res.table is None
            assert res.simulated_time == direct.simulated_time

    def test_distinct_options_do_not_share_entries(self):
        from repro import ExecOptions

        p = make_lcs(48, materialize=False)
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            a = svc.submit(
                SolveRequest(p, executor="gpu", functional=False,
                             options=ExecOptions(use_wavefront_layout=True))
            ).result()
            b = svc.submit(
                SolveRequest(p, executor="gpu", functional=False,
                             options=ExecOptions(use_wavefront_layout=False))
            ).result()
        assert svc.cache.hits == 0 and svc.cache.misses == 2
        assert a.simulated_time != b.simulated_time


# -- the payload-aliasing regression ------------------------------------------


class TestPayloadAliasing:
    def test_request_snapshots_payload_at_construction(self):
        c = costs(seed=1)
        original = c.copy()
        problem = make_costs_problem(c)
        request = SolveRequest(problem)
        c += 100.0  # caller mutates *after* the request is built
        direct = Framework(hetero_high()).solve(make_costs_problem(original))
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            served = svc.submit(request).result()
        assert np.array_equal(served.table, direct.table)
        # the snapshot is private and frozen; the caller's problem untouched
        assert request.problem.payload["costs"].flags.writeable is False
        assert np.array_equal(problem.payload["costs"], original + 100.0)

    def test_mutating_returned_table_cannot_poison_cache(self):
        c = costs(seed=2)
        direct = Framework(hetero_high()).solve(make_costs_problem(c.copy()))
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            first = svc.solve(make_costs_problem(c.copy()))
            first.table[:] = -1.0
            second = svc.solve(make_costs_problem(c.copy()))
        assert svc.cache.hits == 1
        assert np.array_equal(second.table, direct.table)

    def test_mutated_payload_is_a_different_cache_key(self):
        c = costs(seed=3)
        p1 = make_costs_problem(c.copy())
        p2 = make_costs_problem(c.copy() + 1.0)
        assert problem_signature(p1) != problem_signature(p2)
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            r1 = svc.solve(p1)
            r2 = svc.solve(p2)
            r1_again = svc.solve(make_costs_problem(c.copy()))
        assert svc.cache.misses == 2 and svc.cache.hits == 1
        assert not np.array_equal(r1.table, r2.table)
        assert np.array_equal(r1_again.table, r1.table)

    def test_unhashable_payload_rejected_unless_uncacheable(self):
        problem = make_costs_problem(costs())
        problem.payload["handle"] = object()
        with pytest.raises(CacheKeyError, match="cacheable=False"):
            SolveRequest(problem)
        request = SolveRequest(problem, cacheable=False)
        assert request.signature is None
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            res = svc.submit(request).result()
        assert res.table is not None
        assert svc.cache.hits == 0 and svc.cache.misses == 0


# -- concurrency ---------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_submitters_drain_correctly(self):
        pool = [costs(seed=s) for s in range(3)]
        fw = Framework(hetero_high())
        expected = [fw.solve(make_costs_problem(c.copy())) for c in pool]
        failures = []

        with SolveService(hetero_high(), config=ServiceConfig(workers=4, queue_size=256)) as svc:
            def client(tid):
                try:
                    for k in range(6):
                        idx = (tid + k) % len(pool)
                        res = svc.solve(make_costs_problem(pool[idx].copy()))
                        if not np.array_equal(res.table, expected[idx].table):
                            failures.append((tid, k, idx))
                except Exception as exc:  # noqa: BLE001
                    failures.append((tid, repr(exc)))

            threads = [
                threading.Thread(target=client, args=(tid,)) for tid in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not failures
        m = get_metrics()
        assert m.counter("serve.requests.completed").value == 48
        assert (
            m.counter("serve.cache.hits").value
            + m.counter("serve.cache.misses").value
            == 48
        )

    def test_priority_orders_queued_work(self):
        gate = threading.Event()
        order: list[str] = []
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, cache_size=0)) as svc:
            svc.submit_problem(
                make_event_problem(gate, "gate", marker="gate", order=order),
                cacheable=False,
            )
            while svc.queue_depth() > 0:  # wait for the worker to hold it
                time.sleep(0.001)
            done = threading.Event()
            low = make_event_problem(done, "low", marker="low", order=order)
            high = make_event_problem(done, "high", marker="high", order=order)
            done.set()
            svc.submit_problem(low, priority=5, cacheable=False)
            svc.submit_problem(high, priority=0, cacheable=False)
            gate.set()
        assert order == ["gate", "high", "low"]


# -- backpressure, timeouts, retries, lifecycle --------------------------------


class TestAdmission:
    def test_queue_full_rejects_with_service_overloaded(self):
        gate = threading.Event()
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, queue_size=2)) as svc:
            blocker = svc.submit_problem(
                make_event_problem(gate), cacheable=False
            )
            while svc.queue_depth() > 0:
                time.sleep(0.001)
            fillers = [
                svc.submit_problem(make_costs_problem(costs(seed=s)))
                for s in range(2)
            ]
            with pytest.raises(ServiceOverloaded, match="queue is full"):
                svc.submit_problem(make_costs_problem(costs(seed=9)))
            gate.set()
            blocker.result()
            for f in fillers:
                f.result()
        assert get_metrics().counter("serve.requests.rejected").value == 1

    def test_expired_request_raises_service_timeout(self):
        gate = threading.Event()
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            svc.submit_problem(make_event_problem(gate), cacheable=False)
            while svc.queue_depth() > 0:
                time.sleep(0.001)
            stale = svc.submit_problem(
                make_costs_problem(costs()), timeout=0.05
            )
            with pytest.raises(ServiceTimeout):
                stale.result()
            gate.set()
        # the worker also refuses to start it once the deadline has passed
        assert get_metrics().counter("serve.requests.timeout").value == 1

    def test_failed_run_is_retried_once_then_succeeds(self):
        attempts = {"n": 0}

        def init(table, payload):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient worker failure")

        def cell(ctx):
            return ctx.w + 1

        problem = LDDPProblem(
            name="flaky", shape=(4, 6),
            contributing=ContributingSet.of("W"), cell=cell, init=init,
        )
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            res = svc.submit_problem(problem, cacheable=False).result()
        assert res.table is not None
        assert attempts["n"] == 2
        m = get_metrics()
        assert m.counter("serve.retries").value == 1
        assert m.counter("serve.requests.failed").value == 0

    def test_permanent_failure_surfaces_after_retry(self):
        calls = {"n": 0}

        def init(table, payload):
            calls["n"] += 1
            raise RuntimeError("hardware on fire")

        def cell(ctx):
            return ctx.w + 1

        problem = LDDPProblem(
            name="doomed", shape=(4, 6),
            contributing=ContributingSet.of("W"), cell=cell, init=init,
        )
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            pending = svc.submit_problem(problem, cacheable=False)
            with pytest.raises(RuntimeError, match="hardware on fire"):
                pending.result()
        assert calls["n"] == 2  # original attempt + one retry
        m = get_metrics()
        assert m.counter("serve.retries").value == 1
        assert m.counter("serve.requests.failed").value == 1

    def test_closed_service_rejects_submissions(self):
        svc = SolveService(hetero_high(), config=ServiceConfig(workers=1))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit_problem(make_costs_problem(costs()))

    def test_close_drains_pending_work(self):
        svc = SolveService(hetero_high(), config=ServiceConfig(workers=2))
        pending = [
            svc.submit_problem(make_costs_problem(costs(seed=s)))
            for s in range(6)
        ]
        svc.close(wait=True)
        for p in pending:
            assert p.result().table is not None


# -- observability (acceptance criterion) --------------------------------------


class TestMetricsExported:
    def test_queue_depth_cache_and_latency_metrics(self):
        c = costs()
        with SolveService(hetero_high(), config=ServiceConfig(workers=2)) as svc:
            for _ in range(4):
                svc.solve(make_costs_problem(c.copy()))
        m = get_metrics()
        for name in (
            "serve.queue.depth",
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.queue_wait_ms",
            "serve.latency_ms",
            "serve.execute_ms",
            "serve.requests.submitted",
            "serve.requests.completed",
        ):
            assert name in m, f"missing metric {name}"
        assert m.counter("serve.requests.submitted").value == 4
        assert m.counter("serve.requests.completed").value == 4
        assert m.counter("serve.cache.hits").value == 3
        assert m.counter("serve.cache.misses").value == 1
        hist = m.histogram("serve.latency_ms")
        assert hist.count == 4
        assert hist.percentile(99) >= hist.percentile(50) > 0
        assert m.gauge("serve.queue.depth").value == 0

    def test_request_spans_recorded(self):
        from repro.obs import Tracer, use_tracer

        c = costs()
        tracer = Tracer()
        with use_tracer(tracer):
            with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
                svc.solve(make_costs_problem(c.copy()))
                svc.solve(make_costs_problem(c.copy()))
        spans = [s for s in tracer.finished_spans() if s.name == "serve.request"]
        assert len(spans) == 2
        outcomes = sorted(s.attrs.get("outcome") for s in spans)
        assert outcomes == ["hit", "miss"]


# -- one request lifecycle: solo == a coalesced set of one ---------------------


def _gate_problem(entered: threading.Event, release: threading.Event):
    """A blocker whose init signals ``entered``, then waits for ``release``."""

    def init(table, payload):
        entered.set()
        release.wait(timeout=10.0)

    return LDDPProblem(
        name="gate", shape=(4, 6), contributing=ContributingSet.of("W"),
        cell=lambda ctx: ctx.w + 1, init=init,
    )


def _edited(problem: LDDPProblem) -> LDDPProblem:
    """``problem`` with its last ``a`` element bumped (a delta candidate)."""
    from dataclasses import replace

    payload = dict(problem.payload)
    payload["a"] = payload["a"].copy()
    payload["a"][-1] += 1
    return replace(problem, payload=payload)


def _downgrade_policy():
    from repro.slo import SLOPolicy

    return SLOPolicy(safety_factor=1.0, dispatch_overhead=0.0,
                     scale_interval=10.0)


#: outcome -> (config overrides, warm-up problems, request factory)
_LIFECYCLE = {
    "hit": (
        {},
        [make_costs_problem(costs(seed=0))],
        lambda k: SolveRequest(make_costs_problem(costs(seed=0))),
    ),
    "expired": (
        {},
        [],
        lambda k: SolveRequest(make_costs_problem(costs(seed=k)),
                               timeout=0.01),
    ),
    "cancelled": (
        {},
        [],
        lambda k: SolveRequest(make_costs_problem(costs(seed=k))),
    ),
    "delta": (
        {"options": ExecOptions(delta=True)},
        [make_levenshtein(48, seed=k) for k in range(3)],
        lambda k: SolveRequest(_edited(make_levenshtein(48, seed=k))),
    ),
    "downgraded": (
        {"slo": _downgrade_policy()},
        [],
        lambda k: SolveRequest(make_costs_problem(costs(seed=k)),
                               timeout=1.0),
    ),
}

_COUNTERS = (
    "serve.requests.completed", "serve.requests.timeout",
    "serve.requests.cancelled", "serve.requests.failed",
    "serve.cache.hits", "serve.cache.misses", "serve.cache.delta_hit",
    "serve.admission.downgraded",
)

_SPAN_ATTRS = ("problem", "executor", "outcome", "downgraded", "delta")


def _lifecycle_head(outcome: str, make) -> SolveRequest:
    """A request of the targets' batch key that survives its own claim.

    Fresh and uncacheable (no cache lookup, no delta probe), never
    cancelled, without a timeout — except in the ``downgraded`` case, where
    the same 1 s deadline down-tiers it with the targets. Named ``head`` so
    its span and set membership are told apart from the targets'.
    """
    from dataclasses import replace

    return SolveRequest(
        replace(make(3).problem, name="head"), cacheable=False,
        timeout=1.0 if outcome == "downgraded" else None,
    )


def _run_lifecycle(outcome: str, window: float):
    """Queue three batch-compatible requests behind a gated blocker, release
    them together and report what the service did with each.

    With ``window > 0`` a :func:`_lifecycle_head` is queued in front of the
    targets: a leader settled by its own prelude never drains, so the head
    is the leader whose set holds the targets. Returns the pending targets,
    the head (``None`` without a window), every non-gate ``_process_batch``
    set, the counter deltas over the release and the ``serve.request`` span
    attributes of the targets and of the head (spans read after ``close``,
    so all have ended).
    """
    from repro.obs import Tracer, use_tracer

    overrides, warm, make = _LIFECYCLE[outcome]
    cfg = ServiceConfig(workers=1, coalesce_window=window, **overrides)
    entered, release = threading.Event(), threading.Event()
    sets: list[list] = []
    tracer = Tracer()
    metrics = get_metrics()
    with use_tracer(tracer):
        with SolveService(hetero_high(), config=cfg) as svc:
            for problem in warm:
                svc.solve(problem)
            if outcome == "downgraded":
                # hetero misses the 1 s deadline by 10x; cpu fits easily.
                units = svc._pricer.units(make_costs_problem(costs()))
                svc._pricer.observe("hetero", True, units=units, wall=10.0)
                svc._pricer.observe("cpu", True, units=units, wall=1e-3)
            process_batch = svc._process_batch

            def spy(members, **kwargs):
                if members[0].request.problem.name != "gate":
                    sets.append(list(members))
                process_batch(members, **kwargs)

            svc._process_batch = spy
            tracer.clear()
            before = {name: metrics.counter(name).value for name in _COUNTERS}
            hold = svc.submit(SolveRequest(
                _gate_problem(entered, release), executor="cpu",
                cacheable=False,
            ))
            assert entered.wait(timeout=10.0)
            head = (
                svc.submit(_lifecycle_head(outcome, make)) if window else None
            )
            pending = [svc.submit(make(k)) for k in range(3)]
            if outcome == "cancelled":
                assert all(p.cancel() for p in pending)
            if outcome == "expired":
                time.sleep(0.03)
            release.set()
            hold.result()
            if head is not None:
                head.result()
    counts = {
        name: metrics.counter(name).value - before[name] for name in _COUNTERS
    }
    spans = {"target": [], "head": []}
    for s in tracer.finished_spans():
        name = s.attrs.get("problem")
        if s.name == "serve.request" and name != "gate":
            spans["head" if name == "head" else "target"].append(
                {k: s.attrs.get(k) for k in _SPAN_ATTRS}
            )
    return pending, head, sets, counts, spans


class TestLifecycleEquivalence:
    """A request settles the same way alone and inside a drained set: same
    outcome, counters and ``serve.request`` span attributes."""

    @pytest.mark.parametrize("window", [0.0, 0.05], ids=["solo", "drained"])
    @pytest.mark.parametrize("outcome", list(_LIFECYCLE))
    def test_outcome_counters_and_spans(self, outcome, window):
        pending, head, sets, counts, spans = _run_lifecycle(outcome, window)
        expected_counts = dict.fromkeys(_COUNTERS, 0)
        expected_counts["serve.requests.completed"] = 1  # the blocker
        if window:
            # The targets really were one drained set, led by the head and
            # claimed in submit order.
            [members] = sets
            assert members[0] is head
            assert list(map(id, members[1:])) == list(map(id, pending))
            # The head's own known contribution: one uncached completion
            # (down-tiered with the targets in the downgraded case).
            head_span = {k: None for k in _SPAN_ATTRS}
            head_span.update(problem="head", executor="hetero",
                             outcome="uncached")
            expected_counts["serve.requests.completed"] += 1
            if outcome == "downgraded":
                assert head.result().executor == "cpu"
                expected_counts["serve.admission.downgraded"] += 1
                head_span.update(executor="cpu",
                                 downgraded="executor 'hetero' -> 'cpu'")
            assert spans["head"] == [head_span]
        else:
            assert head is None and spans["head"] == []
        span = {k: None for k in _SPAN_ATTRS}
        if outcome == "cancelled":
            assert all(p._future.cancelled() for p in pending)
            expected_counts["serve.requests.cancelled"] = 3
            assert spans["target"] == []
            assert counts == expected_counts
            return
        if outcome == "expired":
            for p in pending:
                exc = p.exception()
                assert isinstance(exc, ServiceTimeout)
                assert "in the queue" in str(exc)
            expected_counts["serve.requests.timeout"] = 3
            span.update(problem="serve-costs", executor="hetero",
                        outcome="timeout")
        else:
            results = [p.result() for p in pending]
            expected_counts["serve.requests.completed"] += 3
            if outcome == "hit":
                expected_counts["serve.cache.hits"] = 3
                span.update(problem="serve-costs", executor="hetero",
                            outcome="hit")
            elif outcome == "delta":
                assert [r.stats["solver"] for r in results] == ["delta"] * 3
                expected_counts["serve.cache.misses"] = 3
                expected_counts["serve.cache.delta_hit"] = 3
                span.update(problem="levenshtein-48x48", executor="hetero",
                            outcome="miss", delta=True)
            else:  # downgraded
                assert {r.executor for r in results} == {"cpu"}
                assert {p.downgraded for p in pending} == {
                    "executor 'hetero' -> 'cpu'"}
                expected_counts["serve.cache.misses"] = 3
                expected_counts["serve.admission.downgraded"] += 3
                span.update(problem="serve-costs", executor="cpu",
                            outcome="miss",
                            downgraded="executor 'hetero' -> 'cpu'")
        assert counts == expected_counts
        assert spans["target"] == [span] * 3


class TestDrainOrder:
    def test_equal_priority_members_claimed_in_submit_order(self):
        """Three compatible requests queued in order behind a leader are
        drained FIFO, whatever the queue heap's array order is."""
        entered, release = threading.Event(), threading.Event()
        sets: list[list] = []
        cfg = ServiceConfig(workers=1, coalesce_window=0.05)
        with SolveService(hetero_high(), config=cfg) as svc:
            process_batch = svc._process_batch

            def spy(members, **kwargs):
                if members[0].request.problem.name != "gate":
                    sets.append(list(members))
                process_batch(members, **kwargs)

            svc._process_batch = spy
            hold = svc.submit(SolveRequest(
                _gate_problem(entered, release), executor="cpu",
                cacheable=False,
            ))
            assert entered.wait(timeout=10.0)
            head = svc.submit(SolveRequest(
                make_costs_problem(costs(seed=9), name="head"),
                cacheable=False,
            ))
            pending = [
                svc.submit(SolveRequest(make_costs_problem(costs(seed=k))))
                for k in range(3)
            ]
            release.set()
            hold.result()
            results = [p.result() for p in [head, *pending]]
        [members] = sets
        assert members[0] is head
        assert list(map(id, members[1:])) == list(map(id, pending))
        assert all(r.stats.get("batched") == 4 for r in results)


class TestClaimBeforeCoalescing:
    """Only a leader that will execute waits out the coalescing window."""

    WINDOW = 2.0

    def _service(self) -> SolveService:
        # max_batch=2: a pair fills its set, so the warm-up never waits.
        return SolveService(hetero_high(), config=ServiceConfig(
            workers=1, coalesce_window=self.WINDOW, max_batch=2,
            options=ExecOptions(delta=True),
        ))

    @pytest.mark.parametrize("outcome", ["hit", "delta", "expired"])
    def test_settled_leader_returns_well_inside_the_window(self, outcome):
        docs = [make_levenshtein(48, seed=0), make_levenshtein(48, seed=1)]
        with self._service() as svc:
            svc.map(docs)  # warm: cached, and registered as delta bases
            drained = []
            drain = svc._drain_compatible

            def spy(leader, key):
                drained.append(leader)
                return drain(leader, key)

            svc._drain_compatible = spy
            if outcome == "expired":
                request = SolveRequest(make_levenshtein(48, seed=2),
                                       timeout=1e-6)
            else:
                problem = docs[0] if outcome == "hit" else _edited(docs[0])
                request = SolveRequest(problem)
            started = time.monotonic()
            pending = svc.submit(request)
            # The worker-side outcome: result() would raise client-side as
            # soon as the expired request's own deadline passes.
            exc = pending._future.exception(timeout=10.0)
            elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"{outcome} waited {elapsed:.2f} s"
        assert drained == []  # a settled leader never drains
        if outcome == "expired":
            assert isinstance(exc, ServiceTimeout)
            assert "in the queue" in str(exc)
            return
        assert exc is None
        result = pending.result()
        if outcome == "hit":
            assert pending.cache_hit is True
        else:
            assert result.stats["solver"] == "delta"
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        assert np.array_equal(result.table, oracle.table)

    def test_executing_leader_still_waits_for_company(self):
        # A shape with no cached base: both requests miss and execute.
        docs = [make_levenshtein(40, seed=s) for s in range(2)]
        with self._service() as svc:
            first = svc.submit(SolveRequest(docs[0]))
            time.sleep(0.2)  # the leader is already waiting in its window
            second = svc.submit(SolveRequest(docs[1]))
            results = [first.result(timeout=10.0), second.result(timeout=10.0)]
        assert [r.stats.get("batched") for r in results] == [2, 2]
        for problem, result in zip(docs, results):
            oracle = Framework(hetero_high()).solve(problem,
                                                    executor="sequential")
            assert np.array_equal(result.table, oracle.table)


# -- the cache in isolation ----------------------------------------------------


class TestResultCache:
    def test_lru_eviction(self):
        from repro.exec.base import SolveResult
        from repro.types import Pattern

        cache = ResultCache(capacity=2)
        for k in range(3):
            cache.put(
                f"k{k}",
                SolveResult(problem=f"p{k}", executor="x",
                            pattern=Pattern.HORIZONTAL, simulated_time=1.0,
                            table=np.full((2, 2), k)),
            )
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.get("k0") is None  # evicted, counts a miss
        assert cache.get("k2").table[0, 0] == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_levenshtein_roundtrip_signature_stable(self):
        a = problem_signature(make_levenshtein(32, seed=5))
        b = problem_signature(make_levenshtein(32, seed=5))
        c = problem_signature(make_levenshtein(32, seed=6))
        assert a == b
        assert a != c
