"""Tests for the resilience layer: cancellation, faults, degradation, retry.

Covers the cooperative control plane (``repro.cancel``), the fault-injection
harness (``repro.faults``), graceful degradation (kernel-plan fallback and
hetero/multi CPU-only fallback) and the solve service's retry/backoff and
deadline semantics. See ``docs/resilience.md`` for the contract under test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    CancelToken,
    ContributingSet,
    ExecOptions,
    FaultPlan,
    FaultRule,
    Framework,
    HeteroParams,
    LDDPProblem,
    active_faults,
    clear_faults,
    inject_faults,
    install_faults,
    raise_if_cancelled,
)
from repro.cancel import remaining_time
from repro.errors import (
    InjectedFault,
    ServiceTimeout,
    SolveCancelled,
)
from repro.exec.hetero import fast_hetero_makespan
from repro.exec.streaming import StreamingSolver
from repro.faults import check_fault
from repro.machine.platform import hetero_high
from repro.multi import MultiHeteroExecutor, hetero_tri
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    set_metrics,
    use_tracer,
)
from repro.problems import make_levenshtein, make_prefix_sum
from repro.serve import ServiceConfig, SolveRequest, SolveService


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Isolate the process-wide registry per test."""
    previous = set_metrics(MetricsRegistry())
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


@pytest.fixture(autouse=True)
def no_leaked_faults():
    """A test that forgets to clear its fault plan must not poison the rest."""
    yield
    clear_faults()


def make_counting_problem(
    calls: list, shape=(12, 14), on_call=None, name="counting"
) -> LDDPProblem:
    """W+N recurrence whose cell records each wavefront evaluation."""

    def init(table, payload):
        table[0, :] = np.arange(table.shape[1])
        table[:, 0] = np.arange(table.shape[0])

    def cell(ctx):
        calls.append(int(ctx.i[0]) + int(ctx.j[0]))  # the wavefront index
        if on_call is not None:
            on_call(len(calls))
        return np.minimum(ctx.w, ctx.n) + 1

    return LDDPProblem(
        name=name,
        shape=shape,
        contributing=ContributingSet.of("W", "N"),
        cell=cell,
        init=init,
        fixed_rows=1,
        fixed_cols=1,
    )


def make_slow_problem(per_wavefront=0.01, shape=(24, 24), name="slow") -> LDDPProblem:
    """A solve that takes ~(rows+cols) * per_wavefront seconds."""

    def init(table, payload):
        table[0, :] = np.arange(table.shape[1])
        table[:, 0] = np.arange(table.shape[0])

    def cell(ctx):
        time.sleep(per_wavefront)
        return np.minimum(ctx.w, ctx.n) + 1

    return LDDPProblem(
        name=name,
        shape=shape,
        contributing=ContributingSet.of("W", "N"),
        cell=cell,
        init=init,
        fixed_rows=1,
        fixed_cols=1,
    )


def make_failing_problem(exc_type=RuntimeError, name="failing") -> LDDPProblem:
    def cell(ctx):
        raise exc_type(f"{name} always fails")

    return LDDPProblem(
        name=name,
        shape=(6, 8),
        contributing=ContributingSet.of("W"),
        cell=cell,
        fixed_cols=1,
    )


def make_event_problem(event: threading.Event, name="gate") -> LDDPProblem:
    """A problem whose init blocks on ``event`` — parks a worker."""

    def init(table, payload):
        event.wait(timeout=10.0)

    def cell(ctx):
        return ctx.w + 1

    return LDDPProblem(
        name=name,
        shape=(4, 6),
        contributing=ContributingSet.of("W"),
        cell=cell,
        init=init,
    )


# -- cancel tokens and checkpoints ---------------------------------------------


class TestCancelToken:
    def test_starts_clear_then_latches(self):
        tok = CancelToken()
        assert not tok.cancelled()
        tok.cancel()
        assert tok.cancelled()
        tok.cancel()  # idempotent
        assert tok.cancelled()

    def test_wait(self):
        tok = CancelToken()
        assert tok.wait(timeout=0.01) is False
        tok.cancel()
        assert tok.wait(timeout=0.01) is True

    def test_cancel_from_another_thread_unblocks_wait(self):
        tok = CancelToken()
        t = threading.Timer(0.02, tok.cancel)
        t.start()
        try:
            assert tok.wait(timeout=5.0) is True
        finally:
            t.cancel()


class TestRaiseIfCancelled:
    def test_noop_when_neither_set(self):
        raise_if_cancelled(None, None)

    def test_future_deadline_passes(self):
        raise_if_cancelled(time.monotonic() + 60.0, CancelToken())

    def test_expired_deadline_raises_service_timeout(self):
        with pytest.raises(ServiceTimeout, match="mid-execution"):
            raise_if_cancelled(time.monotonic() - 1.0)

    def test_fired_token_raises_solve_cancelled(self):
        tok = CancelToken()
        tok.cancel()
        with pytest.raises(SolveCancelled, match="cancel token"):
            raise_if_cancelled(None, tok)

    def test_token_beats_expired_deadline(self):
        tok = CancelToken()
        tok.cancel()
        with pytest.raises(SolveCancelled):
            raise_if_cancelled(time.monotonic() - 1.0, tok)

    def test_what_appears_in_message(self):
        with pytest.raises(ServiceTimeout, match="solve of 'lev'"):
            raise_if_cancelled(time.monotonic() - 1.0, None, "solve of 'lev'")

    def test_remaining_time(self):
        assert remaining_time(None) is None
        assert remaining_time(time.monotonic() + 10.0) == pytest.approx(10.0, abs=0.5)
        assert remaining_time(time.monotonic() - 10.0) < 0


# -- fault plans ---------------------------------------------------------------


class TestFaultPlan:
    def test_parse_nth(self):
        plan = FaultPlan.parse(["exec.span:nth=3"])
        (rule,) = plan.rules
        assert rule.site == "exec.span"
        assert rule.nth == 3
        assert rule.rate == 0.0

    def test_parse_combined_spec(self):
        plan = FaultPlan.parse(["machine.gpu:rate=0.25,latency=0.01"])
        (rule,) = plan.rules
        assert rule.rate == 0.25
        assert rule.latency == 0.01

    @pytest.mark.parametrize(
        "bad",
        ["nocolon", "site:", "site:wat=1", "site:rate=notafloat", "site:rate=1.5", ":nth=1"],
    )
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse([bad])

    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultRule("s", nth=2)])
        plan.check("s")  # call 1: no fire
        with pytest.raises(InjectedFault, match="s"):
            plan.check("s")  # call 2 fires
        for _ in range(10):
            plan.check("s")  # never again
        assert plan.stats()["s"]["fired"] == 1

    def test_rate_zero_never_fires_rate_one_always(self):
        never = FaultPlan([FaultRule("s", rate=0.0)])
        for _ in range(50):
            never.check("s")
        always = FaultPlan([FaultRule("s", rate=1.0)])
        for _ in range(5):
            with pytest.raises(InjectedFault):
                always.check("s")

    def test_rate_is_deterministic_under_seed(self):
        def outcomes(seed):
            plan = FaultPlan([FaultRule("s", rate=0.5)], seed=seed)
            out = []
            for _ in range(64):
                try:
                    plan.check("s")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_latency_delays_without_raising(self):
        plan = FaultPlan([FaultRule("s", latency=0.02)])
        start = time.monotonic()
        plan.check("s")
        assert time.monotonic() - start >= 0.015
        assert get_metrics().counter("faults.delayed").value >= 1

    def test_wildcard_prefix_matches_subsites(self):
        plan = FaultPlan([FaultRule("machine.*", rate=1.0)])
        with pytest.raises(InjectedFault):
            plan.check("machine.gpu")
        with pytest.raises(InjectedFault):
            plan.check("machine.cpu")
        plan.check("serve.execute")  # unrelated site untouched

    def test_stats_counts_calls_and_fires(self):
        plan = FaultPlan([FaultRule("s", nth=1)])
        with pytest.raises(InjectedFault):
            plan.check("s")
        plan.check("s")
        assert plan.stats()["s"] == {"calls": 2, "fired": 1}


class TestFaultInstallation:
    def test_no_plan_active_by_default(self):
        assert active_faults() is None
        check_fault("exec.span")  # no-op

    def test_install_and_clear(self):
        plan = FaultPlan([FaultRule("s", rate=1.0)])
        install_faults(plan)
        assert active_faults() is plan
        with pytest.raises(InjectedFault):
            check_fault("s")
        clear_faults()
        assert active_faults() is None
        check_fault("s")

    def test_inject_faults_context_restores_previous(self):
        outer = FaultPlan([FaultRule("outer", nth=1)])
        install_faults(outer)
        with inject_faults("s:rate=1.0") as plan:
            assert active_faults() is plan
            with pytest.raises(InjectedFault):
                check_fault("s")
        assert active_faults() is outer
        clear_faults()

    def test_inject_faults_accepts_rules_and_plans(self):
        with inject_faults(FaultRule("s", rate=1.0)):
            with pytest.raises(InjectedFault):
                check_fault("s")
        ready = FaultPlan([FaultRule("t", rate=1.0)])
        with inject_faults(ready):
            with pytest.raises(InjectedFault):
                check_fault("t")

    def test_injected_counter_increments(self):
        with inject_faults("s:rate=1.0"):
            with pytest.raises(InjectedFault):
                check_fault("s")
        assert get_metrics().counter("faults.injected").value >= 1


# -- one control-plane merge ---------------------------------------------------


class TestControlMerge:
    """``ExecOptions.with_control``: the earliest deadline wins and a given
    token replaces the options' one, at every entry point."""

    def test_earliest_deadline_wins(self):
        opts = ExecOptions(deadline=10.0)
        assert opts.with_control(20.0).deadline == 10.0
        assert opts.with_control(5.0).deadline == 5.0
        assert opts.with_control().deadline == 10.0
        assert ExecOptions().with_control(7.0).deadline == 7.0

    def test_given_token_replaces(self):
        old, new = CancelToken(), CancelToken()
        opts = ExecOptions(cancel_token=old)
        assert opts.with_control(cancel_token=new).cancel_token is new
        assert opts.with_control(1.0).cancel_token is old

    def test_unchanged_options_are_returned_as_is(self):
        opts = ExecOptions(deadline=1.0)
        assert opts.with_control() is opts
        assert opts.with_control(2.0) is opts

    @pytest.mark.parametrize("timeout", [None, 60.0])
    def test_solve_keeps_an_expired_options_deadline(self, timeout):
        opts = ExecOptions(deadline=time.monotonic() - 1.0)
        with pytest.raises(ServiceTimeout):
            Framework(hetero_high()).solve(
                make_levenshtein(24), executor="cpu", options=opts,
                timeout=timeout,
            )

    @pytest.mark.parametrize("timeout", [None, 60.0])
    def test_solve_many_keeps_an_expired_options_deadline(self, timeout):
        opts = ExecOptions(deadline=time.monotonic() - 1.0)
        fleet = [make_levenshtein(24, seed=k) for k in range(3)]
        with pytest.raises(ServiceTimeout):
            Framework(hetero_high()).solve_many(
                fleet, executor="cpu", options=opts, timeout=timeout,
            )


# -- deadline / cancellation in every executor --------------------------------

EXECUTORS = ["sequential", "cpu", "cpu-blocked", "cpu-wavefront-major", "gpu", "hetero"]


class TestExecutorCancellation:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_expired_deadline_aborts_solve(self, executor):
        fw = Framework(hetero_high())
        problem = make_levenshtein(24)
        with pytest.raises(ServiceTimeout, match="mid-execution"):
            fw.solve(problem, executor=executor, timeout=0.0)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fired_token_aborts_solve(self, executor):
        fw = Framework(hetero_high())
        tok = CancelToken()
        tok.cancel()
        with pytest.raises(SolveCancelled):
            fw.solve(make_levenshtein(24), executor=executor, cancel_token=tok)

    def test_multi_executor_honours_deadline(self):
        opts = ExecOptions(deadline=time.monotonic() - 1.0)
        ex = MultiHeteroExecutor(hetero_tri(), opts)
        with pytest.raises(ServiceTimeout):
            ex.solve(make_levenshtein(24))

    def test_multi_executor_honours_token(self):
        tok = CancelToken()
        tok.cancel()
        ex = MultiHeteroExecutor(hetero_tri(), ExecOptions(cancel_token=tok))
        with pytest.raises(SolveCancelled):
            ex.solve(make_levenshtein(24))

    def test_estimate_honours_deadline(self):
        fw = Framework(hetero_high())
        with pytest.raises(ServiceTimeout):
            fw.estimate(make_levenshtein(64), timeout=0.0)

    def test_fast_estimate_honours_deadline(self):
        opts = ExecOptions(deadline=time.monotonic() - 1.0)
        with pytest.raises(ServiceTimeout):
            fast_hetero_makespan(make_levenshtein(64), hetero_high(), options=opts)

    def test_abort_happens_within_one_wavefront(self):
        """Firing the token during wavefront k stops before wavefront k+1."""
        tok = CancelToken()
        calls: list = []

        def fire_on_third(n):
            if n == 3:
                tok.cancel()

        problem = make_counting_problem(calls, on_call=fire_on_third)
        fw = Framework(hetero_high())
        with pytest.raises(SolveCancelled):
            fw.solve(problem, executor="cpu", cancel_token=tok)
        assert len(calls) == 3  # no wavefront evaluated after the signal

    def test_no_deadline_is_zero_overhead_path(self):
        """Options without control signals solve exactly as before."""
        fw = Framework(hetero_high())
        problem = make_levenshtein(16)
        plain = fw.solve(problem, executor="cpu")
        guarded = fw.solve(problem, executor="cpu", timeout=60.0)
        assert np.array_equal(plain.table, guarded.table)


class TestStreamingCancellation:
    def test_expired_deadline(self):
        with pytest.raises(ServiceTimeout):
            StreamingSolver().solve(
                make_levenshtein(24), deadline=time.monotonic() - 1.0
            )

    def test_fired_token(self):
        tok = CancelToken()
        tok.cancel()
        with pytest.raises(SolveCancelled):
            StreamingSolver().solve(make_levenshtein(24), cancel_token=tok)

    def test_future_deadline_solves_normally(self):
        res = StreamingSolver().solve(
            make_levenshtein(16), deadline=time.monotonic() + 60.0
        )
        baseline = StreamingSolver().solve(make_levenshtein(16))
        assert np.array_equal(res.last_values, baseline.last_values)


# -- graceful degradation ------------------------------------------------------


class TestKernelPlanDegradation:
    def test_plan_failure_falls_back_to_generic_path(self):
        # Fresh problem instances: the span-state memo would otherwise reuse
        # the clean solve's compiled plan and never consult the plan cache.
        clean = Framework(hetero_high()).solve(make_levenshtein(24), executor="cpu")
        with inject_faults("kernels.plan:rate=1.0"):
            degraded = Framework(hetero_high()).solve(
                make_levenshtein(24), executor="cpu"
            )
        assert np.array_equal(clean.table, degraded.table)
        assert get_metrics().counter("kernels.plan.degraded").value >= 1

    def test_span_execute_failure_falls_back_per_wavefront(self):
        problem = make_levenshtein(24)
        clean = Framework(hetero_high()).solve(problem, executor="cpu")
        with inject_faults("kernels.span:nth=1"):
            degraded = Framework(hetero_high()).solve(problem, executor="cpu")
        assert np.array_equal(clean.table, degraded.table)
        assert get_metrics().counter("kernels.plan.degraded").value >= 1

    def test_exec_span_fault_is_not_swallowed(self):
        """exec.span aborts the span itself — it must surface typed."""
        with inject_faults("exec.span:nth=1"):
            with pytest.raises(InjectedFault):
                Framework(hetero_high()).solve(make_levenshtein(16), executor="cpu")


class TestGpuDegradation:
    def test_hetero_degrades_to_cpu_bit_identical(self):
        problem = make_levenshtein(32)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        with inject_faults("machine.gpu:rate=1.0"):
            result = Framework(hetero_high()).solve(problem, executor="hetero")
        assert result.executor == "hetero"
        assert result.stats["degraded"] == "cpu-only"
        [step] = result.stats["route"]
        assert step["tier"] == "device" and step["fallback"] == "cpu-only"
        assert "InjectedFault" in step["reason"]
        assert np.array_equal(oracle.table, result.table)
        metrics = get_metrics()
        assert metrics.counter("serve.degraded").value == 1
        assert metrics.counter("exec.hetero.degraded").value == 1

    def test_multi_degrades_to_cpu_bit_identical(self):
        problem = make_levenshtein(32)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        with inject_faults("machine.gpu:rate=1.0"):
            result = MultiHeteroExecutor(hetero_tri(), ExecOptions()).solve(problem)
        assert result.stats["degraded"] == "cpu-only"
        assert np.array_equal(oracle.table, result.table)
        assert get_metrics().counter("serve.degraded").value == 1

    def test_gpu_executor_does_not_degrade(self):
        """Only hetero/multi degrade; a pure-GPU run surfaces the fault."""
        with inject_faults("machine.gpu:rate=1.0"):
            with pytest.raises(InjectedFault):
                Framework(hetero_high()).solve(make_levenshtein(32), executor="gpu")

    def test_fast_estimate_does_not_degrade(self):
        """Pricing replays the hetero graph without the CPU-only fallback."""
        with inject_faults("machine.gpu:rate=1.0"):
            with pytest.raises(InjectedFault):
                fast_hetero_makespan(
                    make_levenshtein(32), hetero_high(), HeteroParams(0, 8)
                )

    def test_timeout_is_never_degraded(self):
        """A deadline abort inside hetero must not turn into a CPU rerun."""
        with pytest.raises(ServiceTimeout):
            Framework(hetero_high()).solve(
                make_levenshtein(32), executor="hetero", timeout=0.0
            )
        assert get_metrics().counter("serve.degraded").value == 0


class TestRoute:
    """``stats["route"]`` lists every fallback, outermost tier first."""

    def test_scan_then_device_fallback(self):
        problem = make_prefix_sum(64)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        tracer = Tracer()
        with inject_faults("scan.solve:rate=1.0", "machine.gpu:rate=1.0"), \
                use_tracer(tracer):
            result = Framework(hetero_high()).solve(problem, executor="hetero")
        route = result.stats["route"]
        assert [step["tier"] for step in route] == ["scan", "device"]
        assert result.stats["degraded"] == "cpu-only" == route[-1]["fallback"]
        assert "scan.solve" in route[0]["reason"]
        assert "machine.gpu" in route[1]["reason"]
        assert np.array_equal(oracle.table, result.table)
        spans = [s for s in tracer.finished_spans() if s.cat == "degrade"]
        assert [s.name for s in spans] == ["scan.degraded", "device.degraded"]
        assert all(s.attrs["executor"] == "hetero" for s in spans)

    def test_delta_then_device_fallback(self, fresh_metrics):
        base = make_levenshtein(48)
        payload = dict(base.payload)
        payload["a"] = payload["a"].copy()
        payload["a"][-1] += 1
        edited = replace(base, payload=payload)
        oracle = Framework(hetero_high()).solve(edited, executor="sequential")
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with SolveService(hetero_high(), config=cfg) as svc:
            svc.submit(SolveRequest(base)).result()
            with inject_faults("delta.patch:nth=1", "machine.gpu:rate=1.0"):
                result = svc.submit(SolveRequest(edited)).result()
        route = result.stats["route"]
        assert [step["tier"] for step in route] == ["delta", "device"]
        assert route[0]["fallback"] == "full-solve"
        assert "delta.patch" in route[0]["reason"]
        assert result.stats["degraded"] == "cpu-only"
        assert np.array_equal(oracle.table, result.table)
        assert fresh_metrics.counter("serve.cache.delta_degraded").value == 1

    def test_batch_fallback_is_recorded_per_instance(self, fresh_metrics):
        fw = Framework(hetero_high())
        problems = [make_levenshtein(20, seed=s) for s in range(3)]
        with inject_faults("batch.execute:nth=1"):
            results = fw.solve_many(problems, executor="cpu")
        assert fresh_metrics.counter("batch.degraded").value == 1
        for problem, result in zip(problems, results):
            [step] = result.stats["route"]
            assert (step["tier"], step["fallback"]) == ("batch", "per-instance")
            assert "batch.execute" in step["reason"]
            assert result.stats["degraded"] == "per-instance"
            oracle = fw.solve(problem, executor="sequential")
            assert np.array_equal(oracle.table, result.table)


# -- service: deadlines, cancellation, worker reuse ---------------------------


def _wait_until(predicate, timeout=5.0, interval=0.005):
    stop = time.monotonic() + timeout
    while time.monotonic() < stop:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestServiceDeadlines:
    def test_queue_expiry_is_distinct_from_mid_execution(self):
        gate = threading.Event()
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
            blocker = svc.submit_problem(make_event_problem(gate))
            queued = svc.submit_problem(make_levenshtein(16), timeout=0.02)
            time.sleep(0.06)  # let the deadline lapse while still queued
            gate.set()
            assert _wait_until(queued.done)
            exc = queued.exception()
            assert isinstance(exc, ServiceTimeout)
            assert "in the queue" in str(exc)
            blocker.result()  # the gated request still completes
        assert get_metrics().counter("serve.requests.timeout").value == 1

    def test_mid_execution_timeout_frees_the_worker(self):
        """The expired solve aborts at a wavefront boundary and the single
        worker immediately picks up the next request."""
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
            slow = svc.submit_problem(
                make_slow_problem(per_wavefront=0.01), timeout=0.08,
                executor="cpu",
            )
            with pytest.raises(ServiceTimeout):
                slow.result()
            assert _wait_until(slow.done)
            assert "mid-execution" in str(slow.exception())
            start = time.monotonic()
            follow_up = svc.submit_problem(make_levenshtein(12), executor="cpu")
            assert follow_up.result().table is not None
            assert time.monotonic() - start < 5.0  # worker was free, not parked
        metrics = get_metrics()
        assert metrics.counter("serve.requests.timeout").value == 1
        assert metrics.counter("serve.requests.completed").value == 1

    def test_exception_returns_worker_stored_timeout(self):
        """Regression: a ServiceTimeout stored *in the future* is returned by
        ``exception()`` (Future semantics), not raised at the caller."""
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
            slow = svc.submit_problem(
                make_slow_problem(per_wavefront=0.01), timeout=0.08,
                executor="cpu",
            )
            assert _wait_until(slow.done)
            exc = slow.exception()
            assert isinstance(exc, ServiceTimeout)  # returned, not raised

    def test_exception_raises_while_still_waiting_past_deadline(self):
        gate = threading.Event()
        try:
            with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
                svc.submit_problem(make_event_problem(gate))
                queued = svc.submit_problem(make_levenshtein(16), timeout=0.02)
                time.sleep(0.05)
                with pytest.raises(ServiceTimeout):
                    queued.exception()  # deadline passed, future not done
                gate.set()
        finally:
            gate.set()


class TestServiceCancellation:
    def test_cancel_queued_request_via_race_guard(self):
        """A future cancelled while queued is dropped by the worker through
        ``set_running_or_notify_cancel`` — never executed."""
        gate = threading.Event()
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
            blocker = svc.submit_problem(make_event_problem(gate))
            queued = svc.submit_problem(make_levenshtein(16))
            assert queued.cancel() is True
            gate.set()
            blocker.result()
            with pytest.raises(Exception):  # concurrent.futures.CancelledError
                queued.result(timeout=5.0)
        assert get_metrics().counter("serve.requests.cancelled").value == 1

    def test_request_cancel_aborts_running_solve(self):
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
            slow = svc.submit_problem(
                make_slow_problem(per_wavefront=0.01), executor="cpu"
            )
            assert _wait_until(slow._future.running)
            assert slow.request_cancel() is True
            with pytest.raises(SolveCancelled):
                slow.result(timeout=5.0)
            # the worker is free again: a follow-up request completes
            follow_up = svc.submit_problem(make_levenshtein(12), executor="cpu")
            follow_up.result(timeout=5.0)
        metrics = get_metrics()
        assert metrics.counter("serve.requests.aborted").value == 1
        assert metrics.counter("serve.requests.completed").value == 1

    def test_caller_supplied_token_reaches_the_run(self):
        """A token handed in through request options aborts the same run."""
        tok = CancelToken()
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=0)) as svc:
            slow = svc.submit(
                SolveRequest(
                    make_slow_problem(per_wavefront=0.01),
                    executor="cpu",
                    options=ExecOptions(cancel_token=tok),
                )
            )
            assert _wait_until(slow._future.running)
            tok.cancel()
            with pytest.raises(SolveCancelled):
                slow.result(timeout=5.0)


class TestServiceRetry:
    def test_transient_fault_is_retried_to_success(self):
        with inject_faults("serve.execute:nth=1"):
            with SolveService(
                hetero_high(), config=ServiceConfig(workers=1, retries=1, backoff_base=0.0)) as svc:
                result = svc.solve(make_levenshtein(16))
        assert result.table is not None
        metrics = get_metrics()
        assert metrics.counter("serve.retries").value == 1
        assert metrics.counter("serve.requests.completed").value == 1
        assert metrics.counter("serve.requests.failed").value == 0

    def test_backoff_delays_are_exponential_and_jittered(self):
        delays: list[float] = []
        with SolveService(
            hetero_high(), config=ServiceConfig(workers=1, retries=3,
            backoff_base=0.01, backoff_max=0.03)) as svc:
            svc._sleep = delays.append  # don't actually sleep
            pending = svc.submit_problem(make_failing_problem(), executor="cpu")
            with pytest.raises(RuntimeError, match="always fails"):
                pending.result(timeout=10.0)
        assert len(delays) == 3
        for attempt, actual in enumerate(delays, start=1):
            base = min(0.03, 0.01 * 2 ** (attempt - 1))
            assert 0.5 * base <= actual < 1.5 * base
        assert get_metrics().counter("serve.retries").value == 3
        assert get_metrics().counter("serve.requests.failed").value == 1

    def test_retry_rechecks_deadline_and_fails_fast(self):
        """A backoff that would overshoot the deadline surfaces ServiceTimeout
        immediately — with the triggering failure chained — instead of
        sleeping into a guaranteed timeout."""

        def no_sleep(_delay):  # pragma: no cover - failure mode
            raise AssertionError("retry slept into a guaranteed timeout")

        with SolveService(
            hetero_high(), config=ServiceConfig(workers=1, retries=3,
            backoff_base=30.0, backoff_max=30.0)) as svc:
            svc._sleep = no_sleep
            pending = svc.submit_problem(
                make_failing_problem(), executor="cpu", timeout=2.0
            )
            assert _wait_until(pending.done)
            exc = pending.exception()
        assert isinstance(exc, ServiceTimeout)
        assert "retry backoff" in str(exc)
        assert isinstance(exc.__cause__, RuntimeError)
        assert get_metrics().counter("serve.requests.timeout").value == 1

    def test_timeouts_are_never_retried(self):
        with SolveService(hetero_high(), config=ServiceConfig(workers=1, retries=5)) as svc:
            pending = svc.submit_problem(
                make_slow_problem(per_wavefront=0.01), timeout=0.08,
                executor="cpu",
            )
            with pytest.raises(ServiceTimeout):
                pending.result()
        assert get_metrics().counter("serve.retries").value == 0


class TestServiceStats:
    def test_stats_snapshot_is_consistent(self):
        svc = SolveService(hetero_high(), config=ServiceConfig(workers=2))
        try:
            snapshot = svc.stats()
            assert snapshot["workers"] == 2
            assert snapshot["closed"] is False
            assert snapshot["queue_depth"] == 0
        finally:
            svc.close()
        assert svc.stats()["closed"] is True

    def test_backoff_parameters_validated(self):
        with pytest.raises(ValueError):
            SolveService(hetero_high(), config=ServiceConfig(workers=1, backoff_base=-0.1))


# -- chaos: the end-to-end contract -------------------------------------------


class TestChaos:
    def test_every_request_completes_or_fails_typed(self):
        """Under a hostile fault plan every request either returns a correct
        table (possibly degraded) or raises a typed repro error."""
        problems = [make_levenshtein(16, seed=s) for s in range(4)]
        oracle = [
            Framework(hetero_high()).solve(p, executor="sequential").table
            for p in problems
        ]
        from repro.errors import ReproError

        with inject_faults(
            "machine.gpu:rate=0.8", "kernels.plan:rate=0.5", seed=3
        ):
            with SolveService(
                hetero_high(), config=ServiceConfig(workers=2, retries=1, backoff_base=0.0,
                cache_size=0)) as svc:
                pending = [svc.submit_problem(p) for p in problems]
                for expect, pnd in zip(oracle, pending):
                    try:
                        result = pnd.result(timeout=30.0)
                    except ReproError:
                        continue  # typed failure — allowed by the contract
                    assert np.array_equal(expect, result.table)

    def test_full_gpu_outage_still_serves_correctly(self):
        problems = [make_levenshtein(16, seed=s) for s in range(3)]
        oracle = [
            Framework(hetero_high()).solve(p, executor="sequential").table
            for p in problems
        ]
        with inject_faults("machine.gpu:rate=1.0"):
            with SolveService(hetero_high(), config=ServiceConfig(workers=2, retries=1)) as svc:
                results = svc.map(problems)
        for expect, result in zip(oracle, results):
            assert result.stats["degraded"] == "cpu-only"
            assert np.array_equal(expect, result.table)
        assert get_metrics().counter("serve.degraded").value >= 3
