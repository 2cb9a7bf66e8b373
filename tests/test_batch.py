"""Batched multi-instance solving: planner, executor, serve coalescing.

The heart of the contract is bit-equality: a batched solve — stacked or
swept tier, direct ``solve_many`` or serve-layer coalescing — must produce
exactly the table a per-instance ``Framework.solve`` produces, for every
pattern. Hypothesis drives contributing sets and shapes through both tiers;
the rest of the module covers the planner's grouping/sharding policy,
per-item deadlines and cancellation inside a batch, fault-driven
degradation, and the coalescing window's interaction with the result cache.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecOptions, Framework, solve_many
from repro.batch import (
    BatchItem,
    BatchPlanner,
    batch_key,
    execute_items,
    payload_fingerprint,
)
from repro.cancel import CancelToken
from repro.errors import ServiceTimeout, SolveCancelled
from repro.exec.base import SolveResult
from repro.faults import FaultPlan, inject_faults
from repro.obs import get_metrics
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.problems import make_levenshtein, make_synthetic
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.types import ContributingSet

SETTINGS = settings(max_examples=25, deadline=None)

#: shared by the hypothesis tests (stateless across examples).
_FW = Framework()


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(old)


def _min_payload_cell(ctx):
    vals = [v for v in (ctx.w, ctx.nw, ctx.n, ctx.ne) if v is not None]
    out = vals[0]
    for v in vals[1:]:
        out = np.minimum(out, v)
    return out + ctx.payload["inc"][0]


def make_payload_problem(contributing, rows, cols, inc, dtype=np.int64):
    """Minsum with a per-instance payload increment: swept-tier fodder."""
    from repro import LDDPProblem

    return LDDPProblem(
        name=f"payload-{contributing.mask}-{rows}x{cols}",
        shape=(rows, cols),
        contributing=contributing,
        cell=_min_payload_cell,
        payload={"inc": np.array([inc], dtype=dtype)},
        dtype=np.dtype(dtype),
        oob_value=0,
    )


# -- bit-equality across all patterns -----------------------------------------


@SETTINGS
@given(
    mask=st.integers(min_value=1, max_value=15),
    rows=st.integers(min_value=2, max_value=14),
    cols=st.integers(min_value=2, max_value=14),
    batch=st.integers(min_value=2, max_value=5),
)
def test_stacked_tier_bit_identical_all_patterns(mask, rows, cols, batch):
    """Identical payload-free instances take the stacked tier bit-exactly."""
    fw = _FW
    problems = [make_synthetic(ContributingSet(mask), rows, cols)
                for _ in range(batch)]
    oracle = fw.solve(problems[0]).table
    results = fw.solve_many(problems)
    for r in results:
        assert r.stats["batch_mode"] == "stacked"
        assert r.stats["batched"] == batch
        np.testing.assert_array_equal(r.table, oracle)


@SETTINGS
@given(
    mask=st.integers(min_value=1, max_value=15),
    rows=st.integers(min_value=2, max_value=14),
    cols=st.integers(min_value=2, max_value=14),
    batch=st.integers(min_value=2, max_value=5),
)
def test_swept_tier_bit_identical_all_patterns(mask, rows, cols, batch):
    """Distinct payloads force the swept tier; each table matches its solo."""
    fw = _FW
    cs = ContributingSet(mask)
    problems = [make_payload_problem(cs, rows, cols, inc=k + 1)
                for k in range(batch)]
    results = fw.solve_many(problems)
    for p, r in zip(problems, results):
        assert r.stats["batch_mode"] == "swept"
        np.testing.assert_array_equal(r.table, fw.solve(p).table)


def test_solve_many_no_kernel_fastpath_matches(fw):
    """The batched generic path (plans off) stays bit-identical too."""
    problems = [make_levenshtein(24, seed=s) for s in range(3)]
    options = ExecOptions(kernel_fastpath=False)
    results = fw.solve_many(problems, options=options)
    for p, r in zip(problems, results):
        np.testing.assert_array_equal(
            r.table, fw.solve(p, options=options).table
        )


def test_solve_many_mixed_fleet_input_order(fw):
    """A mixed fleet resolves per-group but returns in input order."""
    lev = [make_levenshtein(20, seed=s) for s in range(3)]
    syn = [make_synthetic(ContributingSet.of("W", "N"), 10, 11)
           for _ in range(2)]
    fleet = [lev[0], syn[0], lev[1], syn[1], lev[2]]
    results = fw.solve_many(fleet)
    assert [r.problem for r in results] == [p.name for p in fleet]
    for p, r in zip(fleet, results):
        np.testing.assert_array_equal(r.table, fw.solve(p).table)


def test_solve_many_estimate_mode_shares_timing(fw):
    problems = [make_levenshtein(24, seed=s, materialize=False)
                for s in range(3)]
    items = [BatchItem(index=k, problem=p, functional=False)
             for k, p in enumerate(problems)]
    outcomes = execute_items(items, fw)
    expected = fw.estimate(problems[0])
    for out in outcomes:
        assert isinstance(out, SolveResult)
        assert out.table is None
        assert out.simulated_time == expected.simulated_time
        assert out.stats["batch_mode"] == "estimate"


def test_solve_many_timing_matches_per_instance(fw):
    """The shared timing model equals what each instance would get alone."""
    problems = [make_levenshtein(32, seed=s) for s in range(4)]
    results = fw.solve_many(problems)
    expected = fw.solve(problems[0]).simulated_time
    assert all(r.simulated_time == expected for r in results)


def test_module_level_solve_many():
    problems = [make_levenshtein(16, seed=s) for s in range(2)]
    results = solve_many(problems)
    assert [r.problem for r in results] == [p.name for p in problems]


def test_solve_many_raises_first_failure(fw):
    def bad_cell(ctx):
        raise RuntimeError("boom")

    from repro import LDDPProblem

    bad = LDDPProblem(
        name="bad", shape=(6, 6),
        contributing=ContributingSet.of("W"), cell=bad_cell,
        dtype=np.int64, oob_value=0,
    )
    with pytest.raises(RuntimeError, match="boom"):
        fw.solve_many([make_levenshtein(12), bad])


# -- planner: keys, grouping, sharding ----------------------------------------


def test_batch_key_groups_distinct_payloads():
    a, b = make_levenshtein(32, seed=0), make_levenshtein(32, seed=1)
    assert batch_key(a) == batch_key(b)
    assert payload_fingerprint(a) != payload_fingerprint(b)


def test_batch_key_splits_on_shape_dtype_cell_options():
    base = make_levenshtein(32)
    assert batch_key(base) != batch_key(make_levenshtein(33))
    assert batch_key(base) != batch_key(
        make_levenshtein(32, dtype=np.int64)
    )
    cs = ContributingSet.of("W", "N")
    assert batch_key(make_synthetic(cs, 32, 32)) != batch_key(base)
    assert batch_key(base) != batch_key(base, executor="sequential")
    assert batch_key(base) != batch_key(
        base, options=ExecOptions(kernel_fastpath=False)
    )
    assert batch_key(base) != batch_key(base, functional=False)


def test_batch_key_ignores_deadline_and_token():
    """Run-scoped control fields are repr-excluded: they never split groups."""
    base = make_levenshtein(32)
    with_control = ExecOptions(
        deadline=time.monotonic() + 5, cancel_token=CancelToken()
    )
    assert batch_key(base) == batch_key(base, options=with_control)


def test_planner_shards_and_isolates():
    lev = [BatchItem(index=k, problem=make_levenshtein(16, seed=k))
           for k in range(10)]
    cs = ContributingSet.of("W")
    syn = BatchItem(index=10, problem=make_synthetic(cs, 8, 8))
    unkeyable = BatchItem(index=11, problem=make_levenshtein(16))
    unkeyable.key = None  # simulate an unkeyable cell function
    groups = BatchPlanner(max_batch=4).plan(lev + [syn, unkeyable])
    sizes = [g.size for g in groups]
    assert sizes == [4, 4, 2, 1, 1]
    assert groups[3].items[0] is syn
    assert groups[4].key is None


def test_planner_rejects_bad_max_batch():
    with pytest.raises(ValueError):
        BatchPlanner(max_batch=0)


def test_group_stackable_rules():
    same = [BatchItem(index=k, problem=make_levenshtein(16, seed=7))
            for k in range(3)]
    differ = [BatchItem(index=k, problem=make_levenshtein(16, seed=k))
              for k in range(3)]
    groups = BatchPlanner().plan(same)
    assert len(groups) == 1 and groups[0].stackable()
    groups = BatchPlanner().plan(differ)
    assert len(groups) == 1 and not groups[0].stackable()


# -- per-item control inside a batch ------------------------------------------


def test_deadline_expiry_inside_batch(fw):
    """One pre-expired member times out; its batch-mates still complete."""
    problems = [make_levenshtein(24, seed=s) for s in range(3)]
    items = [
        BatchItem(
            index=k, problem=p,
            options=ExecOptions(deadline=time.monotonic() - 1)
            if k == 1 else None,
        )
        for k, p in enumerate(problems)
    ]
    outcomes = execute_items(items, fw)
    assert isinstance(outcomes[1], ServiceTimeout)
    for k in (0, 2):
        assert isinstance(outcomes[k], SolveResult)
        np.testing.assert_array_equal(
            outcomes[k].table, fw.solve(problems[k]).table
        )


def test_cancelled_token_inside_batch(fw):
    problems = [make_levenshtein(24, seed=s) for s in range(3)]
    token = CancelToken()
    token.cancel()
    items = [
        BatchItem(index=k, problem=p,
                  options=ExecOptions(cancel_token=token) if k == 0 else None)
        for k, p in enumerate(problems)
    ]
    outcomes = execute_items(items, fw)
    assert isinstance(outcomes[0], SolveCancelled)
    assert all(isinstance(outcomes[k], SolveResult) for k in (1, 2))


def test_options_deadline_stops_a_stacked_group(fw):
    """A deadline given only in the items' options stops the stacked sweep."""
    opts = ExecOptions(deadline=time.monotonic() - 1)
    items = [BatchItem(index=k, problem=make_levenshtein(24), options=opts)
             for k in range(3)]
    assert BatchPlanner().plan(items)[0].stackable()
    outcomes = execute_items(items, fw)
    assert all(isinstance(o, ServiceTimeout) for o in outcomes), outcomes


def test_batch_execute_fault_degrades_to_per_instance(fw, fresh_metrics):
    """An injected group failure falls back to correct per-instance runs."""
    problems = [make_levenshtein(20, seed=s) for s in range(3)]
    with inject_faults(FaultPlan.parse(["batch.execute:nth=1"])):
        results = fw.solve_many(problems)
    assert fresh_metrics.counter("batch.degraded").value == 1
    for p, r in zip(problems, results):
        assert "batch_mode" not in r.stats  # solo fallback, not batched
        np.testing.assert_array_equal(r.table, fw.solve(p).table)


def test_batch_metrics_and_span(fw, fresh_metrics):
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    problems = [make_levenshtein(16, seed=s) for s in range(4)]
    with use_tracer(tracer):
        fw.solve_many(problems)
    assert fresh_metrics.counter("batch.groups").value == 1
    assert fresh_metrics.counter("batch.instances").value == 4
    assert fresh_metrics.counter("batch.swept").value == 1
    names = [s.name for s in tracer.finished_spans()]
    assert "batch.group" in names


# -- serve-layer coalescing ----------------------------------------------------


def test_coalescing_disabled_by_default():
    svc = SolveService(config=ServiceConfig(workers=1))
    try:
        assert svc.coalesce_window == 0.0
    finally:
        svc.close()
    with pytest.raises(ValueError):
        SolveService(config=ServiceConfig(coalesce_window=-0.1))
    with pytest.raises(ValueError):
        SolveService(config=ServiceConfig(max_batch=0))


def test_coalesced_service_bit_identical(fw, fresh_metrics):
    """Concurrent submitters + coalescing: every result matches its solo."""
    problems = [make_levenshtein(32, seed=s) for s in range(16)]
    oracle = {id(p): fw.solve(p).table for p in problems}
    results = {}
    errors = []
    with SolveService(config=ServiceConfig(workers=2, coalesce_window=0.05, cache_size=0,
                      max_batch=8)) as svc:
        def submit_half(half):
            try:
                pend = [(p, svc.submit(SolveRequest(p))) for p in half]
                for p, h in pend:
                    results[id(p)] = h.result(timeout=30)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_half, args=(problems[:8],)),
            threading.Thread(target=submit_half, args=(problems[8:],)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    for p in problems:
        np.testing.assert_array_equal(results[id(p)].table, oracle[id(p)])
    assert fresh_metrics.counter("batch.coalesced").value > 0


def test_coalescing_mixed_compatibility(fw):
    """Incompatible requests pass through a coalescing service untouched."""
    lev = [make_levenshtein(24, seed=s) for s in range(4)]
    syn = [make_synthetic(ContributingSet.of("W", "NW"), 10, 12)
           for _ in range(2)]
    fleet = lev + syn
    with SolveService(config=ServiceConfig(workers=2, coalesce_window=0.03, cache_size=0)) as svc:
        res = svc.map(fleet)
    for p, r in zip(fleet, res):
        np.testing.assert_array_equal(r.table, fw.solve(p).table)


def test_cache_hit_short_circuits_before_coalescing(fresh_metrics):
    """A cached member resolves from the cache, not the batch execution."""
    warm = make_levenshtein(24, seed=0)
    cold = [make_levenshtein(24, seed=s) for s in range(1, 4)]
    blocker = make_synthetic(ContributingSet.of("W"), 40, 40)
    with SolveService(config=ServiceConfig(workers=1, coalesce_window=0.05, cache_size=16)) as svc:
        svc.solve(warm)  # populate the cache
        hits0 = fresh_metrics.counter("serve.cache.hits").value
        instances0 = fresh_metrics.counter("batch.instances").value
        # Occupy the single worker so the follow-ups queue together.
        pending = [svc.submit(SolveRequest(blocker, cacheable=False))]
        pending += [svc.submit(SolveRequest(p)) for p in [warm] + cold]
        res = [p.result(timeout=30) for p in pending]
    warm_pending = pending[1]
    assert warm_pending.cache_hit is True
    assert fresh_metrics.counter("serve.cache.hits").value == hits0 + 1
    # Only the three cold requests went through batch execution.
    assert (fresh_metrics.counter("batch.instances").value
            - instances0) == len(cold)
    np.testing.assert_array_equal(
        res[1].table, Framework().solve(warm).table
    )


def test_coalesced_deadline_expiry_in_queue(fresh_metrics):
    """A request that expires while queued fails without joining a batch."""
    blocker = make_synthetic(ContributingSet.of("W"), 64, 64)
    fleet = [make_levenshtein(24, seed=s) for s in range(3)]
    with SolveService(config=ServiceConfig(workers=1, coalesce_window=0.02, cache_size=0)) as svc:
        hold = svc.submit(SolveRequest(blocker))
        doomed = svc.submit(SolveRequest(fleet[0], timeout=1e-4))
        rest = [svc.submit(SolveRequest(p)) for p in fleet[1:]]
        time.sleep(0.01)
        hold.result(timeout=30)
        with pytest.raises(ServiceTimeout):
            doomed.result(timeout=30)
        for h in rest:
            assert h.result(timeout=30).table is not None


def test_coalesced_uncacheable_requests(fw):
    """cacheable=False requests still coalesce (batch key is cache-free)."""
    fleet = [make_levenshtein(24, seed=s) for s in range(6)]
    with SolveService(config=ServiceConfig(workers=1, coalesce_window=0.05, cache_size=16)) as svc:
        blocker = make_synthetic(ContributingSet.of("W"), 40, 40)
        hold = svc.submit(SolveRequest(blocker))
        pend = [svc.submit(SolveRequest(p, cacheable=False)) for p in fleet]
        hold.result(timeout=30)
        res = [h.result(timeout=30) for h in pend]
    batched = [r for r in res if r.stats.get("batched", 0) > 1]
    assert batched, "queued compatible requests should have coalesced"
    for p, r in zip(fleet, res):
        np.testing.assert_array_equal(r.table, fw.solve(p).table)
