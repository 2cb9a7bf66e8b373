"""Tests for the process-pool serve backend and shared-memory transport.

Everything a spawned worker must reconstruct lives at module level here on
purpose: ``spawn`` re-imports this module in the child, so the custom
executor class and the custom cell function below exercise the
pickle-by-reference round trip the worker initializer depends on.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro import ContributingSet, ExecOptions, Framework, LDDPProblem
from repro.batch import BatchItem, execute_items
from repro.cancel import CancelToken
from repro.errors import SolveCancelled
from repro.exec import SequentialExecutor
from repro.exec.base import register_executor, unregister_executor
from repro.faults import inject_faults
from repro.machine.platform import hetero_high, hetero_low
import repro.problems
from repro.problems import make_lcs, make_levenshtein
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.serve.shm import live_segment_count

PROCESS = ServiceConfig(backend="process", workers=1, cache_size=0)


class TaggingExecutor(SequentialExecutor):
    """Sequential semantics, but stamps the solving process's pid."""

    name = "tagging"

    def _run(self, problem, functional, **kwargs):
        result = super()._run(problem, functional, **kwargs)
        result.stats["solved_in_pid"] = os.getpid()
        return result


def quirk_cell(ctx):
    """A cell function that does not ship with the library."""
    return np.maximum(ctx.w, ctx.n) + ctx.payload["step"][ctx.j - 1]


def _quirk_init(table, payload):
    table[0, :] = 0
    table[:, 0] = 0


def make_quirk(n: int, seed: int = 0, init=_quirk_init) -> LDDPProblem:
    rng = np.random.default_rng(seed)
    return LDDPProblem(
        name=f"quirk-{n}-{seed}",
        shape=(n, n),
        contributing=ContributingSet.of("W", "N"),
        cell=quirk_cell,
        init=init,
        fixed_rows=1,
        fixed_cols=1,
        dtype=np.int64,
        payload={"step": rng.integers(0, 5, n, dtype=np.int64)},
    )


def _drain_segments():
    gc.collect()
    deadline = time.monotonic() + 5.0
    while live_segment_count() and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.02)
    return live_segment_count()


class TestProcessRoundTrip:
    def test_bit_identical_zero_copy_and_clean_shutdown(self):
        problem = make_levenshtein(48)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        svc = SolveService(hetero_high(), config=PROCESS)
        try:
            result = svc.solve(problem)
            assert np.array_equal(result.table, oracle.table)
            # zero-copy transport: a read-only view over the shm block
            assert result.stats["transport"] == "shm"
            assert not result.table.flags.writeable
            pids = list(svc.stats()["backend"]["pids"].values())
        finally:
            svc.close()
        del result
        assert _drain_segments() == 0
        for pid in pids:  # close() reaps every worker process
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_estimate_crosses_the_boundary_without_a_table(self):
        with SolveService(hetero_high(), config=PROCESS) as svc:
            est = svc.solve(make_levenshtein(32), functional=False)
        assert est.table is None
        assert est.simulated_ms > 0

    def test_spawned_worker_runs_custom_executor_and_cell_function(self):
        problem = make_quirk(32)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        register_executor("tagging", TaggingExecutor)
        try:
            with SolveService(hetero_high(), config=PROCESS) as svc:
                result = svc.solve(problem, executor="tagging")
                backend = svc.stats()["backend"]
            assert np.array_equal(result.table, oracle.table)
            # proves the spawn initializer re-registered the executor and
            # the solve really happened in the worker process
            assert result.stats["solved_in_pid"] != os.getpid()
            assert result.stats["solved_in_pid"] in backend["pids"].values()
        finally:
            unregister_executor("tagging")


class TestShmLifecycle:
    def test_segments_unlink_when_the_last_result_ref_drops(self):
        # NB: the dispatch thread's frame pins the *most recent* result
        # until the next job or join, so ref-drop asserts use earlier ones.
        with SolveService(hetero_high(), config=PROCESS) as svc:
            results = [svc.solve(make_levenshtein(24, seed=s))
                       for s in range(3)]
            assert live_segment_count() >= 3
            results.pop(0)
            gc.collect()
            assert live_segment_count() == 2
            del results
        assert _drain_segments() == 0

    def test_views_over_one_segment_share_its_refcount(self):
        with SolveService(hetero_high(), config=PROCESS) as svc:
            first = svc.solve(make_levenshtein(24))
            svc.solve(make_levenshtein(16))  # bump `first` off the frame
            table = first.table
            del first  # the table view alone must keep the segment alive
            gc.collect()
            assert live_segment_count() >= 1
            assert int(table[-1, -1]) >= 0  # still readable
            del table
        assert _drain_segments() == 0


class TestSegmentIndex:
    def test_warm_hits_are_zero_copy_and_survive_worker_restart(self):
        cfg = PROCESS.replace(cache_size=8)
        problem = make_levenshtein(40)
        with SolveService(hetero_high(), config=cfg) as svc:
            miss = svc.solve(problem)
            assert miss.stats["transport"] == "shm"
            hit = svc.solve(problem)
            assert hit.stats["transport"] == "shm-index"
            assert not hit.table.flags.writeable
            assert np.array_equal(hit.table, miss.table)

            # kill the worker; a different problem forces respawn, then the
            # original must still come back warm from the segment index
            pid = next(iter(svc.stats()["backend"]["pids"].values()))
            os.kill(pid, signal.SIGKILL)
            other = svc.solve(make_lcs(24))
            assert other.table is not None
            assert svc.stats()["backend"]["restarts"] >= 1
            warm = svc.solve(problem)
            assert warm.stats["transport"] == "shm-index"
            assert np.array_equal(warm.table, miss.table)
        del miss, hit, warm, other
        assert _drain_segments() == 0


class TestBackendStats:
    def test_stats_aggregate_across_worker_processes(self):
        cfg = ServiceConfig(backend="process", workers=2, cache_size=0)
        with SolveService(hetero_high(), config=cfg) as svc:
            for s in range(4):
                svc.solve(make_levenshtein(24, seed=s))
            stats = svc.stats()
        backend = stats["backend"]
        assert backend["kind"] == "process"
        assert stats["workers"] == 2 == backend["workers"]
        assert len(backend["pids"]) == 2
        assert stats["config"]["backend"] == "process"
        per_worker = backend["per_worker"]
        assert len(per_worker) == 2
        assert sum(h.get("jobs", 0) for h in per_worker.values()) >= 1

    def test_coalesced_batches_execute_in_one_worker(self):
        cfg = ServiceConfig(backend="process", workers=2, cache_size=0,
                            coalesce_window=0.05, max_batch=8)
        problems = [make_quirk(24, seed=s) for s in range(4)]
        oracle = [Framework(hetero_high()).solve(p, executor="sequential")
                  for p in problems]
        with SolveService(hetero_high(), config=cfg) as svc:
            pending = [svc.submit_problem(p) for p in problems]
            results = [p.result(timeout=120) for p in pending]
        for got, want in zip(results, oracle):
            assert np.array_equal(got.table, want.table)
        assert any(r.stats.get("batched", 0) > 1 for r in results)


BACKENDS = ("thread", "process")


def _config(backend: str, members: int) -> ServiceConfig:
    """One dispatch thread; ``members > 1`` requests coalesce into one run
    (the leader waits until all of them joined)."""
    if members == 1:
        return PROCESS.replace(backend=backend)
    return PROCESS.replace(backend=backend, coalesce_window=5.0,
                           max_batch=members)


@pytest.mark.parametrize("shape", ["solo", "coalesced"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_token_fired_before_dispatch_cancels_the_request(backend, shape):
    tokens = [CancelToken() for _ in range(1 if shape == "solo" else 3)]
    tokens[-1].cancel()  # fired before submit
    with SolveService(hetero_high(),
                      config=_config(backend, len(tokens))) as svc:
        # Warm the pool first: a job queued behind a worker still starting
        # up would see the token through the parent's poll instead.
        svc.map([make_lcs(16, seed=k) for k in range(len(tokens))])
        pending = [
            svc.submit(SolveRequest(make_levenshtein(32, seed=k),
                                    options=ExecOptions(cancel_token=tok)))
            for k, tok in enumerate(tokens)
        ]
        outcomes = [p.exception(timeout=120) or p.result() for p in pending]
    assert isinstance(outcomes[-1], SolveCancelled)
    for k, got in enumerate(outcomes[:-1]):  # batch-mates complete
        want = Framework(hetero_high()).solve(
            make_levenshtein(32, seed=k), executor="sequential")
        assert np.array_equal(got.table, want.table)
        assert got.stats["batched"] == 3


def _closure_quirk(n: int, seed: int) -> LDDPProblem:
    """A quirk whose ``init`` is a closure: it cannot pickle, so the
    process backend runs it inline."""
    border = 0

    def init(table, payload):
        table[0, :] = border
        table[:, 0] = border

    return make_quirk(n, seed, init=init)


PARITY_SETS = {
    "solo": lambda: [make_levenshtein(96)],
    "coalesced": lambda: [make_levenshtein(96, seed=s) for s in range(3)],
    "inline": lambda: [_closure_quirk(96, seed=s) for s in range(3)],
}


@pytest.mark.parametrize("shape", sorted(PARITY_SETS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_parity_tables_and_routes(backend, shape):
    """Each backend returns oracle tables and the in-process route record.

    The reference route comes from running the same set directly in this
    process (``Framework.solve`` for one problem, ``execute_items`` for a
    set) under a fresh fault plan, so both backends are held to one record.
    """
    problems = PARITY_SETS[shape]()
    oracle = [Framework(hetero_high()).solve(p, executor="sequential")
              for p in problems]
    for spec in ((), ("machine.gpu:rate=1.0",)):
        with inject_faults(*spec):
            fw = Framework(hetero_low())
            if len(problems) == 1:
                reference = [fw.solve(problems[0])]
            else:
                reference = execute_items(
                    [BatchItem(index=k, problem=p)
                     for k, p in enumerate(problems)], fw)
        with inject_faults(*spec):
            with SolveService(hetero_low(),
                              config=_config(backend, len(problems))) as svc:
                pending = [svc.submit_problem(p) for p in problems]
                results = [p.result(timeout=120) for p in pending]
                inline = svc.stats()["backend"].get("inline_fallbacks", 0)
        assert inline == (backend == "process" and shape == "inline")
        for got, ref, want in zip(results, reference, oracle):
            assert np.array_equal(got.table, want.table)
            assert got.stats.get("route") == ref.stats.get("route")
            assert got.stats.get("batched", 1) == len(problems)
        assert bool(results[0].stats.get("route")) == bool(spec)


def _gs_arrays(n: int = 12):
    rng = np.random.default_rng(0)
    return rng.uniform(0, 1, (n, n)), rng.normal(size=(n, n)) / (n - 1) ** 2


# one small argument builder per shipped factory; a factory added to
# repro.problems without one here fails the test below
FACTORY_ARGS = {
    "make_checkerboard": lambda: (20,),
    "make_diffusion": lambda: (20,),
    "make_dithering": lambda: (20,),
    "make_dtw": lambda: (20,),
    "make_fig8_problem": lambda: (20,),
    "make_fig9_problem": lambda: (20,),
    "make_gauss_seidel_sweep": _gs_arrays,
    "make_gotoh": lambda: (20,),
    "make_lcs": lambda: (20,),
    "make_lcsubstr": lambda: (20,),
    "make_levenshtein": lambda: (20,),
    "make_linear": lambda: (20,),
    "make_needleman_wunsch": lambda: (20,),
    "make_prefix_sum": lambda: (20,),
    "make_smith_waterman": lambda: (20,),
    "make_synthetic": lambda: (ContributingSet.of("W", "NW", "N"), 20),
    "make_viterbi": lambda: (20,),
}

FACTORIES = sorted(name for name in repro.problems.__all__
                   if name.startswith("make_"))


@pytest.mark.parametrize("factory", FACTORIES)
def test_every_shipped_problem_crosses_the_process_boundary(factory):
    """Every shipped factory pickles, so the process backend never runs it
    on the parent's dispatch thread."""
    assert factory in FACTORY_ARGS, f"no argument builder for {factory}"
    problem = getattr(repro.problems, factory)(*FACTORY_ARGS[factory]())
    copy = pickle.loads(pickle.dumps(problem))
    oracle = Framework(hetero_high()).solve(copy, executor="sequential")
    with SolveService(hetero_high(), config=PROCESS) as svc:
        # sequential in the worker too: the float scan tier (diffusion) is
        # tolerance-checked, not bit-exact, against the wavefront order
        result = svc.solve(problem, executor="sequential")
        assert np.array_equal(result.table, oracle.table)
        assert svc.stats()["backend"]["inline_fallbacks"] == 0
