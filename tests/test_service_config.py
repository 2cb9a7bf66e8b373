"""Tests for the ServiceConfig redesign and the unified entry-point shape."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ExecOptions, Framework
from repro.machine.platform import hetero_high
from repro.problems import make_lcs, make_levenshtein
from repro.serve import BACKENDS, ServiceConfig, SolveService


class TestServiceConfig:
    def test_defaults_validate_and_are_frozen(self):
        cfg = ServiceConfig()
        assert cfg.backend == "thread"
        with pytest.raises(Exception):
            cfg.workers = 99  # frozen dataclass

    @pytest.mark.parametrize("changes", [
        {"backend": "greenlet"},
        {"workers": 0},
        {"queue_size": 0},
        {"cache_size": -1},
        {"retries": -1},
        {"backoff_base": -0.1},
        {"coalesce_window": -0.1},
        {"max_batch": 0},
        {"default_timeout": -1.0},
    ])
    def test_validation_rejects_bad_values(self, changes):
        with pytest.raises(ValueError):
            ServiceConfig(**changes)

    def test_start_method_is_not_a_knob(self):
        # The process backend always spawns: the parent is multi-threaded.
        with pytest.raises(TypeError):
            ServiceConfig(start_method="spawn")

    def test_replace_returns_revalidated_copy(self):
        cfg = ServiceConfig(workers=2)
        other = cfg.replace(workers=8, backend="process")
        assert (other.workers, other.backend) == (8, "process")
        assert cfg.workers == 2  # original untouched
        with pytest.raises(ValueError):
            cfg.replace(workers=0)

    def test_backends_tuple_is_the_public_contract(self):
        assert BACKENDS == ("thread", "process")

    def test_describe_is_json_serializable(self):
        import json

        cfg = ServiceConfig(options=ExecOptions(), backend="process")
        desc = cfg.describe()
        json.dumps(desc)  # must not raise
        assert desc["backend"] == "process"
        assert isinstance(desc["options"], str)


class TestConfigArgument:
    def test_config_must_be_a_service_config(self):
        with pytest.raises(TypeError, match="ServiceConfig"):
            SolveService(hetero_high(), config={"workers": 2})

    def test_keyword_configuration_is_rejected(self):
        with pytest.raises(TypeError):
            SolveService(hetero_high(), workers=1)


class TestConfigEcho:
    def test_stats_echo_resolved_config(self):
        cfg = ServiceConfig(workers=2, cache_size=5, coalesce_window=0.01)
        with SolveService(hetero_high(), config=cfg) as svc:
            echo = svc.stats()["config"]
        assert echo == cfg.describe()
        assert echo["workers"] == 2 and echo["cache_size"] == 5

    def test_slo_clamp_is_visible_in_the_echo(self):
        from repro.slo import SLOPolicy

        policy = SLOPolicy(min_workers=2, max_workers=3)
        cfg = ServiceConfig(workers=8, slo=policy)
        with SolveService(hetero_high(), config=cfg) as svc:
            echo = svc.stats()["config"]
        assert echo["workers"] == 3  # clamped into the autoscaler range


class TestUnifiedEntryPoints:
    def test_solve_routes_through_a_service(self):
        problem = make_levenshtein(24)
        direct = repro.solve(problem)
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            served = repro.solve(problem, service=svc)
            assert svc.stats()["workers"] == 1
        assert np.array_equal(direct.table, served.table)

    def test_estimate_routes_through_a_service(self):
        problem = make_levenshtein(24)
        direct = repro.estimate(problem)
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            served = repro.estimate(problem, service=svc)
        assert served.table is None
        assert served.simulated_ms == pytest.approx(direct.simulated_ms)

    def test_solve_many_routes_through_a_service(self):
        problems = [make_levenshtein(20, seed=s) for s in range(4)]
        direct = repro.solve_many(problems)
        with SolveService(hetero_high(), config=ServiceConfig(workers=2)) as svc:
            served = repro.solve_many(problems, service=svc)
        for d, s in zip(direct, served):
            assert np.array_equal(d.table, s.table)

    @pytest.mark.parametrize("fn", [repro.solve, repro.estimate])
    def test_service_and_platform_are_mutually_exclusive(self, fn):
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            with pytest.raises(TypeError, match="not both"):
                fn(make_levenshtein(8), service=svc, platform=hetero_high())

    def test_solve_many_rejects_platform_with_service(self):
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            with pytest.raises(TypeError, match="not both"):
                repro.solve_many([make_lcs(8)], service=svc,
                                 platform=hetero_high())

    def test_options_flow_through_both_paths(self):
        problem = make_levenshtein(16)
        opts = ExecOptions(kernel_fastpath=False)
        direct = repro.solve(problem, options=opts)
        with SolveService(hetero_high(), config=ServiceConfig(workers=1)) as svc:
            served = repro.solve(problem, options=opts, service=svc)
        assert np.array_equal(direct.table, served.table)


class TestExecOptionsReplace:
    def test_replace_overrides_only_named_fields(self):
        base = ExecOptions(kernel_fastpath=False)
        changed = base.replace(deadline=1.5)
        assert changed.deadline == 1.5
        assert changed.kernel_fastpath is False
        assert base.deadline is None  # original untouched

    def test_replace_matches_framework_merge_semantics(self):
        problem = make_levenshtein(16)
        fw = Framework(hetero_high(), ExecOptions(kernel_fastpath=False))
        res = fw.solve(problem, timeout=30.0)  # merge happens via replace()
        assert np.array_equal(res.table, Framework().solve(problem).table)
