"""The fast estimator must agree *exactly* with the discrete-event engine.

``fast_hetero_makespan`` replays the hetero executor's own task graph into a
makespan-only sink, so every comparison here is ``==``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecOptions, Framework, HeteroParams, Pattern, hetero_high, hetero_low
from repro.exec.hetero import fast_hetero_makespan
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_fig8_problem,
    make_fig9_problem,
    make_levenshtein,
    make_synthetic,
)
from repro.types import ContributingSet


def _agree(problem, platform, params=None, options=None):
    fw = Framework(platform, options)
    slow = fw.estimate(problem, params=params).simulated_time
    fast = fast_hetero_makespan(problem, platform, params, options)
    assert fast == slow
    return slow


MAKERS = [
    make_levenshtein,  # anti-diagonal, 1-way streamed
    make_dithering,  # knight-move, 2-way pinned
    make_checkerboard,  # horizontal case-2, 2-way pinned
    make_fig9_problem,  # horizontal case-1, 1-way streamed
    make_fig8_problem,  # inverted-L (as horizontal by default)
]


class TestExactAgreement:
    @pytest.mark.parametrize("maker", MAKERS, ids=lambda m: m.__name__)
    @pytest.mark.parametrize("platform", [hetero_high(), hetero_low()],
                             ids=["high", "low"])
    def test_default_params(self, maker, platform):
        _agree(maker(300, materialize=False), platform)

    @pytest.mark.parametrize("maker", MAKERS, ids=lambda m: m.__name__)
    def test_explicit_params(self, maker):
        p = maker(257, materialize=False)
        for params in (
            HeteroParams(0, 0),
            HeteroParams(13, 41),
            HeteroParams(10**6, 10**6),
        ):
            _agree(p, hetero_high(), params)

    def test_options_matrix(self):
        p = make_fig9_problem(300, materialize=False)
        for pipeline in (True, False):
            for layout in (True, False):
                _agree(
                    p, hetero_high(),
                    HeteroParams(0, 100),
                    ExecOptions(pipeline=pipeline, use_wavefront_layout=layout),
                )

    def test_native_inverted_l(self):
        p = make_fig8_problem(200, materialize=False)
        _agree(
            p, hetero_high(), HeteroParams(20, 30),
            ExecOptions(inverted_l_as_horizontal=False),
        )
        _agree(
            p, hetero_high(), HeteroParams(5, 17),
            ExecOptions(pattern_override=Pattern.INVERTED_L),
        )

    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_all_sets_and_params(self, mask, rows, cols, ts, sh):
        p = make_synthetic(ContributingSet.from_mask(mask), rows, cols)
        _agree(p, hetero_high(), HeteroParams(ts, sh))


class TestRandomizedPlatforms:
    """Equality must hold for *any* machine constants, not just the presets."""

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=10.0, max_value=2000.0),
        st.floats(min_value=0.5, max_value=40.0),
        st.floats(min_value=0.1, max_value=30.0),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_equality_on_random_machines(
        self, cpu_ns, fork, gpu_ns, launch, pin_lat, ts, sh
    ):
        from repro.machine import CPUModel, GPUModel, Platform, TransferModel

        platform = Platform(
            name="random",
            cpu=CPUModel("c", cores=4, threads=8, freq_ghz=2.0,
                         cell_ns=cpu_ns, fork_us=fork),
            gpu=GPUModel("g", smx_count=4, cores_per_smx=64, clock_ghz=1.0,
                         cell_ns=gpu_ns, launch_us=launch),
            transfer=TransferModel(pinned_latency_us=pin_lat),
        )
        p = make_dithering(40, 53, materialize=False)
        _agree(p, platform, HeteroParams(ts, sh))


class TestFrameworkIntegration:
    def test_estimate_fast_method(self):
        p = make_levenshtein(400, materialize=False)
        fw = Framework(hetero_high())
        assert fw.estimate_fast(p) == fw.estimate(p).simulated_time

    def test_autotune_uses_identical_objective(self):
        """Autotune now runs on the fast path; its reported best time must
        match a task-graph estimate at the tuned parameters."""
        p = make_levenshtein(512, materialize=False)
        fw = Framework(hetero_high())
        tuned = fw.tune(p, points=7)
        replay = fw.estimate(p, params=tuned.params).simulated_time
        assert tuned.best_time == replay

    def test_fast_is_faster(self):
        import timeit

        p = make_dithering(4096, materialize=False)
        fw = Framework(hetero_high())
        t_graph = min(timeit.repeat(lambda: fw.estimate(p), number=1, repeat=2))
        t_fast = min(timeit.repeat(lambda: fw.estimate_fast(p), number=1, repeat=2))
        assert t_fast < t_graph
