"""Functional correctness: every executor fills identical tables, and the
tables match independent scalar reference implementations."""

import numpy as np
import pytest

from repro import ContributingSet, ExecOptions, Framework, HeteroParams, Pattern
from repro.machine.platform import hetero_high, hetero_low
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_dtw,
    make_fig8_problem,
    make_fig9_problem,
    make_lcs,
    make_levenshtein,
    make_needleman_wunsch,
    make_smith_waterman,
    make_synthetic,
    reference_checkerboard,
    reference_dithering,
    reference_levenshtein,
)
from repro.problems.dtw import reference_dtw
from repro.problems.lcs import reference_lcs

EXECUTORS = ("sequential", "cpu", "gpu", "hetero")


def assert_all_executors_agree(problem, fw=None, **hetero_params):
    fw = fw or Framework(hetero_high())
    results = {}
    for name in EXECUTORS:
        kwargs = {}
        if name == "hetero" and hetero_params:
            kwargs["params"] = HeteroParams(**hetero_params)
        results[name] = fw.solve(problem, executor=name, **kwargs)
    base = results["sequential"].table
    for name in EXECUTORS[1:]:
        assert np.array_equal(
            base, results[name].table, equal_nan=True
        ), f"{name} table differs from sequential oracle on {problem.name}"
    return results


class TestAll15ContributingSets:
    @pytest.mark.parametrize("mask", range(1, 16))
    def test_executors_agree(self, mask):
        cs = ContributingSet.from_mask(mask)
        assert_all_executors_agree(
            make_synthetic(cs, 13, 17), t_switch=3, t_share=4
        )

    @pytest.mark.parametrize("mask", [4, 1])  # inverted-L and mInverted-L
    def test_native_l_schedule_agrees_with_horizontal(self, mask):
        cs = ContributingSet.from_mask(mask)
        p = make_synthetic(cs, 12, 12)
        fw_h = Framework(hetero_high())
        fw_l = Framework(hetero_high(), ExecOptions(inverted_l_as_horizontal=False))
        th = fw_h.solve(p, executor="hetero").table
        tl = fw_l.solve(p, executor="hetero", params=HeteroParams(2, 3)).table
        assert np.array_equal(th, tl)


def _wagner_fischer(a, b) -> np.ndarray:
    """Independent scalar edit-distance table."""
    m, n = len(a), len(b)
    d = np.zeros((m + 1, n + 1), dtype=np.int64)
    d[0, :] = np.arange(n + 1)
    d[:, 0] = np.arange(m + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d


class TestCaseStudies:
    def test_levenshtein_matches_reference(self):
        p = make_levenshtein(48, 61, seed=7)
        res = assert_all_executors_agree(p, t_switch=8, t_share=5)
        d = _wagner_fischer(p.payload["a"], p.payload["b"])
        assert np.array_equal(res["hetero"].table, d)

    @pytest.mark.parametrize("m,n", [(48, 61), (61, 23)])
    def test_reference_levenshtein_matches_scalar_loop(self, m, n):
        p = make_levenshtein(m, n, seed=7)
        a, b = p.payload["a"], p.payload["b"]
        ref = reference_levenshtein(a, b)
        assert ref.shape == (m + 1, n + 1)
        assert np.array_equal(ref, _wagner_fischer(a, b))

    def test_levenshtein_identity(self):
        p = make_levenshtein(30, 30, seed=3)
        p.payload["b"] = p.payload["a"].copy()
        res = Framework(hetero_high()).solve(p)
        assert res.table[-1, -1] == 0

    def test_levenshtein_symmetry(self):
        pa = make_levenshtein(25, 40, seed=5)
        pb = make_levenshtein(40, 25, seed=99)
        pb.payload["a"] = pa.payload["b"].copy()
        pb.payload["b"] = pa.payload["a"].copy()
        fw = Framework(hetero_high())
        assert (
            fw.solve(pa).table[-1, -1] == fw.solve(pb).table[-1, -1]
        )

    def test_lcs_matches_reference(self):
        p = make_lcs(35, 44, seed=2)
        res = assert_all_executors_agree(p, t_switch=6, t_share=3)
        ref = reference_lcs(p.payload["a"], p.payload["b"])
        assert np.array_equal(res["cpu"].table, ref)

    def test_dtw_matches_reference(self):
        p = make_dtw(30, 37, seed=4)
        res = assert_all_executors_agree(p, t_switch=5, t_share=4)
        ref = reference_dtw(p.payload["x"], p.payload["y"])
        assert res["gpu"].table[-1, -1] == pytest.approx(ref)

    def test_needleman_wunsch_gap_only_row(self):
        p = make_needleman_wunsch(20, 20, seed=1)
        res = assert_all_executors_agree(p, t_switch=4, t_share=2)
        # aligning against an empty prefix costs i * gap
        assert (res["hetero"].table[:, 0] == -2 * np.arange(21)).all()

    def test_smith_waterman_non_negative(self):
        p = make_smith_waterman(30, 30, seed=6)
        res = assert_all_executors_agree(p, t_switch=5, t_share=5)
        assert (res["hetero"].table >= 0).all()

    def test_smith_waterman_finds_planted_motif(self):
        p = make_smith_waterman(40, 40, seed=8)
        motif = np.array([1, 2, 3, 0, 1, 2, 3, 0, 1, 2], dtype=np.int8)
        p.payload["a"][5:15] = motif
        p.payload["b"][20:30] = motif
        res = Framework(hetero_high()).solve(p)
        assert res.table.max() >= 2 * len(motif)  # match score 2 per char

    def test_checkerboard_matches_reference(self):
        p = make_checkerboard(18, 23, seed=9)
        res = assert_all_executors_agree(p, t_share=7)
        ref = reference_checkerboard(p.payload["cost"])
        assert np.allclose(res["hetero"].table, ref)

    def test_checkerboard_matches_networkx(self):
        import networkx as nx

        p = make_checkerboard(9, 9, seed=10)
        cost = p.payload["cost"]
        table = Framework(hetero_high()).solve(p).table
        G = nx.DiGraph()
        n = cost.shape[0]
        for i in range(1, n):
            for j in range(n):
                for dj in (-1, 0, 1):
                    if 0 <= j + dj < n:
                        G.add_edge((i - 1, j + dj), (i, j), weight=cost[i, j])
        src = "S"
        for j in range(n):
            G.add_edge(src, (0, j), weight=cost[0, j])
        dist = nx.single_source_dijkstra_path_length(G, src)
        for j in range(n):
            assert table[n - 1, j] == pytest.approx(dist[(n - 1, j)])

    def test_dithering_matches_reference(self):
        p = make_dithering(21, 26, seed=11)
        res = assert_all_executors_agree(p, t_switch=4, t_share=3)
        out_ref, err_ref = reference_dithering(p.payload["image"])
        assert np.allclose(res["hetero"].table, err_ref, atol=1e-3)
        assert np.array_equal(res["hetero"].aux["output"], out_ref.astype(np.float32))

    def test_dithering_output_is_binary(self):
        p = make_dithering(16, 16)
        res = Framework(hetero_high()).solve(p)
        out = res.aux["output"]
        assert set(np.unique(out)).issubset({0.0, 255.0})

    def test_dithering_preserves_mean_intensity(self):
        """Error diffusion conserves intensity up to boundary leakage."""
        p = make_dithering(64, 64)
        res = Framework(hetero_high()).solve(p)
        img = p.payload["image"]
        out = res.aux["output"]
        assert abs(out.mean() - img.mean()) < 6.0  # of a 0..255 range

    def test_fig_problems_agree(self):
        assert_all_executors_agree(make_fig8_problem(20, seed=12), t_switch=3, t_share=2)
        assert_all_executors_agree(make_fig9_problem(20), t_share=6)


class TestCrossPlatformDeterminism:
    def test_tables_identical_across_platforms(self):
        """Timing models differ; results must not."""
        p = make_levenshtein(30, 30, seed=13)
        hi = Framework(hetero_high()).solve(p).table
        lo = Framework(hetero_low()).solve(p).table
        assert np.array_equal(hi, lo)

    def test_results_repeatable(self):
        p = make_checkerboard(16, 16, seed=14)
        fw = Framework(hetero_high())
        assert np.array_equal(fw.solve(p).table, fw.solve(p).table)

    def test_param_choice_does_not_change_values(self):
        p = make_lcs(24, 24, seed=15)
        fw = Framework(hetero_high())
        a = fw.solve(p, executor="hetero", params=HeteroParams(0, 0)).table
        b = fw.solve(p, executor="hetero", params=HeteroParams(10, 3)).table
        c = fw.solve(p, executor="hetero", params=HeteroParams(23, 24)).table
        assert np.array_equal(a, b) and np.array_equal(b, c)
