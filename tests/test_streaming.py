"""Tests for the O(wavefront)-memory streaming solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ContributingSet, Framework, Pattern, hetero_high
from repro.errors import ExecutionError
from repro.exec.streaming import StreamingSolver, _BoundaryRecorder
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_dtw,
    make_gotoh,
    make_levenshtein,
    make_prefix_sum,
    make_smith_waterman,
    make_synthetic,
)

FW = Framework(hetero_high())


def corner(problem):
    return (problem.shape[0] - 1, problem.shape[1] - 1)


class TestAgainstFullSolve:
    @pytest.mark.parametrize("mask", range(1, 16))
    def test_last_wavefront_matches_all_masks(self, mask):
        p = make_synthetic(ContributingSet.from_mask(mask), 14, 17)
        full = FW.solve(p, executor="sequential").table
        s = StreamingSolver().solve(p)
        gi, gj = s.last_cells
        assert np.array_equal(s.last_values, full[gi, gj])

    @pytest.mark.parametrize(
        "maker,kw",
        [
            (make_levenshtein, dict(m=40, n=53, seed=1)),
            (make_checkerboard, dict(n=24, cols=30, seed=2)),
            (make_prefix_sum, dict(rows=20, cols=27, seed=3)),
            (make_dtw, dict(m=25, n=31, seed=4)),
        ],
        ids=lambda v: getattr(v, "__name__", ""),
    )
    def test_tracked_corner_matches(self, maker, kw):
        p = maker(**kw)
        full = FW.solve(p, executor="sequential").table
        s = StreamingSolver().solve(p, track=[corner(p)])
        assert np.isclose(float(s.tracked[corner(p)]), float(full[-1, -1]))

    def test_dithering_aux_output_still_full(self):
        """Aux outputs stay full-size (they are the *product*)."""
        from repro.problems import reference_dithering

        p = make_dithering(20, 26, seed=5)
        full = FW.solve(p, executor="sequential")
        s = StreamingSolver().solve(p)
        out_ref, _ = reference_dithering(p.payload["image"])
        assert np.array_equal(s.aux["output"], out_ref)
        assert np.array_equal(full.table[s.last_cells], s.last_values)

    @pytest.mark.parametrize(
        "track", [[(0, 8), (-1, -1)], [(0, 0)], [(2, 3), (5, 1)], [(1, 7)]],
    )
    def test_track_outside_computed_region_rejected(self, track):
        """Off-region cells must not alias onto a computed cell."""
        p = make_levenshtein(4, 6)  # 5x7 table, computed rows/cols 1..
        with pytest.raises(ExecutionError, match="tracked cell"):
            StreamingSolver().solve(p, track=track)

    def test_gotoh_structured_boundary(self):
        """Structured-dtype boundary init works through the recorder."""
        p = make_gotoh(12, 15, seed=6)
        full = FW.solve(p, executor="sequential").table
        s = StreamingSolver().solve(p, track=[corner(p)])
        rec = s.tracked[corner(p)]
        assert rec["m"] == full[-1, -1]["m"]
        assert rec["ix"] == full[-1, -1]["ix"]
        assert rec["iy"] == full[-1, -1]["iy"]


class TestReductions:
    def test_smith_waterman_max(self):
        p = make_smith_waterman(35, 41, seed=7)
        full = FW.solve(p).table
        s = StreamingSolver(
            reduce=lambda acc, v: max(acc, int(v.max())), reduce_init=0
        ).solve(p)
        assert s.reduced == int(full.max())

    def test_sum_reduction(self):
        p = make_synthetic(ContributingSet.of("N"), 10, 10)
        full = FW.solve(p).table
        s = StreamingSolver(
            reduce=lambda acc, v: acc + int(v.sum()), reduce_init=0
        ).solve(p)
        assert s.reduced == int(full.sum())


class TestMemoryBehaviour:
    def test_peak_is_window_bounded(self):
        p = make_levenshtein(256, 256, seed=8)
        s = StreamingSolver().solve(p, track=[corner(p)])
        # anti-diagonal window = 2 previous + current = 3 wavefronts max;
        # the widest three hold 255 + 256 + 255 cells
        assert s.peak_cells == 3 * 256 - 2
        assert s.memory_fraction < 0.02

    def test_knight_window_three(self):
        p = make_dithering(64, 64)
        s = StreamingSolver().solve(p)
        # knight-move needs the last 3 wavefronts + current
        assert s.peak_cells <= 4 * 33

    def test_total_cells_reported(self):
        p = make_levenshtein(32, 48)
        s = StreamingSolver().solve(p)
        assert s.total_cells == 32 * 48


class TestBoundaryRecorder:
    def _rec(self, shape=(5, 7), fr=1, fc=1, dtype=np.dtype(np.float64)):
        top = np.zeros((fr, shape[1]), dtype=dtype)
        left = np.zeros((shape[0], fc), dtype=dtype)
        return _BoundaryRecorder(shape, dtype, fr, fc, top, left), top, left

    def test_row_write(self):
        rec, top, left = self._rec()
        rec[0, :] = np.arange(7)
        assert (top[0] == np.arange(7)).all()
        assert left[0, 0] == 0  # col-0 of row 0 is also in left? row write hits both
        # the (0, 0) cell belongs to both strips: top got it, left too
        rec[:, 0] = 9
        assert (left[:, 0] == 9).all()

    def test_scalar_write(self):
        rec, top, left = self._rec()
        rec[0, 0] = 5.0
        assert top[0, 0] == 5.0 and left[0, 0] == 5.0

    def test_vector_write_to_column(self):
        rec, top, left = self._rec()
        rec[1:, 0] = np.arange(4) + 1.0
        assert (left[1:, 0] == np.arange(4) + 1.0).all()

    def test_writes_outside_strips_ignored(self):
        rec, top, left = self._rec()
        rec[3, 4] = 99.0  # interior: not recorded anywhere
        assert (top == 0).all() and (left == 0).all()

    def test_reads_rejected(self):
        rec, *_ = self._rec()
        with pytest.raises(ExecutionError):
            _ = rec[0]


class TestProperty:
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=3, max_value=16),
        st.integers(min_value=3, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_streaming_equals_full(self, mask, rows, cols):
        p = make_synthetic(ContributingSet.from_mask(mask), rows, cols)
        full = FW.solve(p, executor="sequential").table
        s = StreamingSolver().solve(p)
        gi, gj = s.last_cells
        assert np.array_equal(s.last_values, full[gi, gj])
