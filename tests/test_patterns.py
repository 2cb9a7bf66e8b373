"""Tests for repro.patterns: strategy phase layouts, splits, transfers."""

import pytest

from repro.core.partition import HeteroParams
from repro.core.schedule import schedule_for
from repro.machine.platform import hetero_high
from repro.patterns import (
    AntiDiagonalStrategy,
    HorizontalStrategy,
    InvertedLStrategy,
    KnightMoveStrategy,
    MInvertedLStrategy,
    VerticalStrategy,
    strategy_for,
)
from repro.problems import make_checkerboard, make_fig8_problem, make_levenshtein
from repro.types import ContributingSet, Pattern, TransferDirection, TransferKind


def _sched(pattern, rows=10, cols=12):
    return schedule_for(pattern, rows, cols)


class TestAntiDiagonalStrategy:
    def setup_method(self):
        self.cs = ContributingSet.of("W", "NW", "N")
        self.s = AntiDiagonalStrategy(_sched(Pattern.ANTI_DIAGONAL), self.cs)

    def test_three_phases(self):
        plan = self.s.plan(HeteroParams(t_switch=4, t_share=2))
        names = [p.name for p in plan.phases]
        assert names == ["cpu-low", "split", "cpu-low"]
        assert plan.phases[0].length == 4
        assert plan.phases[2].length == 4

    def test_t_switch_clamped_to_half(self):
        plan = self.s.plan(HeteroParams(t_switch=1000, t_share=0))
        total = self.s.schedule.num_iterations
        assert plan.params.t_switch == total // 2

    def test_low_phases_are_pure_cpu(self):
        plan = self.s.plan(HeteroParams(t_switch=3, t_share=2))
        for a in plan.assignments:
            if a.phase == "cpu-low":
                assert a.gpu_cells == 0

    def test_split_strip_goes_to_cpu(self):
        """The CPU owns rows i < t_share (Fig. 3's fixed top strip): full
        t_share cells while the diagonal touches row 0, thinning out as the
        diagonal's row range leaves the strip in the shrinking half."""
        plan = self.s.plan(HeteroParams(t_switch=3, t_share=2))
        sched = self.s.schedule
        for a in plan.assignments:
            if a.phase == "split":
                lo = max(0, a.t - sched.cols + 1)
                hi = min(sched.rows - 1, a.t)
                assert a.cpu_cells == max(0, min(hi + 1, 2) - lo)

    def test_strip_thins_in_shrinking_half(self):
        plan = self.s.plan(HeteroParams(t_switch=0, t_share=3))
        late = [a for a in plan.assignments if a.t >= self.s.schedule.cols + 2]
        assert late and all(a.cpu_cells == 0 for a in late)

    def test_transfers_one_way_streamed(self):
        plan = self.s.plan(HeteroParams(t_switch=3, t_share=2))
        specs = [ts for a in plan.assignments for ts in a.transfers]
        assert specs, "split iterations must exchange boundaries"
        assert all(ts.direction is TransferDirection.H2D for ts in specs)
        assert all(ts.kind is TransferKind.STREAMED for ts in specs)
        assert plan.transfer_way() == "1-way"

    def test_no_transfers_when_cpu_takes_all(self):
        width_max = self.s.schedule.max_width
        plan = self.s.plan(HeteroParams(t_switch=0, t_share=width_max))
        assert all(not a.transfers for a in plan.assignments)

    def test_plan_covers_widths(self):
        plan = self.s.plan(HeteroParams(t_switch=5, t_share=3))
        plan.validate(self.s.schedule.widths())


class TestHorizontalStrategy:
    def test_single_phase(self):
        s = HorizontalStrategy(_sched(Pattern.HORIZONTAL), ContributingSet.of("NW", "N"))
        plan = s.plan(HeteroParams(t_switch=7, t_share=4))
        assert [p.name for p in plan.phases] == ["split"]
        assert plan.num_iterations == 10

    def test_case1_left_dep_h2d(self):
        s = HorizontalStrategy(_sched(Pattern.HORIZONTAL), ContributingSet.of("NW", "N"))
        assert s.case == 1
        specs = s.split_transfers()
        assert len(specs) == 1
        assert specs[0].direction is TransferDirection.H2D
        assert specs[0].kind is TransferKind.STREAMED

    def test_case1_right_dep_d2h(self):
        s = HorizontalStrategy(_sched(Pattern.HORIZONTAL), ContributingSet.of("N", "NE"))
        assert s.case == 1
        specs = s.split_transfers()
        assert len(specs) == 1
        assert specs[0].direction is TransferDirection.D2H

    def test_pure_vertical_dep_no_transfer(self):
        s = HorizontalStrategy(_sched(Pattern.HORIZONTAL), ContributingSet.of("N"))
        assert s.split_transfers() == ()

    def test_case2_two_way_pinned(self):
        s = HorizontalStrategy(
            _sched(Pattern.HORIZONTAL), ContributingSet.of("NW", "N", "NE")
        )
        assert s.case == 2
        specs = s.split_transfers()
        assert {ts.direction for ts in specs} == {
            TransferDirection.H2D,
            TransferDirection.D2H,
        }
        assert all(ts.kind is TransferKind.PINNED for ts in specs)

    def test_vertical_set_transposed_for_directions(self):
        # {W, NW} as columns behaves like {N, NW} as rows: one-way H2D.
        s = VerticalStrategy(_sched(Pattern.VERTICAL), ContributingSet.of("W", "NW"))
        specs = s.split_transfers()
        assert len(specs) == 1 and specs[0].direction is TransferDirection.H2D

    def test_vertical_w_only_no_transfer(self):
        s = VerticalStrategy(_sched(Pattern.VERTICAL), ContributingSet.of("W"))
        assert s.split_transfers() == ()


class TestInvertedLStrategy:
    def setup_method(self):
        self.s = InvertedLStrategy(_sched(Pattern.INVERTED_L), ContributingSet.of("NW"))

    def test_two_phases_tail_cpu(self):
        plan = self.s.plan(HeteroParams(t_switch=3, t_share=2))
        assert [p.name for p in plan.phases] == ["split", "cpu-low"]
        assert plan.phases[1].length == 3

    def test_one_way_single_cell(self):
        specs = self.s.split_transfers()
        assert len(specs) == 1
        assert specs[0].cells == 1
        assert specs[0].direction is TransferDirection.D2H
        assert specs[0].kind is TransferKind.STREAMED

    def test_t_switch_clamped_to_total(self):
        plan = self.s.plan(HeteroParams(t_switch=99, t_share=0))
        assert plan.params.t_switch == self.s.schedule.num_iterations

    def test_minverted_same_mechanics(self):
        s = MInvertedLStrategy(_sched(Pattern.MINVERTED_L), ContributingSet.of("NE"))
        plan = s.plan(HeteroParams(t_switch=2, t_share=3))
        assert [p.name for p in plan.phases] == ["split", "cpu-low"]
        assert s.split_transfers()[0].direction is TransferDirection.D2H


class TestKnightMoveStrategy:
    def setup_method(self):
        self.s = KnightMoveStrategy(
            _sched(Pattern.KNIGHT_MOVE), ContributingSet.from_mask(15)
        )

    def test_three_phases(self):
        plan = self.s.plan(HeteroParams(t_switch=5, t_share=2))
        assert [p.name for p in plan.phases] == ["cpu-low", "split", "cpu-low"]

    def test_two_way_pinned_cell_counts(self):
        specs = self.s.split_transfers()
        by_dir = {ts.direction: ts for ts in specs}
        assert by_dir[TransferDirection.H2D].cells == 2  # W (t+1) and NW (t+3)
        assert by_dir[TransferDirection.D2H].cells == 1  # NE (t+1)
        assert all(ts.kind is TransferKind.PINNED for ts in specs)


class TestStrategySelection:
    def test_levenshtein_antidiagonal(self):
        s = strategy_for(make_levenshtein(16))
        assert isinstance(s, AntiDiagonalStrategy)

    def test_checkerboard_horizontal(self):
        s = strategy_for(make_checkerboard(16))
        assert isinstance(s, HorizontalStrategy)
        assert s.case == 2

    def test_inverted_l_runs_horizontal_by_default(self):
        s = strategy_for(make_fig8_problem(16))
        assert isinstance(s, HorizontalStrategy)
        assert s.schedule.pattern is Pattern.HORIZONTAL

    def test_inverted_l_native_when_disabled(self):
        s = strategy_for(make_fig8_problem(16), inverted_l_as_horizontal=False)
        assert isinstance(s, InvertedLStrategy)

    def test_pattern_override(self):
        s = strategy_for(make_fig8_problem(16), pattern_override=Pattern.INVERTED_L)
        assert isinstance(s, InvertedLStrategy)

    def test_overhead_factors_sane(self):
        for cls in (
            AntiDiagonalStrategy,
            HorizontalStrategy,
            InvertedLStrategy,
            KnightMoveStrategy,
        ):
            assert cls.cpu_overhead >= 1.0
            assert cls.gpu_overhead >= 1.0
        # the paper's Sec. V-B point: L-rings hurt the GPU far more
        assert InvertedLStrategy.gpu_overhead > HorizontalStrategy.gpu_overhead


class TestPerIterationTransferSeconds:
    def test_streamed_hidden_when_pipelined(self):
        s = HorizontalStrategy(_sched(Pattern.HORIZONTAL), ContributingSet.of("NW", "N"))
        assert s.per_iteration_transfer_seconds(hetero_high(), 8) == 0.0

    def test_streamed_counted_when_not_pipelined(self):
        s = HorizontalStrategy(_sched(Pattern.HORIZONTAL), ContributingSet.of("NW", "N"))
        assert s.per_iteration_transfer_seconds(hetero_high(), 8, pipeline=False) > 0

    def test_pinned_always_counted(self):
        s = KnightMoveStrategy(_sched(Pattern.KNIGHT_MOVE), ContributingSet.from_mask(15))
        cost = s.per_iteration_transfer_seconds(hetero_high(), 8)
        # two pinned copies: at least twice the pinned latency
        assert cost >= 2 * hetero_high().transfer.pinned_latency_us * 1e-6
