"""Tests for block-tiled execution (repro.core.blocking + exec.blocked)."""

import numpy as np
import pytest

from repro import ContributingSet, ExecOptions, Framework, hetero_high
from repro.core.blocking import (
    BlockGrid,
    blocking_cache_info,
    clear_blocking_cache,
    grid_for,
)
from repro.errors import ExecutionError, ScheduleError
from repro.exec.blocked import BlockedCPUExecutor, fast_blocked_makespan
from repro.exec.hetero import fast_hetero_makespan
from repro.problems import (
    make_dithering,
    make_fig8_problem,
    make_lcs,
    make_levenshtein,
    make_synthetic,
)
from repro.types import Pattern

NE_FREE_MASKS = [2, 4, 6, 8, 10, 12, 14]
NE_MASKS = [1, 3, 5, 7, 9, 11, 13, 15]


class TestBlockGrid:
    def test_tiling_covers_region_once(self):
        grid = BlockGrid(Pattern.ANTI_DIAGONAL, 23, 31, 8)
        seen = np.zeros((23, 31), dtype=int)
        for blk in grid.all_blocks():
            seen[blk.r0: blk.r1, blk.c0: blk.c1] += 1
        assert (seen == 1).all()

    def test_ceil_division(self):
        grid = BlockGrid(Pattern.HORIZONTAL, 10, 10, 4)
        assert grid.brows == 3 and grid.bcols == 3
        edge = grid.block_at(2, 2)
        assert edge.rows == 2 and edge.cols == 2

    def test_block_count(self):
        grid = BlockGrid(Pattern.HORIZONTAL, 16, 16, 4)
        assert grid.num_blocks == 16
        assert sum(len(grid.blocks(t)) for t in range(grid.num_iterations)) == 16

    def test_fewer_iterations_than_cells(self):
        """The point of tiling: block wavefronts collapse cell wavefronts."""
        grid = BlockGrid(Pattern.ANTI_DIAGONAL, 64, 64, 16)
        from repro.core.schedule import schedule_for

        assert grid.num_iterations < schedule_for(
            Pattern.ANTI_DIAGONAL, 64, 64
        ).num_iterations

    def test_block_dependency_safety(self):
        """Every NE-free cell dependency of a block's cells lands in a block
        of a strictly earlier block-wavefront (or the block itself)."""
        grid = BlockGrid(Pattern.ANTI_DIAGONAL, 20, 26, 6)
        sched = grid.schedule
        for t in range(grid.num_iterations):
            for blk in grid.blocks(t):
                for di, dj in ((0, -1), (-1, -1), (-1, 0)):  # W, NW, N
                    # worst-case source cells on the block edges
                    ni = blk.r0 + di
                    nj = (blk.c0 if dj < 0 else blk.c1 - 1) + dj
                    if 0 <= ni < 20 and 0 <= nj < 26:
                        src_t = sched.iteration_of(
                            np.array([ni // 6]), np.array([nj // 6])
                        )[0]
                        assert src_t <= t

    def test_invalid_block_size(self):
        with pytest.raises(ScheduleError):
            BlockGrid(Pattern.HORIZONTAL, 8, 8, 0)

    def test_block_at_bounds(self):
        grid = BlockGrid(Pattern.HORIZONTAL, 8, 8, 4)
        with pytest.raises(ScheduleError):
            grid.block_at(5, 0)


class TestSkewedBlockGrid:
    def test_tiles_cover_region_once(self):
        from repro.core.blocking import SkewedBlockGrid

        grid = SkewedBlockGrid(17, 23, 5)
        seen = np.zeros((17, 23), dtype=int)
        for blk in grid.all_blocks():
            for i, lo, hi in blk.rows_and_spans():
                seen[i, lo:hi] += 1
        assert (seen == 1).all()

    def test_dependency_safety_all_offsets(self):
        """Every representative-set dependency of every cell lands in a tile
        of a strictly earlier tile-wavefront, or in the same tile at a
        smaller knight index."""
        from repro.core.blocking import SkewedBlockGrid

        R, C, B = 11, 14, 4
        grid = SkewedBlockGrid(R, C, B)
        # map each cell to its tile-wavefront index
        wave = {}
        for t in range(grid.num_iterations):
            for blk in grid.blocks(t):
                for i, lo, hi in blk.rows_and_spans():
                    for j in range(lo, hi):
                        wave[(i, j)] = t
        for (i, j), t in wave.items():
            for di, dj in ((0, -1), (-1, -1), (-1, 0), (-1, 1)):
                src = (i + di, j + dj)
                if src in wave:
                    if wave[src] == t:
                        # same tile: the intra-tile sweep order (knight
                        # index ascending) must put the source first
                        assert 2 * src[0] + src[1] < 2 * i + j
                    else:
                        assert wave[src] < t

    def test_invalid_block_size(self):
        from repro.core.blocking import SkewedBlockGrid
        from repro.errors import ScheduleError

        with pytest.raises(ScheduleError):
            SkewedBlockGrid(8, 8, 0)

    def test_block_at_bounds(self):
        from repro.core.blocking import SkewedBlockGrid
        from repro.errors import ScheduleError

        grid = SkewedBlockGrid(8, 8, 4)
        with pytest.raises(ScheduleError):
            grid.block_at(99, 0)


class TestBlockedExecutorCorrectness:
    @pytest.mark.parametrize("mask", NE_FREE_MASKS)
    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_matches_oracle_all_ne_free_sets(self, mask, block):
        p = make_synthetic(ContributingSet.from_mask(mask), 13, 17)
        base = Framework(hetero_high()).solve(p, executor="sequential").table
        res = BlockedCPUExecutor(hetero_high(), block_size=block).solve(p)
        assert np.array_equal(base, res.table)

    def test_levenshtein_blocked(self):
        p = make_levenshtein(37, 45, seed=1)
        base = Framework(hetero_high()).solve(p, executor="sequential").table
        for block in (4, 16, 100):
            res = BlockedCPUExecutor(hetero_high(), block_size=block).solve(p)
            assert np.array_equal(base, res.table)

    @pytest.mark.parametrize("mask", NE_MASKS)
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_ne_sets_use_skewed_tiles(self, mask, block):
        """NE dependencies break square tiles (they'd need the block-level
        East neighbour); the executor switches to knight-skewed
        parallelograms and still matches the oracle."""
        p = make_synthetic(ContributingSet.from_mask(mask), 13, 17)
        base = Framework(hetero_high()).solve(p, executor="sequential").table
        res = BlockedCPUExecutor(hetero_high(), block_size=block).solve(p)
        assert np.array_equal(base, res.table)
        assert res.stats["tiling"] == "skewed"

    def test_dithering_blocked_matches_reference(self):
        p = make_dithering(23, 29, seed=1)
        base = Framework(hetero_high()).solve(p, executor="sequential")
        res = BlockedCPUExecutor(hetero_high(), block_size=8).solve(p)
        assert np.allclose(base.table, res.table)
        assert np.array_equal(base.aux["output"], res.aux["output"])

    def test_square_tiling_reported_for_ne_free(self):
        p = make_levenshtein(20, 20)
        res = BlockedCPUExecutor(hetero_high(), block_size=8).solve(p)
        assert res.stats["tiling"] == "square"

    def test_invalid_block_size(self):
        with pytest.raises(ExecutionError):
            BlockedCPUExecutor(hetero_high(), block_size=0)


    @pytest.mark.parametrize("shape", [(1, 23), (23, 1), (1, 1), (2, 37)])
    def test_degenerate_shapes(self, fw, shape):
        for mask in (4, 7, 9, 15):
            p = make_synthetic(ContributingSet.from_mask(mask), *shape)
            ref = fw.solve(p, executor="sequential").table
            res = fw.solve(
                p, executor="cpu-blocked", options=ExecOptions(block_size=4),
            )
            assert np.array_equal(ref, res.table)

    @pytest.mark.parametrize("n,block", [(16, 8), (33, 5), (40, 8)])
    def test_native_inverted_l_barrier_order(self, fw, n, block):
        # Regression: the Γ-wave block schedule carries *intra*-wave tile
        # dependencies once block > 1 fans {NW} into W/N/NW neighbours, and
        # its canonical enumeration walks the column arm bottom-up — the
        # barrier sweep must re-sort row-major or tiles read unwritten
        # neighbours.
        p = make_fig8_problem(n)
        opts = ExecOptions(inverted_l_as_horizontal=False, block_size=block)
        ref = fw.solve(p, executor="sequential", options=opts)
        assert ref.pattern is Pattern.INVERTED_L
        barrier = fw.solve(p, executor="cpu-blocked", options=opts)
        assert np.array_equal(ref.table, barrier.table)


class TestCaches:
    def test_grid_cache_hits_on_repeat_solves(self, fw, minsum_factory):
        clear_blocking_cache()
        p = minsum_factory(ContributingSet.of("NW", "N"))
        opts = ExecOptions(block_size=4)
        fw.solve(p, executor="cpu-blocked", options=opts)
        fw.solve(p, executor="cpu-blocked", options=opts)
        info = blocking_cache_info()
        assert info.misses >= 1 and info.hits >= 1

    def test_grid_cache_identity(self):
        clear_blocking_cache()
        a = grid_for(30, 20, 7, pattern=Pattern.ANTI_DIAGONAL)
        b = grid_for(30, 20, 7, pattern=Pattern.ANTI_DIAGONAL)
        assert a is b
        c = grid_for(30, 20, 7, skewed=True)
        assert c is not a and blocking_cache_info().size == 2

    def test_grid_for_requires_pattern_for_square(self):
        with pytest.raises(ScheduleError):
            grid_for(10, 10, 2)


class TestBlockedTiming:
    def test_blocked_beats_flat_on_antidiagonal(self):
        """Fork amortization: far fewer barriers than cell wavefronts."""
        p = make_lcs(4096, materialize=False)
        fw = Framework(hetero_high())
        flat = fw.estimate(p, executor="cpu").simulated_time
        blocked = BlockedCPUExecutor(hetero_high(), block_size=64).estimate(p)
        assert blocked.simulated_time < flat

    def test_block_size_u_curve(self):
        p = make_lcs(4096, materialize=False)
        times = [
            BlockedCPUExecutor(hetero_high(), block_size=B)
            .estimate(p)
            .simulated_time
            for B in (1, 32, 4096)
        ]
        # tiny blocks pay forks, huge blocks starve cores; 32 beats both
        assert times[1] < times[0]
        assert times[1] < times[2]

    def test_estimate_matches_solve(self):
        p = make_lcs(128, seed=0)
        ex = BlockedCPUExecutor(hetero_high(), block_size=16)
        assert ex.estimate(p).simulated_time == pytest.approx(
            ex.solve(p).simulated_time
        )

    def test_stats(self):
        p = make_levenshtein(64, 64)
        res = BlockedCPUExecutor(hetero_high(), block_size=16).solve(p)
        assert res.stats["block_size"] == 16
        assert res.stats["blocks"] == 16
        assert res.executor == "cpu-blocked"

    @pytest.mark.parametrize("mask,shape", [
        (6, (48, 40)),   # NW+N horizontal
        (15, (40, 48)),  # full set, knight-move (skewed)
        (4, (32, 32)),   # NW inverted-L
    ])
    def test_fast_blocked_matches_executor_estimate(self, fw, mask, shape):
        p = make_synthetic(ContributingSet.from_mask(mask), *shape)
        opts = ExecOptions(block_size=8)
        est = fw.estimate(p, executor="cpu-blocked", options=opts)
        fast = fast_blocked_makespan(p, fw.platform, opts)
        assert est.simulated_time == fast  # exact, not approximate

    def test_fast_blocked_native_inverted_l(self, fw):
        p = make_fig8_problem(96, materialize=False)
        opts = ExecOptions(inverted_l_as_horizontal=False, block_size=8)
        est = fw.estimate(p, executor="cpu-blocked", options=opts)
        assert fast_blocked_makespan(p, fw.platform, opts) == est.simulated_time


class TestPricing:
    def test_pricer_routes_blocked_executor(self, fw):
        from repro.slo.pricing import Pricer

        pricer = Pricer(fw)
        p = make_synthetic(ContributingSet.of("W", "NE"), 64, 64)
        blocked = pricer.units(p, executor="cpu-blocked")
        hetero = pricer.units(p, executor="hetero")
        assert blocked == pytest.approx(
            fast_blocked_makespan(p, fw.platform, fw.options)
        )
        assert hetero == pytest.approx(
            fast_hetero_makespan(p, fw.platform, None, fw.options)
        )
        assert blocked != hetero

    def test_service_prices_blocked_requests_via_blocked_model(self, fw):
        from repro.serve import ServiceConfig, SolveRequest, SolveService
        from repro.slo import SLOPolicy

        p = make_synthetic(ContributingSet.of("NW", "N"), 32, 32)
        config = ServiceConfig(
            workers=1, slo=SLOPolicy(admission=True, max_workers=1)
        )
        service = SolveService(fw.platform, config=config)
        try:
            pending = service.submit(SolveRequest(
                problem=p, executor="cpu-blocked", timeout=30.0,
            ))
            res = pending.result(timeout=30.0)
            assert res.executor == "cpu-blocked"
        finally:
            service.close()


class TestBlockedTimeModel:
    def test_zero_blocks(self):
        assert hetero_high().cpu.blocked_time([]) == 0.0

    def test_single_block_sequential(self):
        cpu = hetero_high().cpu
        t = cpu.blocked_time([1000])
        assert t == pytest.approx(cpu.fork_us * 1e-6 + 1000 * cpu.cell_ns * 1e-9)

    def test_perfect_balance(self):
        cpu = hetero_high().cpu
        t = cpu.blocked_time([500] * cpu.cores)
        assert t == pytest.approx(cpu.fork_us * 1e-6 + 500 * cpu.cell_ns * 1e-9)

    def test_imbalance_costs(self):
        cpu = hetero_high().cpu
        balanced = cpu.blocked_time([300, 300])
        lumpy = cpu.blocked_time([500, 100])
        assert lumpy > balanced

    def test_negative_rejected(self):
        from repro.errors import PlatformError

        with pytest.raises(PlatformError):
            hetero_high().cpu.blocked_time([-1])
