"""Block-tiled execution geometry (paper Sec. IV-A, related work [8]).

The paper's CPU strategy assigns each heavy-weight thread "a group of cells
(one or more blocks/sub-blocks)" instead of single cells. This module
provides the geometry: tile the computed region into ``B x B`` blocks and
schedule *blocks* by the same wavefront pattern that schedules cells.

Why the same pattern works at block granularity: every cell dependency
points into the representative-set offsets {W, NW, N, NE}; a dependency
crossing a block boundary therefore lands in the block-level W, NW, N or NE
neighbour — so the block grid inherits the cell grid's dependency structure,
and Table I's classification applies verbatim to blocks. Within one block,
cells are swept in their own (cell-level) wavefront order, which respects
intra-block dependencies by construction.

This is the tiling idea of Chowdhury & Ramachandran's cache-efficient
multicore algorithms, specialized to the paper's four patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ScheduleError
from ..lru import LRU, CacheInfo
from ..types import Pattern
from .schedule import WavefrontSchedule, schedule_for

__all__ = [
    "Block",
    "BlockGrid",
    "SkewedBlockGrid",
    "SkewedBlock",
    "grid_for",
    "blocking_cache_info",
    "clear_blocking_cache",
]


@dataclass(frozen=True)
class Block:
    """One tile: rows ``[r0, r1)`` x cols ``[c0, c1)`` of the computed region."""

    bi: int
    bj: int
    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def rows(self) -> int:
        return self.r1 - self.r0

    @property
    def cols(self) -> int:
        return self.c1 - self.c0

    @property
    def cells(self) -> int:
        return self.rows * self.cols


class BlockGrid:
    """Tiling of a ``(rows, cols)`` region with a block-level schedule."""

    def __init__(self, pattern: Pattern, rows: int, cols: int, block: int) -> None:
        if block <= 0:
            raise ScheduleError("block size must be positive")
        self.pattern = pattern
        self.rows = rows
        self.cols = cols
        self.block = block
        self.brows = -(-rows // block)  # ceil
        self.bcols = -(-cols // block)
        #: Block-level wavefronts: the same pattern on the block grid.
        self.schedule: WavefrontSchedule = schedule_for(pattern, self.brows, self.bcols)

    @property
    def num_blocks(self) -> int:
        return self.brows * self.bcols

    @property
    def num_iterations(self) -> int:
        return self.schedule.num_iterations

    def block_at(self, bi: int, bj: int) -> Block:
        if not (0 <= bi < self.brows and 0 <= bj < self.bcols):
            raise ScheduleError(f"block ({bi}, {bj}) outside the grid")
        r0 = bi * self.block
        c0 = bj * self.block
        return Block(
            bi=bi, bj=bj,
            r0=r0, r1=min(self.rows, r0 + self.block),
            c0=c0, c1=min(self.cols, c0 + self.block),
        )

    def blocks(self, t: int) -> list[Block]:
        """Blocks of block-wavefront ``t``, in canonical order."""
        bi, bj = self.schedule.cells(t)
        return [self.block_at(int(i), int(j)) for i, j in zip(bi, bj)]

    def all_blocks(self) -> list[Block]:
        """Every block, in block-wavefront order."""
        out: list[Block] = []
        for t in range(self.num_iterations):
            out.extend(self.blocks(t))
        return out

    def widths(self) -> np.ndarray:
        """Blocks per block-wavefront (the block-level parallelism profile)."""
        return self.schedule.widths()


@dataclass(frozen=True)
class SkewedBlock:
    """One parallelogram tile in ``(i, v)`` space, ``v = 2i + j``.

    Cells: rows ``[r0, r1)`` x knight-indices ``[v0, v1)``, intersected with
    the region's column range. ``cells_by_row`` lists, per row ``i``, the
    contiguous ``j`` span the tile actually contains (possibly empty).
    """

    bi: int
    bt: int
    r0: int
    r1: int
    v0: int
    v1: int
    cols: int

    def rows_and_spans(self) -> list[tuple[int, int, int]]:
        """``(i, j_lo, j_hi)`` for every non-empty row of the tile."""
        out = []
        for i in range(self.r0, self.r1):
            j_lo = max(0, self.v0 - 2 * i)
            j_hi = min(self.cols, self.v1 - 2 * i)
            if j_lo < j_hi:
                out.append((i, j_lo, j_hi))
        return out

    @property
    def cells(self) -> int:
        return sum(hi - lo for _, lo, hi in self.rows_and_spans())


class SkewedBlockGrid:
    """Parallelogram tiling for NE-containing contributing sets.

    Square tiles fail on NE dependencies (they cross into the block-level
    East neighbour). Skewing the column coordinate by the knight-move
    wavefront index ``v = 2i + j`` fixes that: every representative-set
    dependency has ``di in {0, -1}`` and ``dv in {-3, -2, -1}``, so at tile
    granularity the dependency lands in the tile-level W, NW or N neighbour
    of the ``(I, T)`` grid — and those are all scheduled strictly earlier by
    a tile-level *anti-diagonal* order ``I + T``.

    Within a tile, cells are swept in knight-move wavefront order (``v``
    ascending), which respects intra-tile dependencies for every one of the
    15 contributing sets (the knight-move index is the universal schedule).
    """

    def __init__(self, rows: int, cols: int, block: int) -> None:
        if block <= 0:
            raise ScheduleError("block size must be positive")
        self.rows = rows
        self.cols = cols
        self.block = block
        self.vmax = 2 * (rows - 1) + cols  # knight indices span [0, vmax)
        self.brows = -(-rows // block)
        self.bvs = -(-self.vmax // block)
        #: Tile-level wavefronts: anti-diagonal order over the (I, T) grid.
        self.schedule: WavefrontSchedule = schedule_for(
            Pattern.ANTI_DIAGONAL, self.brows, self.bvs
        )

    @property
    def num_iterations(self) -> int:
        return self.schedule.num_iterations

    def block_at(self, bi: int, bt: int) -> SkewedBlock:
        if not (0 <= bi < self.brows and 0 <= bt < self.bvs):
            raise ScheduleError(f"tile ({bi}, {bt}) outside the grid")
        return SkewedBlock(
            bi=bi,
            bt=bt,
            r0=bi * self.block,
            r1=min(self.rows, (bi + 1) * self.block),
            v0=bt * self.block,
            v1=min(self.vmax, (bt + 1) * self.block),
            cols=self.cols,
        )

    def blocks(self, t: int) -> list[SkewedBlock]:
        """Non-empty tiles of tile-wavefront ``t``, in canonical order."""
        bi, bt = self.schedule.cells(t)
        out = []
        for I, T in zip(bi, bt):
            blk = self.block_at(int(I), int(T))
            if blk.cells:
                out.append(blk)
        return out

    def all_blocks(self) -> list[SkewedBlock]:
        out: list[SkewedBlock] = []
        for t in range(self.num_iterations):
            out.extend(self.blocks(t))
        return out


# -- grid cache ----------------------------------------------------------------
#
# The blocked executor used to rebuild its grid (and the grid's block-level
# schedule) on every solve, even for identical (shape, block, pattern) keys.
# Grids are immutable geometry, so cache them by content — the same contract
# as `strategy_for` in repro.patterns.registry. The key is fully value-based
# (no object identities), so any two problems with the same computed shape
# share one grid object.

_GRID_CACHE = LRU(128)


def blocking_cache_info() -> CacheInfo:
    """Hit/miss/size counters of the grid cache (for tests/diagnostics)."""
    return _GRID_CACHE.info()


def clear_blocking_cache() -> None:
    """Drop all cached grids and reset the counters."""
    global _GRID_CACHE
    _GRID_CACHE = LRU(_GRID_CACHE.capacity)


def grid_for(
    rows: int,
    cols: int,
    block: int,
    *,
    pattern: Pattern | None = None,
    skewed: bool = False,
) -> "BlockGrid | SkewedBlockGrid":
    """The tiling of a ``(rows, cols)`` region, served from a content LRU.

    ``skewed=True`` returns a :class:`SkewedBlockGrid` (``pattern`` is
    ignored — skewed tiles always run under the tile-level anti-diagonal);
    otherwise a :class:`BlockGrid` scheduled by ``pattern`` (required).
    """
    if not skewed and pattern is None:
        raise ScheduleError("square grids need a block-level pattern")
    key = (skewed, None if skewed else pattern, rows, cols, block)
    grid = _GRID_CACHE.get(key)
    if grid is not None:
        return grid
    grid = (
        SkewedBlockGrid(rows, cols, block)
        if skewed
        else BlockGrid(pattern, rows, cols, block)
    )
    _GRID_CACHE.put(key, grid)
    return grid
