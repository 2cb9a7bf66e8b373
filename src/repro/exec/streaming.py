"""Streaming execution: fill the recurrence without storing the table.

Edit-distance-style results usually need only the final cell, a row, or a
global reduction — not the O(mn) table. Because every representative-set
dependency sits a *fixed number of wavefronts* behind its reader (for each
compatible pattern the wavefront-index delta of each offset is a constant:
e.g. anti-diagonal W/N are one diagonal back and NW two), the solver only
ever needs a rolling window of the last few wavefronts — O(width) memory.

This is the classic two-row space optimization of LCS/Levenshtein,
generalized to all six patterns and driven by the same schedules the
executors use, so results are identical by construction (asserted in
``tests/test_streaming.py`` against full solves).

The loop itself is :func:`sweep`, shared with the ``cpu-wavefront-major``
executor (:mod:`repro.exec.layout_exec`): the two differ only in storage
policy — a rolling window of wavefronts here, every wavefront kept in one
flat wavefront-major array there.

What you get back:

* the final wavefront's values (for horizontal patterns that is the last
  row — e.g. the full last row of an edit-distance table);
* any explicitly tracked cells (e.g. the bottom-right corner);
* the full-size aux outputs the cell function wrote (e.g. dithering's
  output image);
* an optional running reduction over every computed value (e.g. ``max`` for
  Smith-Waterman's best local score);
* the peak number of cells resident, to verify the memory claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..cancel import CancelToken, raise_if_cancelled
from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..core.schedule import WavefrontSchedule
from ..errors import ExecutionError
from ..kernels import KernelPlan, plan_for, read_geometry
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from ..types import ContributingSet, Neighbor, Pattern

__all__ = ["StreamingSolver", "StreamingResult", "sweep"]

#: Wavefront-index delta of each representative cell, per executed pattern.
#: Only offsets a pattern may legally read are listed (constant by linearity
#: of the index maps — and for the L-rings by ``min(i-1, j-1) = min(i,j)-1``).
_DELTAS: dict[Pattern, dict[Neighbor, int]] = {
    Pattern.ANTI_DIAGONAL: {Neighbor.W: 1, Neighbor.NW: 2, Neighbor.N: 1},
    Pattern.HORIZONTAL: {Neighbor.NW: 1, Neighbor.N: 1, Neighbor.NE: 1},
    Pattern.VERTICAL: {Neighbor.W: 1, Neighbor.NW: 1},
    Pattern.INVERTED_L: {Neighbor.NW: 1},
    Pattern.MINVERTED_L: {Neighbor.NE: 1},
    Pattern.KNIGHT_MOVE: {
        Neighbor.W: 1, Neighbor.NW: 3, Neighbor.N: 2, Neighbor.NE: 1
    },
}


def stream_window(pattern: Pattern, contributing: ContributingSet) -> int:
    """How many trailing wavefronts the reads of ``contributing`` reach back."""
    deltas = _DELTAS[pattern]
    for nb in contributing:
        if nb not in deltas:
            raise ExecutionError(  # pragma: no cover - registry prevents it
                f"pattern {pattern.value} cannot stream neighbour {nb.value}"
            )
    return max(deltas[nb] for nb in contributing)


def sweep(
    problem: LDDPProblem,
    sched: WavefrontSchedule,
    plan: KernelPlan | None,
    top: np.ndarray,
    left: np.ndarray,
    aux: dict[str, np.ndarray],
    check: Callable[[], None],
    flat: np.ndarray | None = None,
    kept: dict[int, np.ndarray] | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Compute ``sched``'s wavefronts in order, one cell call each.

    Yields ``(t, gi, gj, values)`` for every non-empty wavefront from
    inside its ``wavefront`` span. ``top`` holds the fixed top rows and
    ``left`` the fixed left columns of the rows below them; they are packed
    into one boundary vector so each neighbour costs one boundary gather.
    A computed-region read is ``kept[t - delta][pos]``, with ``delta`` the
    neighbour's constant wavefront distance (``_DELTAS``) and ``pos`` the
    source's canonical position — ``AddressMap.flat_of`` by construction.

    Storage policy: with ``flat`` (wavefront-major, ``problem``'s dtype)
    every wavefront is written to its contiguous slice and every slice is
    kept; without it the last :func:`stream_window` wavefronts plus the
    yielded one are kept. ``kept`` is the caller's view of that storage.

    ``plan`` memoises the read geometry per wavefront
    (``kernels.span.fast``); without one the same geometry is derived per
    wavefront (``kernels.span.generic``). ``check`` runs before every
    wavefront (cooperative cancellation).
    """
    deltas = _DELTAS[sched.pattern]
    window = stream_window(sched.pattern, problem.contributing)
    kept = {} if kept is None else kept
    boundary = np.concatenate((top.reshape(-1), left.reshape(-1)))
    fr, fc = problem.fixed_rows, problem.fixed_cols
    members = problem.contributing.members()
    metrics = get_metrics()
    fast_spans = metrics.counter("kernels.span.fast")
    generic_spans = metrics.counter("kernels.span.generic")
    tracer = get_tracer()
    off = 0
    for t in range(sched.num_iterations):
        check()
        w = int(sched.width(t))
        if w == 0:
            continue
        with tracer.span("wavefront", cat="wavefront", t=t, width=w):
            if plan is not None:
                gi, gj, reads = plan.read_geometry(t)
                fast_spans.inc()
            else:
                ci, cj = sched.cells(t)
                gi, gj = ci + fr, cj + fc
                reads = read_geometry(
                    sched, members, problem.shape, (fr, fc), gi, gj
                )
                generic_spans.inc()
            kwargs: dict[str, np.ndarray | None] = {
                "w": None, "nw": None, "n": None, "ne": None
            }
            for g in reads:
                vals = np.full(w, problem.oob_value, dtype=problem.dtype)
                if g.fixed_off.size:
                    vals[g.fixed] = boundary[g.fixed_off]
                if g.win_pos.size:
                    vals[g.win] = kept[t - deltas[g.nb]][g.win_pos]
                kwargs[g.name] = vals
            ctx = EvalContext(
                i=gi, j=gj, payload=problem.payload, aux=aux, **kwargs
            )
            values = np.asarray(problem.cell(ctx)).astype(
                problem.dtype, copy=False
            )
            if flat is not None:
                flat[off:off + w] = values
                values = flat[off:off + w]
                off += w
            kept[t] = values
            yield t, gi, gj, values
        if flat is None:  # after the yield: the caller sees t's peak
            kept.pop(t - window, None)


class _BoundaryRecorder:
    """Captures an init hook's writes into the fixed boundary strips.

    Presents just enough of the ndarray writing interface (``shape``, basic
    2-index ``__setitem__``, structured-field access) for the bundled init
    styles; writes outside the fixed strips are ignored (inits must not
    write computed cells anyway).
    """

    def __init__(self, shape, dtype, fixed_rows: int, fixed_cols: int,
                 top: np.ndarray, left: np.ndarray, fieldname: str | None = None):
        self.shape = shape
        self.dtype = dtype
        self._fr = fixed_rows
        self._fc = fixed_cols
        self._top = top
        self._left = left
        self._field = fieldname

    def __getitem__(self, key):
        if isinstance(key, str):  # structured-field access: table["m"][...]
            return _BoundaryRecorder(
                self.shape, self.dtype[key], self._fr, self._fc,
                self._top, self._left, fieldname=key,
            )
        raise ExecutionError(
            "streaming init hooks may only *write* the table (reads would "
            "need the full array)"
        )

    def __setitem__(self, key, value) -> None:
        if isinstance(key, str):
            _BoundaryRecorder(
                self.shape, self.dtype, self._fr, self._fc,
                self._top, self._left, fieldname=key,
            )[:, :] = value
            return
        rows, cols = self.shape
        if not isinstance(key, tuple):
            key = (key, slice(None))
        ri = np.arange(rows)[key[0]]
        ci = np.arange(cols)[key[1]]
        # honour numpy's basic-indexing assignment shape: scalar key parts
        # do not contribute an axis (table[0, :] = v expects v of len cols,
        # table[1:, 0] = v expects v of len rows-1)
        r_axis = np.ndim(ri) != 0
        c_axis = np.ndim(ci) != 0
        ri = np.atleast_1d(ri)
        ci = np.atleast_1d(ci)
        shape = tuple(
            n for n, keep in ((len(ri), r_axis), (len(ci), c_axis)) if keep
        )
        patch = np.broadcast_to(value, shape).reshape(len(ri), len(ci))
        top = self._top[self._field] if self._field else self._top
        left = self._left[self._field] if self._field else self._left
        rsel = ri < self._fr
        if rsel.any():
            top[np.ix_(ri[rsel], ci)] = patch[rsel, :]
        csel = ci < self._fc
        if csel.any():
            left[np.ix_(ri, ci[csel])] = patch[:, csel]


@dataclass
class StreamingResult:
    """Output of a streaming solve."""

    problem: str
    pattern: Pattern
    last_values: np.ndarray
    last_cells: tuple[np.ndarray, np.ndarray]  # global (i, j) of last_values
    tracked: dict[tuple[int, int], Any] = field(default_factory=dict)
    reduced: Any = None
    peak_cells: int = 0
    total_cells: int = 0
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def memory_fraction(self) -> float:
        """Peak resident cells over total computed cells."""
        return self.peak_cells / max(1, self.total_cells)


class StreamingSolver:
    """O(wavefront)-memory functional execution."""

    def __init__(
        self,
        reduce: Callable[[Any, np.ndarray], Any] | None = None,
        reduce_init: Any = None,
    ) -> None:
        self.reduce = reduce
        self.reduce_init = reduce_init

    def solve(
        self,
        problem: LDDPProblem,
        track: list[tuple[int, int]] | None = None,
        pattern_override: Pattern | None = None,
        inverted_l_as_horizontal: bool = True,
        deadline: float | None = None,
        cancel_token: CancelToken | None = None,
    ) -> StreamingResult:
        """Stream the recurrence; see the module docstring for the contract.

        ``track`` lists global ``(i, j)`` cells of the computed region;
        a cell outside it raises :class:`~repro.errors.ExecutionError`.
        ``deadline`` (absolute ``time.monotonic()``) and ``cancel_token``
        are checked once per wavefront, mirroring the executors'
        cooperative-cancellation points.
        """
        strategy = strategy_for(
            problem,
            pattern_override=pattern_override,
            inverted_l_as_horizontal=inverted_l_as_horizontal,
        )
        sched = strategy.schedule
        pattern = sched.pattern
        window = stream_window(pattern, problem.contributing)

        fr, fc = problem.fixed_rows, problem.fixed_cols
        rows, cols = problem.shape
        for i, j in track or ():
            if not (fr <= i < rows and fc <= j < cols):
                raise ExecutionError(
                    f"tracked cell {(i, j)} lies outside the computed region "
                    f"rows [{fr}, {rows}) x cols [{fc}, {cols})"
                )
        top = np.zeros((fr, cols), dtype=problem.dtype)
        left = np.zeros((rows, fc), dtype=problem.dtype)
        if problem.init is not None:
            rec = _BoundaryRecorder(problem.shape, problem.dtype, fr, fc, top, left)
            problem.init(rec, problem.payload)

        aux = problem.make_aux()  # aux outputs remain full-size by contract
        track_keys = (
            np.array([i * cols + j for i, j in track], dtype=np.int64)
            if track
            else None
        )
        tracked: dict[tuple[int, int], Any] = {}
        reduced = self.reduce_init
        kept: dict[int, np.ndarray] = {}
        peak = 0
        what = f"solve of {problem.name!r}"
        root = get_tracer().span(
            "streaming.solve", cat="executor",
            problem=problem.name, pattern=pattern.value, window=window,
        )
        gi = gj = values = None
        try:
            for _, gi, gj, values in sweep(
                problem, sched, plan_for(problem, sched), top, left[fr:], aux,
                lambda: raise_if_cancelled(deadline, cancel_token, what),
                kept=kept,
            ):
                peak = max(peak, sum(b.shape[0] for b in kept.values()))
                if self.reduce is not None:
                    reduced = self.reduce(reduced, values)
                if track_keys is not None:
                    hits = np.isin(gi * cols + gj, track_keys)
                    for k in np.nonzero(hits)[0]:
                        tracked[(int(gi[k]), int(gj[k]))] = values[k]
        finally:
            root.end()  # also closes a wavefront span left open by an abort
        metrics = get_metrics()
        metrics.counter("exec.streaming.cells").inc(problem.total_computed_cells)
        metrics.gauge("exec.streaming.peak_cells").set(peak)
        return StreamingResult(
            problem=problem.name,
            pattern=pattern,
            last_values=values,
            last_cells=(gi.copy(), gj.copy()),
            tracked=tracked,
            reduced=reduced,
            peak_cells=peak,
            total_cells=problem.total_computed_cells,
            aux=aux,
        )
