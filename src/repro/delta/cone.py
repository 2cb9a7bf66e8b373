"""Seed probe and forward invalidation-cone geometry.

The local-dependency property gives every edit a bounded blast radius:
cell (i, j) feeds exactly the cells that read it as a contributing
neighbour, i.e. the positions ``(i, j) - offset`` for each contributing
offset.  Negating the contributing offsets therefore yields the *forward
dependency vectors*, at cell granularity:

    W  (0, -1)  ->  (0, +1)        N  (-1, 0)  ->  (+1, 0)
    NW (-1, -1) ->  (+1, +1)       NE (-1, +1) ->  (+1, -1)

Two structural facts make the cone cheap to materialize:

* every forward vector has a row step of 0 or +1 (contributing cells come
  from the row above or the same row's left).  With W in the set the
  rightward propagation makes every cone row a suffix ``[L_r, C)``, and
  the closure is one ``minimum.accumulate`` over the row starts; without
  W it is one boolean sweep down the rows, row ``r`` receiving shifted
  copies of row ``r-1``;
* for any dependency-compatible wavefront schedule each forward vector
  lands in a *strictly later* iteration (that is what compatibility means —
  see ``LDDPProblem`` / paper Table I), so replaying the cone's cells
  grouped by iteration index, ascending, re-establishes every cell from
  fully-settled inputs.  :func:`forward_cone` returns the cells in that
  order, with the wave boundaries.

The *probe* turns a payload diff into the seed cells. With a declared
``payload_locality`` the changed elements map to a small candidate set and
only those cells are re-evaluated (plus a seeded spot-check that degrades
when the declaration lies — the scan tier's verified-declaration idiom);
without one, a single vectorized pass re-evaluates the whole computed
region, which is always sound but costs a table sweep.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.cellfunc import EvalContext, gather_neighbors
from ..core.problem import LDDPProblem
from ..core.schedule import WavefrontSchedule
from ..errors import DeltaUnsupported
from ..types import ContributingSet

__all__ = [
    "forward_offsets",
    "probe_cells",
    "probe_seeds",
    "candidate_mask",
    "verify_locality",
    "Cone",
    "forward_cone",
]


def forward_offsets(contributing: ContributingSet) -> tuple[tuple[int, int], ...]:
    """The negated contributing offsets: where a cell's value flows *to*."""
    return tuple(
        (-nb.offset[0], -nb.offset[1]) for nb in contributing
    )


def probe_cells(
    problem: LDDPProblem,
    table: np.ndarray,
    gi: np.ndarray,
    gj: np.ndarray,
) -> np.ndarray:
    """Which of the cells ``(gi, gj)`` the new payload changes.

    Re-evaluates the cells (global coordinates, must lie in the computed
    region) against ``table`` — the base table with its boundary already
    refreshed — and compares with the stored values, mirroring the generic
    span's scatter cast so the comparison sees exactly the bytes a fresh
    solve would store.  Returns a boolean array aligned with ``gi``.
    """
    if gi.size == 0:
        return np.zeros(0, dtype=bool)
    neigh = gather_neighbors(table, problem.contributing, gi, gj,
                             problem.oob_value)
    ctx = EvalContext(i=gi, j=gj, payload=problem.payload, aux={}, **neigh)
    values = problem.cell(ctx)
    stored = np.empty(gi.shape[0], dtype=problem.dtype)
    stored[:] = values
    current = table[gi, gj]
    changed = np.asarray(stored != current)
    if np.issubdtype(problem.dtype, np.floating):
        # NaN stores NaN either way — bit-identical, not a seed.
        changed &= ~(np.isnan(stored) & np.isnan(current))
    return changed


def probe_seeds(problem: LDDPProblem, table: np.ndarray) -> np.ndarray:
    """Mark every computed cell whose stored value the new payload changes.

    One vectorized cell-function pass over the whole computed region — the
    fallback when no ``payload_locality`` covers the edited entries.
    Gathering from the refreshed table means boundary edits flow into the
    probe directly, so no separate boundary seeding is needed.

    Returns a boolean mask over the computed region (local coordinates).
    The probe is *sound*, not merely heuristic: a cell outside the forward
    closure of this mask has all its contributing reads outside it too, so
    a fresh solve assigns it exactly its base value (induction over the
    wavefront order — see ``docs/delta-solving.md``).
    """
    rows, cols = problem.shape
    fr, fc = problem.fixed_rows, problem.fixed_cols
    R, C = problem.computed_shape
    if R <= 0 or C <= 0:
        return np.zeros((max(R, 0), max(C, 0)), dtype=bool)
    gi = np.repeat(np.arange(fr, rows, dtype=np.int64), C)
    gj = np.tile(np.arange(fc, cols, dtype=np.int64), R)
    return probe_cells(problem, table, gi, gj).reshape(R, C)


def candidate_mask(
    problem: LDDPProblem, changed: dict[str, np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Cells the edited payload elements *could* reach.

    Maps each edited entry's changed element indices through the problem's
    ``payload_locality`` declaration.  Returns ``(mask, gi, gj)`` — a
    global boolean membership mask (for the spot-check's exclusion test)
    plus the candidate cells as index arrays, built directly from the
    declarations so no full-table ``nonzero`` scan is ever paid.  ``gi``
    may contain duplicates where entries overlap; probing a cell twice is
    harmless.

    Returns ``None`` — meaning "probe globally" — when any edited entry
    has no declaration, declares ``"global"``, is a non-array edit, or its
    declaration does not fit the entry's dimensionality.  The ``None``
    path is always sound; the index path is verified per patch by
    :func:`verify_locality`.
    """
    locality = problem.payload_locality or {}
    rows, cols = problem.shape
    mask = np.zeros((rows, cols), dtype=bool)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for name, idx in changed.items():
        spec = locality.get(name)
        entry = problem.payload.get(name)
        if (
            spec is None or spec == "global" or idx is None
            or not isinstance(entry, np.ndarray)
        ):
            return None
        kind = spec[0]
        if kind == "row" and entry.ndim == 1:
            rr = np.unique(idx + spec[1])
            rr = rr[(rr >= 0) & (rr < rows)]
            mask[rr, :] = True
            parts.append((
                np.repeat(rr, cols),
                np.tile(np.arange(cols, dtype=np.int64), rr.size),
            ))
        elif kind == "col" and entry.ndim == 1:
            cc = np.unique(idx + spec[1])
            cc = cc[(cc >= 0) & (cc < cols)]
            mask[:, cc] = True
            parts.append((
                np.tile(np.arange(rows, dtype=np.int64), cc.size),
                np.repeat(cc, rows),
            ))
        elif kind == "cell" and entry.ndim == 2:
            p, q = np.unravel_index(idx, entry.shape)
            ii = p + spec[1]
            jj = q + spec[2]
            ok = (ii >= 0) & (ii < rows) & (jj >= 0) & (jj < cols)
            ii, jj = ii[ok], jj[ok]
            mask[ii, jj] = True
            parts.append((ii.astype(np.int64), jj.astype(np.int64)))
        else:
            return None
    gi = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
    gj = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.int64)
    return mask, gi, gj


def verify_locality(
    problem: LDDPProblem,
    table: np.ndarray,
    candidates: np.ndarray,
    *,
    samples: int = 256,
) -> int:
    """Seeded spot-check of a ``payload_locality`` declaration.

    Re-evaluates up to ``samples`` random computed cells *outside* the
    candidate mask; by the declaration these must all keep their base
    values.  Any change proves the declaration lied — raises
    :class:`DeltaUnsupported` so the patch degrades to a full solve instead
    of shipping a stale table.  Returns how many cells were checked.

    Like the scan tier's :func:`~repro.scan.solver.verify_spec` this is a
    *sampled* check of a declared capability: the declaration is the
    problem author's correctness contract, and the spot-check makes a lie
    loud on the sample, deterministic per table shape — it cannot make a
    lie impossible.
    """
    rows, cols = problem.shape
    fr, fc = problem.fixed_rows, problem.fixed_cols
    if rows - fr <= 0 or cols - fc <= 0:
        return 0
    rng = np.random.default_rng((rows * 1_000_003 + cols) ^ 0x5EED)
    gi = rng.integers(fr, rows, size=2 * samples)
    gj = rng.integers(fc, cols, size=2 * samples)
    keep = ~candidates[gi, gj]
    gi, gj = gi[keep][:samples], gj[keep][:samples]
    changed = probe_cells(problem, table, gi, gj)
    if changed.any():
        k = int(np.nonzero(changed)[0][0])
        raise DeltaUnsupported(
            f"payload-locality-violation: cell ({int(gi[k])}, {int(gj[k])}) "
            "changed outside the declared candidate set"
        )
    return int(gi.size)


class Cone(NamedTuple):
    """A forward invalidation cone in replay order.

    ``rows`` / ``cols`` are the cone's cells in coordinates local to the
    computed region, sorted by (iteration, position); wave ``k`` is the
    slice ``bounds[k]:bounds[k + 1]``.
    """

    rows: np.ndarray
    cols: np.ndarray
    bounds: np.ndarray

    @classmethod
    def empty(cls) -> "Cone":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, np.zeros(1, dtype=np.int64))

    @property
    def waves(self) -> int:
        """Number of distinct iterations the cone touches."""
        return int(self.bounds.size) - 1

    @property
    def cells(self) -> int:
        """Cone volume."""
        return int(self.rows.size)


def forward_cone(
    schedule: WavefrontSchedule,
    contributing: ContributingSet,
    seed_rows: np.ndarray,
    seed_cols: np.ndarray,
    shape: tuple[int, int],
    *,
    max_cells: int | None = None,
) -> Cone:
    """Forward closure of the seed cells, sorted for replay.

    ``seed_rows`` / ``seed_cols`` are the seed cells in coordinates local
    to the computed region (``shape``), duplicates allowed.  Raises
    :class:`DeltaUnsupported` when the cone volume exceeds ``max_cells``
    (the wave clip: abandoning early is what keeps a pathological edit from
    costing a full sweep *plus* the cone walk).

    With W in the contributing set every cone row is a suffix ``[L_r, C)``
    and the closure is closed-form (:func:`_suffix_closure`); without it,
    one boolean sweep down the rows (:func:`_row_sweep`).  Either way one
    vectorized ``iteration_of`` / ``position_of`` evaluation plus one
    lexsort orders the cells into waves: no per-wave Python loop and no
    table-sized allocation.
    """
    R, C = shape
    if seed_rows.size == 0:
        return Cone.empty()
    offsets = forward_offsets(contributing)
    down_js = [dj for di, dj in offsets if di == 1]
    if (0, 1) in offsets:
        li, lj = _suffix_closure(down_js, seed_rows, seed_cols, R, C, max_cells)
    else:
        li, lj = _row_sweep(down_js, seed_rows, seed_cols, R, C, max_cells)
    t = np.asarray(schedule.iteration_of(li, lj), dtype=np.int64)
    pos = np.asarray(schedule.position_of(li, lj), dtype=np.int64)
    order = np.lexsort((pos, t))
    t = t[order]
    bounds = np.concatenate(([0], np.flatnonzero(t[1:] != t[:-1]) + 1,
                             [t.size]))
    return Cone(li[order], lj[order], bounds)


def _too_large(max_cells: int, row: int) -> DeltaUnsupported:
    return DeltaUnsupported(f"cone-too-large: > {max_cells} cells by row {row}")


def _suffix_closure(down_js, seed_rows, seed_cols, R, C, max_cells):
    """Closed-form closure for contributing sets that include W.

    The W vector's rightward propagation makes every cone row a suffix
    ``[L_r, C)``, and a down vector ``(+1, dj)`` shifts a suffix to
    ``[L + dj, C)`` clipped to the table, so
    ``L_r = min(L_{r-1} + m, s_r)`` with ``m`` the smallest down shift and
    ``s_r`` the first seed column of row ``r`` (``C``, i.e. empty, when
    there is none).  Substituting ``U_r = L_r - m*r`` turns the recurrence
    into one ``minimum.accumulate``.  Clipping at 0 afterwards equals
    clipping at every step, and ``L_r`` never exceeds ``C`` because a
    seedless row carries ``s_r = C``.  When ``C == 1`` the NE shift
    ``(+1, -1)`` leaves the table and is dropped.
    """
    r0 = int(seed_rows.min())
    n = R - r0
    first = np.full(n, C, dtype=np.int64)
    np.minimum.at(first, seed_rows - r0, seed_cols)
    shifts = [dj for dj in down_js if not (dj == -1 and C == 1)]
    if shifts:
        step = np.arange(n, dtype=np.int64) * min(shifts)
        left = np.minimum.accumulate(first - step) + step
        np.maximum(left, 0, out=left)
    else:
        left = first
    width = C - left
    if max_cells is not None:
        running = np.cumsum(width)
        if running[-1] > max_cells:
            row = r0 + int(np.searchsorted(running, max_cells, side="right"))
            raise _too_large(max_cells, row)
    keep = np.flatnonzero(width)
    left, width = left[keep], width[keep]
    starts = np.cumsum(width) - width
    li = np.repeat(keep + r0, width)
    lj = np.arange(li.size, dtype=np.int64) + np.repeat(left - starts, width)
    return li, lj


def _row_sweep(down_js, seed_rows, seed_cols, R, C, max_cells):
    """Closure for contributing sets without W: one sweep down the rows.

    Every forward vector steps exactly one row, so row ``r`` is the union
    of shifted copies of row ``r - 1`` plus its own seeds, built in two
    reused row buffers.
    """
    order = np.argsort(seed_rows, kind="stable")
    si, sj = seed_rows[order], seed_cols[order]
    row_ids = np.unique(si)
    starts = np.searchsorted(si, row_ids)
    ends = np.append(starts[1:], si.size)

    rows_touched: list[tuple[int, np.ndarray]] = []
    cone_cells = 0
    last_seed_row = int(row_ids[-1])
    cur = np.empty(C, dtype=bool)
    prev = np.empty(C, dtype=bool)
    have_prev = False
    seed_ptr = 0
    for r in range(int(row_ids[0]), R):
        cur[:] = False
        if have_prev:
            for dj in down_js:
                if dj == 0:
                    cur |= prev
                elif dj == 1:
                    cur[1:] |= prev[:-1]
                else:  # dj == -1 (the NE vector)
                    cur[:-1] |= prev[1:]
        if seed_ptr < row_ids.size and row_ids[seed_ptr] == r:
            cur[sj[starts[seed_ptr]:ends[seed_ptr]]] = True
            seed_ptr += 1
        cols = np.flatnonzero(cur)
        if cols.size == 0:
            if r >= last_seed_row:
                break
            have_prev = False
            continue
        rows_touched.append((r, cols))
        cone_cells += int(cols.size)
        if max_cells is not None and cone_cells > max_cells:
            raise _too_large(max_cells, r)
        cur, prev = prev, cur
        have_prev = True

    li = np.concatenate([
        np.full(cols.size, r, dtype=np.int64) for r, cols in rows_touched
    ])
    lj = np.concatenate([cols for _, cols in rows_touched])
    return li, lj
