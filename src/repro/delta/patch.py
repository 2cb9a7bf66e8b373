"""The delta patch: copy the base table, replay only the invalidation cone.

``delta_patch`` is the orchestrator the serve layer calls on a near-match
cache probe.  It is deliberately *not* an executor: it produces a
:class:`repro.exec.SolveResult` whose table is bit-identical to what any
executor would compute fresh, by construction: it replays the cone in
ascending wavefront order over a copy of the base table whose only stale
cells are exactly the cone.  The replay skips the per-span dispatcher
(:func:`repro.exec.evaluate_span`): the cone is compiled once into flat
gather and scatter indices, and each wave is one gather -> cell -> scatter,
the same contract as the generic span path, so the values agree by
elementwise purity of the cell function.

The probe that finds the stale cells has two gears.  With a declared
``payload_locality`` the payload diff maps straight to a small candidate
set — probe cost tracks the *edit*, and a seeded spot-check outside the
candidates catches lying declarations.  Without one, a full-table probe
pass runs instead: still sound, but it costs about one fresh solve's worth
of cell evaluations, so declarations are what make the tier actually fast.

Degradation contract (mirrors :mod:`repro.scan`'s routing): any
inapplicability — aux outputs, structural payload drift, an oversized cone,
a locality violation, the ``delta.patch`` fault site — raises
:class:`repro.errors.DeltaUnsupported`; callers catch it and fall back to a
full solve, so a delta patch can make a request *slower* in the worst case
but never wrong.  Timeouts and cancellations always surface.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..errors import DeltaUnsupported
from ..exec.base import ExecOptions, SolveResult, check_control
from ..faults import check_fault
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from .cone import (
    Cone,
    candidate_mask,
    forward_cone,
    forward_offsets,
    probe_cells,
    probe_seeds,
    verify_locality,
)
from .diff import payload_diff
from .timing import delta_timeline

__all__ = ["delta_applicable", "delta_patch"]


def delta_applicable(
    problem: LDDPProblem, options: ExecOptions | None = None
) -> str | None:
    """Why a delta patch cannot serve this problem, or ``None`` if it can.

    Cheap structural checks only — suitable for admission-time candidacy.
    The expensive checks (payload structure, cone size) happen inside
    :func:`delta_patch` and degrade at execution time instead.
    """
    if problem.aux_specs:
        # Aux planes are written in-place by the cell fn; a sound patch
        # would need base aux snapshots plus aux-aware seeding. Out of
        # scope — degrade.
        return "aux-outputs"
    if problem.cell is None:
        return "estimate-only"
    opts = options or ExecOptions()
    if not (0.0 < opts.delta_max_cone <= 1.0):
        return f"delta_max_cone out of range: {opts.delta_max_cone!r}"
    return None


def _cells_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise inequality with NaN == NaN, for boundary diffing."""
    neq = np.asarray(a != b)
    if a.dtype.kind == "f":
        neq = neq & ~(np.isnan(a) & np.isnan(b))
    return neq


def _replay(problem: LDDPProblem, flat: np.ndarray, cone: Cone,
            opts: ExecOptions) -> int:
    """Recompute the cone's cells wave by wave in ``flat``; returns the count.

    Destination and per-neighbour gather indices are computed once for the
    whole cone, with out-of-table reads pointing at the sentinel slot
    ``flat[-1]``, which then holds ``oob_value`` (stored only when some
    read needs it, like ``gather_neighbors``, so the cast fails exactly
    when a fresh solve's would).  Each wave is then ``generic_span``'s
    gather -> cell -> scatter contract on flat indices: one ``take`` per
    neighbour, one cell call, one scatter.  Cells of one wave never read
    each other, so the values equal the span dispatcher's by elementwise
    purity.
    """
    rows, cols = problem.shape
    gi = cone.rows + problem.fixed_rows
    gj = cone.cols + problem.fixed_cols
    dest = gi * cols + gj
    reads = {}
    for nb in problem.contributing:
        di, dj = nb.offset
        ni, nj = gi + di, gj + dj
        idx = dest + (di * cols + dj)
        outside = (ni < 0) | (ni >= rows) | (nj < 0) | (nj >= cols)
        if outside.any():
            idx[outside] = flat.size - 1
            flat[-1] = problem.oob_value
        reads[nb.value.lower()] = idx
    what = f"delta patch of {problem.name!r}"
    payload = problem.payload
    cell = problem.cell
    bounds = cone.bounds.tolist()
    done = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        check_control(opts, what)
        check_fault("exec.span")
        neigh = {name: flat.take(idx[s:e]) for name, idx in reads.items()}
        ctx = EvalContext(i=gi[s:e], j=gj[s:e], payload=payload, aux={},
                          **neigh)
        flat[dest[s:e]] = cell(ctx)
        done += e - s
    return done


def delta_patch(
    problem: LDDPProblem,
    base_payload: Mapping[str, Any],
    base_result: SolveResult,
    *,
    platform,
    options: ExecOptions | None = None,
    executor: str = "hetero",
) -> SolveResult:
    """Patch ``base_result`` into the solve of ``problem``, bit-identically.

    ``base_payload`` is the payload snapshot stored with the base entry;
    ``base_result`` its (frozen) result — the table is copied, never
    mutated.  ``executor`` only labels the result; the table does not
    depend on it.  Raises :class:`DeltaUnsupported` when patching is not
    applicable or the cone exceeds ``options.delta_max_cone`` of the
    computed region; raises ``ServiceTimeout`` / ``SolveCancelled`` per the
    options' controls, checked every cone wavefront like any executor.
    """
    opts = options or ExecOptions()
    reason = delta_applicable(problem, opts)
    if reason is not None:
        raise DeltaUnsupported(reason)
    if base_result.table is None:
        raise DeltaUnsupported("base-has-no-table")
    if base_result.table.shape != problem.shape:
        raise DeltaUnsupported(
            f"base-shape-mismatch: {base_result.table.shape} != "
            f"{problem.shape}"
        )
    problem.require_solvable()
    check_control(opts, f"delta patch of {problem.name!r}")
    check_fault("delta.patch")
    metrics = get_metrics()
    with get_tracer().span("delta.patch", problem=problem.name):
        diff = payload_diff(base_payload, problem.payload)
        strategy = strategy_for(
            problem,
            pattern_override=opts.pattern_override,
            inverted_l_as_horizontal=opts.inverted_l_as_horizontal,
        )
        schedule = strategy.schedule
        rows, cols = problem.shape
        # The patched table lives in a flat buffer with one trailing
        # sentinel slot for the replay's out-of-table reads.
        flat = np.empty(rows * cols + 1, dtype=base_result.table.dtype)
        table = flat[:-1].reshape(rows, cols)
        table[...] = base_result.table
        fr, fc = problem.fixed_rows, problem.fixed_cols
        if diff["edited_entries"] == 0:
            # Byte-identical payload (the request differed only in name or
            # options hash): the base table already *is* the answer.
            cone = Cone.empty()
            seeds = probed = 0
            probe = "none"
        else:
            bi = bj = np.empty(0, dtype=np.int64)
            if fr or fc:
                # init() depends on the payload — refresh the fixed
                # boundary before probing, and remember which boundary
                # cells moved so their forward successors can seed the
                # cone on the locality path.  The diff runs on the
                # boundary slices only, never a full-table mask.
                old_top = table[:fr, :].copy() if fr else None
                old_left = table[:, :fc].copy() if fc else None
                fresh = problem.make_table()
                parts = []
                if fr:
                    table[:fr, :] = fresh[:fr, :]
                    parts.append(np.nonzero(_cells_differ(old_top,
                                                          table[:fr, :])))
                if fc:
                    table[:, :fc] = fresh[:, :fc]
                    mi, mj = np.nonzero(_cells_differ(old_left,
                                                      table[:, :fc]))
                    if fr:  # drop the corner overlap already covered above
                        keep = mi >= fr
                        mi, mj = mi[keep], mj[keep]
                    parts.append((mi, mj))
                bi = np.concatenate([p[0] for p in parts])
                bj = np.concatenate([p[1] for p in parts])
            cand = candidate_mask(problem, diff["changed"])
            if cand is None:
                probe = "global"
                si, sj = np.nonzero(probe_seeds(problem, table))
                probed = problem.total_computed_cells
            else:
                probe = "locality"
                mask, gi, gj = cand
                if bi.size:
                    succ = []
                    for di, dj in forward_offsets(problem.contributing):
                        ni, nj = bi + di, bj + dj
                        ok = (ni >= 0) & (ni < rows) & (nj >= 0) & (nj < cols)
                        succ.append((ni[ok], nj[ok]))
                    si = np.concatenate([s[0] for s in succ])
                    sj = np.concatenate([s[1] for s in succ])
                    mask[si, sj] = True
                    gi = np.concatenate([gi, si])
                    gj = np.concatenate([gj, sj])
                keep = (gi >= fr) & (gj >= fc)
                gi, gj = gi[keep], gj[keep]
                hit = probe_cells(problem, table, gi, gj)
                probed = int(gi.size)
                probed += verify_locality(problem, table, mask)
                si, sj = gi[hit] - fr, gj[hit] - fc
            seeds = int(si.size)
            max_cells = int(opts.delta_max_cone * problem.total_computed_cells)
            cone = forward_cone(
                schedule, problem.contributing, si, sj,
                problem.computed_shape, max_cells=max_cells,
            )
        recomputed = _replay(problem, flat, cone, opts)
        cone_cells, waves = cone.cells, cone.waves
        if recomputed != cone_cells:
            raise DeltaUnsupported(
                f"cone accounting mismatch: recomputed {recomputed} != "
                f"cone {cone_cells}"
            )
        metrics.counter("delta.patched").inc()
        total = problem.total_computed_cells
        timeline = delta_timeline(
            problem, platform, cone_cells, waves, probed_cells=probed
        )
        stats: dict[str, Any] = {
            "solver": "delta",
            "delta_probe": probe,
            "delta_probed_cells": probed,
            "delta_seeds": seeds,
            "delta_cone_cells": cone_cells,
            "delta_recomputed_cells": recomputed,
            "delta_cone_fraction": (cone_cells / total) if total else 0.0,
            "delta_waves": waves,
            "delta_edited_entries": diff["edited_entries"],
            "delta_edited_elements": diff["edited_elements"],
        }
        return SolveResult(
            problem=problem.name,
            executor=executor,
            pattern=schedule.pattern,
            simulated_time=timeline.makespan,
            table=table,
            aux={},
            timeline=timeline,
            stats=stats,
        )
