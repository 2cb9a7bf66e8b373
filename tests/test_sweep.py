"""Differential matrix for the shared wavefront-major sweep.

``cpu-wavefront-major`` and the streaming solver both run
:func:`repro.exec.streaming.sweep`, which reads every computed-region
neighbour ``delta`` wavefronts back (``_DELTAS``) at its canonical position,
and every fixed-boundary neighbour from one packed boundary vector. Every
contributing set is run under every pattern that may execute it, on 1xN and
Nx1 regions and with 0-2 fixed rows/columns, against the ``sequential``
oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ContributingSet, ExecOptions, Framework, Pattern, hetero_high
from repro.core.problem import LDDPProblem, _compatible
from repro.exec.layout_exec import WavefrontMajorExecutor
from repro.exec.streaming import StreamingSolver

FW = Framework(hetero_high())

#: (computed rows, computed cols, fixed_rows, fixed_cols)
SHAPES = (
    (1, 7, 0, 0), (7, 1, 0, 0), (1, 6, 1, 2), (6, 1, 2, 1),
    (5, 8, 0, 0), (8, 5, 1, 1), (6, 9, 2, 0), (9, 6, 0, 2), (7, 7, 2, 2),
)

CASES = [
    (mask, pattern, shape)
    for mask in range(1, 16)
    for pattern in Pattern
    if _compatible(ContributingSet.from_mask(mask), pattern)
    for shape in SHAPES
]


def _cell(ctx):
    """Weights every neighbour distinctly, so a misrouted read shows."""
    acc = ctx.i * 7 + ctx.j * 13
    for k, nb in enumerate((ctx.w, ctx.nw, ctx.n, ctx.ne)):
        if nb is not None:
            acc = acc + (k + 2) * nb
    return acc % 1_000_003


def _init(table, payload):
    rows, cols = table.shape
    fr, fc = payload["fixed"]
    table[:fr, :] = np.add.outer(np.arange(fr) * 31, np.arange(cols) * 17) + 5
    table[:, :fc] = np.add.outer(np.arange(rows) * 19, np.arange(fc) * 23) + 11


def _problem(mask, rows, cols, fr, fc) -> LDDPProblem:
    return LDDPProblem(
        name=f"sweep-{mask:02d}-{rows}x{cols}+{fr}x{fc}",
        shape=(rows + fr, cols + fc),
        contributing=ContributingSet.from_mask(mask),
        cell=_cell,
        init=_init,
        fixed_rows=fr,
        fixed_cols=fc,
        dtype=np.dtype(np.int64),
        payload={"fixed": (fr, fc)},
        oob_value=3,
    )


@pytest.mark.parametrize(
    "mask,pattern,shape", CASES,
    ids=[f"{m}-{p.value}-{'x'.join(map(str, s))}" for m, p, s in CASES],
)
def test_sweep_matches_sequential(mask, pattern, shape):
    problem = _problem(mask, *shape)
    oracle = FW.solve(problem, executor="sequential").table
    for fastpath in (True, False):
        opts = ExecOptions(pattern_override=pattern, kernel_fastpath=fastpath)
        table = WavefrontMajorExecutor(hetero_high(), opts).solve(problem).table
        assert np.array_equal(table, oracle), f"kernel_fastpath={fastpath}"
    s = StreamingSolver().solve(problem, pattern_override=pattern)
    assert np.array_equal(s.last_values, oracle[s.last_cells])
