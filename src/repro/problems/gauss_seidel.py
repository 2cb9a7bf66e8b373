"""A Gauss-Seidel relaxation sweep as an LDDP-Plus problem.

The paper stresses that LDDP-Plus covers *non-DP* local-dependency
computations (its dithering case study is one). Here is the numerical-PDE
classic: one in-order Gauss-Seidel sweep for the 2-D Poisson equation

    -(u_xx + u_yy) = f    on a unit square, Dirichlet boundary

updates interior points in raster order from the *new* west/north values and
the *old* east/south values::

    u'[i,j] = ( u'[i,j-1] + u'[i-1,j] + u[i,j+1] + u[i+1,j] + h^2 f[i,j] ) / 4

The new-value reads are {W, N} — anti-diagonal pattern (Table I row 10);
the old-value reads come from the previous iterate, carried in the payload.
The familiar "wavefront parallel Gauss-Seidel" is literally the paper's
anti-diagonal strategy.
"""

from __future__ import annotations

import numpy as np

from ..core.problem import LDDPProblem
from ..types import ContributingSet

__all__ = ["make_gauss_seidel_sweep", "reference_gs_sweep", "gs_solve", "residual"]


def _init(table: np.ndarray, payload) -> None:
    old = payload["old"]
    table[0, :] = old[0, :]
    table[:, 0] = old[:, 0]
    # trailing boundary is never computed (fixed_rows/cols only cover the
    # leading edges); write it up front — the sweep range excludes it
    table[-1, :] = old[-1, :]
    table[:, -1] = old[:, -1]


def _cell(ctx) -> np.ndarray:
    old, h2f = ctx.payload["old"], ctx.payload["h2f"]
    rows, cols = old.shape
    # the last row/column belong to the boundary: leave them untouched
    # (east/south reads are clipped so the boundary batch stays in range)
    interior = (ctx.i < rows - 1) & (ctx.j < cols - 1)
    east = old[ctx.i, np.minimum(ctx.j + 1, cols - 1)]
    south = old[np.minimum(ctx.i + 1, rows - 1), ctx.j]
    updated = 0.25 * (ctx.w + ctx.n + east + south + h2f[ctx.i, ctx.j])
    return np.where(interior, updated, old[ctx.i, ctx.j])


def make_gauss_seidel_sweep(
    old: np.ndarray,
    h2f: np.ndarray,
    name: str = "gauss-seidel-sweep",
) -> LDDPProblem:
    """One GS sweep over the interior of ``old`` (boundary rows/cols fixed).

    ``old`` is the previous iterate *including* its Dirichlet boundary;
    ``h2f`` is ``h^2 * f`` on the same grid. The resulting table is the next
    iterate (boundary copied through by ``init``).
    """
    if old.shape != h2f.shape:
        raise ValueError("old and h2f shapes differ")
    if min(old.shape) < 3:
        raise ValueError("need at least one interior point")
    return LDDPProblem(
        name=name,
        shape=old.shape,
        contributing=ContributingSet.of("W", "N"),
        cell=_cell,
        init=_init,
        fixed_rows=1,
        fixed_cols=1,
        dtype=np.dtype(np.float64),
        payload={"old": old, "h2f": h2f},
        cpu_work=1.1,
        gpu_work=1.4,
    )


def reference_gs_sweep(old: np.ndarray, h2f: np.ndarray) -> np.ndarray:
    """Scalar raster-order Gauss-Seidel sweep, for tests."""
    u = old.copy()
    rows, cols = u.shape
    for i in range(1, rows - 1):
        for j in range(1, cols - 1):
            u[i, j] = 0.25 * (
                u[i, j - 1] + u[i - 1, j] + old[i, j + 1] + old[i + 1, j]
                + h2f[i, j]
            )
    return u


def residual(u: np.ndarray, h2f: np.ndarray) -> float:
    """Max-norm residual of the 5-point Poisson system on the interior."""
    r = (
        4 * u[1:-1, 1:-1]
        - u[1:-1, :-2]
        - u[1:-1, 2:]
        - u[:-2, 1:-1]
        - u[2:, 1:-1]
        - h2f[1:-1, 1:-1]
    )
    return float(np.abs(r).max())


def gs_solve(
    framework,
    h2f: np.ndarray,
    boundary: np.ndarray,
    sweeps: int = 50,
    executor: str = "hetero",
) -> tuple[np.ndarray, list[float]]:
    """Iterate GS sweeps through the framework; returns (solution, residuals)."""
    u = boundary.copy()
    history: list[float] = []
    for k in range(sweeps):
        problem = make_gauss_seidel_sweep(u, h2f, name=f"gs-sweep-{k}")
        u = framework.solve(problem, executor=executor).table
        history.append(residual(u, h2f))
    return u, history
