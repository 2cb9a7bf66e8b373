"""Needleman-Wunsch global sequence alignment (linear gap penalty).

Recurrence::

    F[i][j] = max( F[i-1][j-1] + s(a[i], b[j]),
                   F[i-1][j]   + gap,
                   F[i][j-1]   + gap )

Contributing set {W, NW, N} -> anti-diagonal pattern. Row/column 0 hold the
cumulative gap penalties.
"""

from __future__ import annotations

import numpy as np

from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..types import ContributingSet

__all__ = ["make_needleman_wunsch", "nw_cell"]


def nw_cell(ctx: EvalContext) -> np.ndarray:
    a = ctx.payload["a"]
    b = ctx.payload["b"]
    match_score = ctx.payload["match"]
    mismatch = ctx.payload["mismatch"]
    gap = ctx.payload["gap"]
    s = np.where(a[ctx.i - 1] == b[ctx.j - 1], match_score, mismatch)
    return np.maximum(np.maximum(ctx.nw + s, ctx.n + gap), ctx.w + gap)


def _init(table: np.ndarray, payload) -> None:
    table[0, :] = payload["gap"] * np.arange(table.shape[1])
    table[:, 0] = payload["gap"] * np.arange(table.shape[0])


def make_needleman_wunsch(
    m: int,
    n: int | None = None,
    alphabet: int = 4,
    match: int = 1,
    mismatch: int = -1,
    gap: int = -2,
    seed: int = 0,
    materialize: bool = True,
) -> LDDPProblem:
    """Global alignment score table for two random sequences."""
    n = m if n is None else n
    if materialize:
        rng = np.random.default_rng(seed)
        payload = {
            "a": rng.integers(0, alphabet, m, dtype=np.int8),
            "b": rng.integers(0, alphabet, n, dtype=np.int8),
            "match": match,
            "mismatch": mismatch,
            "gap": gap,
        }
    else:
        payload = {"_nbytes_hint": m + n}
    return LDDPProblem(
        name=f"needleman-wunsch-{m}x{n}",
        shape=(m + 1, n + 1),
        contributing=ContributingSet.of("W", "NW", "N"),
        cell=nw_cell,
        init=_init if materialize else None,
        fixed_rows=1,
        fixed_cols=1,
        dtype=np.dtype(np.int32),
        payload=payload,
        estimate_only=not materialize,
        cpu_work=1.2,
        gpu_work=1.6,
        payload_locality={"a": ("row", 1), "b": ("col", 1)},
    )
