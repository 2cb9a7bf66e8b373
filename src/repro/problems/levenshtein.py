"""Levenshtein (edit) distance — the paper's anti-diagonal case study (VI-A).

Recurrence (Wagner-Fischer)::

    d[i][j] = d[i-1][j-1]                      if a[i] == b[j]
            = 1 + min(d[i-1][j], d[i][j-1], d[i-1][j-1])   otherwise

Contributing set {W, NW, N} -> anti-diagonal pattern (Table I row 14).
The ``(m+1) x (n+1)`` table has its first row/column fixed to ``j``/``i``.
"""

from __future__ import annotations

import numpy as np

from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..types import ContributingSet

__all__ = ["make_levenshtein", "levenshtein_cell", "reference_levenshtein"]


def levenshtein_cell(ctx: EvalContext) -> np.ndarray:
    """Vectorized Wagner-Fischer update over one batch of cells."""
    a = ctx.payload["a"]
    b = ctx.payload["b"]
    # mismatch bool adds 0/1 directly; min(n, w) + 1 == min(n+1, w+1)
    substitute = ctx.nw + (a[ctx.i - 1] != b[ctx.j - 1])
    return np.minimum(np.minimum(ctx.n, ctx.w) + 1, substitute)


def _init(table: np.ndarray, payload) -> None:
    table[0, :] = np.arange(table.shape[1])
    table[:, 0] = np.arange(table.shape[0])


def make_levenshtein(
    m: int,
    n: int | None = None,
    alphabet: int = 4,
    seed: int = 0,
    materialize: bool = True,
    dtype=np.int32,
) -> LDDPProblem:
    """Edit distance between two random sequences of lengths ``m`` and ``n``.

    ``materialize=False`` skips sequence allocation (estimate-only problem).
    """
    n = m if n is None else n
    if materialize:
        rng = np.random.default_rng(seed)
        payload = {
            "a": rng.integers(0, alphabet, m, dtype=np.int8),
            "b": rng.integers(0, alphabet, n, dtype=np.int8),
        }
        init = _init
    else:
        payload = {"_nbytes_hint": m + n}
        init = None
    return LDDPProblem(
        name=f"levenshtein-{m}x{n}",
        shape=(m + 1, n + 1),
        contributing=ContributingSet.of("W", "NW", "N"),
        cell=levenshtein_cell,
        init=init,
        fixed_rows=1,
        fixed_cols=1,
        dtype=np.dtype(dtype),
        payload=payload,
        estimate_only=not materialize,
        cpu_work=1.0,
        gpu_work=1.5,  # data-dependent branching diverges on the GPU
        payload_locality={"a": ("row", 1), "b": ("col", 1)},
    )


def reference_levenshtein(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-vectorized Wagner-Fischer reference table, for tests and benches.

    Shares no code with the cell function or the executors. Row ``i`` first
    takes ``min(N + 1, NW + mismatch)`` for every column, then closes the
    W chain ``d[i][j] = min(tmp[j], d[i][j-1] + 1)`` in one pass:
    ``min_{k<=j}(tmp[k] + j - k)`` is ``np.minimum.accumulate(tmp - j) + j``.
    """
    m, n = len(a), len(b)
    j = np.arange(n + 1)
    d = np.empty((m + 1, n + 1), dtype=np.int64)
    d[0] = j
    tmp = np.empty(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        prev = d[i - 1]
        tmp[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (a[i - 1] != b), out=tmp[1:])
        d[i] = np.minimum.accumulate(tmp - j) + j
    return d
