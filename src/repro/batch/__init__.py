"""Batched multi-instance solving: many compatible tables, one sweep.

The paper's wavefront schedules are data-independent, so same-shape,
same-pattern instances march in lockstep. This subsystem exploits that for
throughput: :class:`BatchPlanner` groups batch-compatible requests (content
keys from :mod:`repro.signature`, payload bytes excluded — see
:func:`batch_key`), and :func:`execute_items` sweeps each group over one
C-contiguous ``(B, rows, cols)`` stack with one schedule, one cached
:class:`~repro.kernels.KernelPlan` and one shared timing model — a single
cell call per wavefront when payloads are identical (*stacked* tier), a
per-instance call over the shared stack otherwise (*swept* tier).

Entry points: ``Framework.solve_many`` / :func:`repro.solve_many` for
programmatic fleets, ``ServiceConfig(coalesce_window=...)`` on a
``SolveService`` for transparent request coalescing in the serve layer, and
``repro-lddp batch`` on the CLI. Results are bit-identical to per-instance
solves; per-item deadlines, cancellation, degradation and the
``batch.execute`` fault site are honored throughout. See ``docs/batching.md``.
"""

from .executor import execute_group, execute_items
from .planner import (
    BatchGroup,
    BatchItem,
    BatchPlanner,
    batch_key,
    payload_fingerprint,
)

__all__ = [
    "BatchPlanner",
    "BatchGroup",
    "BatchItem",
    "batch_key",
    "payload_fingerprint",
    "execute_group",
    "execute_items",
]
