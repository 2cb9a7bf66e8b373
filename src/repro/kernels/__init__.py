"""Compiled kernel plans: the functional core's slice-based fast path.

``evaluate_span`` (:mod:`repro.exec.base`) dispatches every wavefront span
through this subsystem: a :class:`KernelPlan` — compiled once per (pattern,
contributing set, region shape, origin, dtype, oob value) and cached in a
content-keyed LRU — replaces the generic gather/scatter with precomputed
strided views, interior/boundary splits and a reusable scratch arena. See
``docs/performance.md`` for the design and the measured speedups
(``BENCH_kernels.json``).

Every plan also carries a batched twin of each span spec: given a stack of
``B`` same-shape tables, :meth:`KernelPlan.execute_batch` applies one
wavefront to all ``B`` instances with a leading batch axis on every view
and buffer — the stacked tier of :mod:`repro.batch` (``docs/batching.md``).
"""

from .cache import PlanCache, clear_plan_cache, get_plan_cache, plan_for
from .key import PlanKey
from .plan import KernelPlan, evaluate_cells, generic_span, read_geometry

__all__ = [
    "KernelPlan",
    "PlanKey",
    "PlanCache",
    "plan_for",
    "get_plan_cache",
    "clear_plan_cache",
    "generic_span",
    "evaluate_cells",
    "read_geometry",
]
