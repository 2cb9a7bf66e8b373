"""Process-wide, thread-safe LRU cache of compiled kernel plans.

Lookups key on the raw plan-identity tuple (cheap per call: no hashing of
table bytes, no SHA); :meth:`KernelPlan.signature` provides the stable
content signature when one is needed. Hit/miss/compile/evict counts are
reported through :mod:`repro.obs` under ``kernels.plan.*``.

The cache is an accelerator, never a requirement: a plan that fails to
compile (or an injected ``kernels.plan`` fault) yields ``None`` — the caller
degrades to the generic span path — counted as ``kernels.plan.degraded``.
"""

from __future__ import annotations

from ..core.problem import LDDPProblem
from ..core.schedule import WavefrontSchedule
from ..errors import InjectedFault
from ..faults import check_fault
from ..lru import LRU
from ..obs import get_metrics
from .key import PlanKey
from .plan import KernelPlan

__all__ = [
    "PlanCache",
    "plan_for",
    "get_plan_cache",
    "clear_plan_cache",
]

#: Generous default: one entry per (pattern x geometry x dtype) combination
#: seen; blocked executors add one entry per distinct block origin.
DEFAULT_CAPACITY = 512


class PlanCache:
    """Bounded LRU of :class:`KernelPlan` keyed on plan identity."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._plans = LRU(capacity)

    capacity = property(lambda self: self._plans.capacity)
    hits = property(lambda self: self._plans.hits)
    misses = property(lambda self: self._plans.misses)

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop every plan and reset the counters."""
        self._plans = LRU(self._plans.capacity)

    def get(
        self,
        problem: LDDPProblem,
        schedule: WavefrontSchedule,
        origin: tuple[int, int] = (0, 0),
    ) -> KernelPlan | None:
        """The plan for ``problem`` solved under ``schedule``, or ``None``.

        ``origin`` is the offset of the schedule's region *within the
        computed region* (non-zero for tiled executors); the fixed boundary
        offset is added here. Returns ``None`` when no plan can apply (the
        region does not fit the table, or the identity is unhashable) — the
        caller then uses the generic path.
        """
        orow = problem.fixed_rows + origin[0]
        ocol = problem.fixed_cols + origin[1]
        rows, cols = problem.shape
        if (
            orow < 0 or ocol < 0
            or orow + schedule.rows > rows or ocol + schedule.cols > cols
        ):
            return None
        # raw identity tuple: only cheap hashables (the dtype *object*, not
        # its str() — numpy dtype formatting is surprisingly expensive)
        raw = (
            type(schedule), schedule.rows, schedule.cols,
            rows, cols, orow, ocol,
            problem.contributing.mask, problem.dtype, problem.oob_value,
        )
        try:
            hash(raw)
        except TypeError:
            return None

        metrics = get_metrics()
        try:
            check_fault("kernels.plan")
        except InjectedFault:
            # The plan cache is an accelerator, never a requirement: a
            # fault here means "no plan available" -> generic path.
            metrics.counter("kernels.plan.degraded").inc()
            return None
        plan = self._plans.get(raw)
        if plan is not None:
            metrics.counter("kernels.plan.hits").inc()
            return plan
        metrics.counter("kernels.plan.misses").inc()
        try:
            key = PlanKey(
                schedule_type=type(schedule).__name__,
                pattern=schedule.pattern.value,
                region=(schedule.rows, schedule.cols),
                table_shape=(rows, cols),
                origin=(orow, ocol),
                contributing_mask=problem.contributing.mask,
                dtype=str(problem.dtype),
                oob_value=problem.oob_value,
            )
            plan = KernelPlan(
                key, schedule, problem.contributing,
                (rows, cols), (orow, ocol), problem.dtype, problem.oob_value,
            )
        except Exception:
            # Compilation failure degrades to the generic span path rather
            # than failing the solve (the plan is only an optimization).
            metrics.counter("kernels.plan.degraded").inc()
            return None
        metrics.counter("kernels.plan.compiled").inc()
        # a lost compile race keeps the first plan
        plan, evicted = self._plans.put_if_absent(raw, plan)
        if evicted:
            metrics.counter("kernels.plan.evicted").inc(len(evicted))
        return plan


_PLAN_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache."""
    return _PLAN_CACHE


def clear_plan_cache() -> None:
    """Drop every cached plan (tests, memory pressure)."""
    _PLAN_CACHE.clear()


def plan_for(
    problem: LDDPProblem,
    schedule: WavefrontSchedule,
    origin: tuple[int, int] = (0, 0),
) -> KernelPlan | None:
    """Convenience wrapper over :meth:`PlanCache.get` on the global cache."""
    return _PLAN_CACHE.get(problem, schedule, origin)
