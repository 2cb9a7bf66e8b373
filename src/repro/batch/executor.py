"""Stacked batch execution: one schedule sweep fills many tables.

A planned :class:`~repro.batch.planner.BatchGroup` executes as follows:

1. **One timing model.** Batch-compatible instances are indistinguishable to
   the machine models (same geometry, work factors, payload bytes), so the
   simulated makespan, timeline and ledger are computed once on a
   representative instance via ``Framework.estimate`` — inheriting the
   heterogeneous split, autotuned params and CPU-only degradation semantics
   unchanged — and shared by every result in the group.
2. **One stack.** Functional groups allocate a single C-contiguous
   ``(B, rows, cols)`` stack; each layer is initialised by its instance's
   ``init``. Layers are C-contiguous 2-D views, so the *same* cached
   :class:`~repro.kernels.KernelPlan` the per-instance executors compile is
   reused verbatim (one plan-cache entry for the whole fleet).
3. **One sweep.** Wavefronts run in schedule order exactly once for the
   whole group. Groups whose payload bytes are identical (and aux-free) take
   the *stacked* tier — :meth:`~repro.kernels.KernelPlan.execute_batch`
   issues a single cell-function call per wavefront over the batch axis.
   Otherwise the *swept* tier calls the cell function once per instance per
   wavefront, still through the shared compiled span specs.
4. **Per-item control.** Every wavefront re-checks the deadline and cancel
   token of each instance's options (``item.options`` or the framework's):
   an expired or cancelled instance leaves the sweep with
   :class:`~repro.errors.ServiceTimeout` / :class:`~repro.errors.SolveCancelled`
   while its batch-mates continue. A per-instance execution error likewise
   removes only that instance.

Tables are bit-identical to per-instance solves: both tiers evaluate full
wavefronts through the same functional core contract (elementwise-pure cell
functions over schedule-ordered spans) that already makes all seven
executors agree bit-for-bit.

``batch.execute`` is a fault-injection site (see :mod:`repro.faults`): an
injected failure — or any group-level setup failure — degrades the group to
per-instance ``Framework`` runs (``batch.degraded``, and a ``batch`` entry in
each result's ``stats["route"]``), never to a crash.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core.framework import Framework
from ..errors import ServiceTimeout, SolveCancelled
from ..exec.base import ExecOptions, SolveResult
from ..faults import PASSTHROUGH, check_fault, degrade, record
from ..kernels import generic_span, plan_for
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from .planner import BatchGroup, BatchItem

__all__ = ["execute_group", "execute_items"]

Outcome = "SolveResult | BaseException"


def execute_items(
    items: list[BatchItem], framework: Framework
) -> list["SolveResult | BaseException"]:
    """Execute one batch-compatible group; one outcome per item, in order.

    Items must share one :func:`~repro.batch.planner.batch_key` (the planner
    guarantees this). Returns a :class:`SolveResult` or the exception that
    stopped that instance — this function never raises for per-instance
    failures, so callers (the serve coalescer, ``solve_many``) decide their
    own retry policy.
    """
    return execute_group(BatchGroup(items[0].key, list(items)), framework)


def execute_group(
    group: BatchGroup, framework: Framework
) -> list["SolveResult | BaseException"]:
    """Run a planned group; see :func:`execute_items` for the contract."""
    items = group.items
    size = len(items)
    metrics = get_metrics()
    metrics.counter("batch.groups").inc()
    metrics.counter("batch.instances").inc(size)
    metrics.histogram("batch.size").observe(size)
    if size == 1:
        return [_solo_outcome(items[0], framework)]
    try:
        check_fault("batch.execute")
        return _execute_stack(group, framework)
    except Exception as exc:
        # The batch layer is an optimization, never a requirement: any
        # group-level failure (injected fault, estimate error, allocation)
        # degrades to per-instance runs with full Framework semantics.
        reason = degrade("batch", exc, counters=("batch.degraded",),
                         problem=items[0].problem.name)
    outcomes = [_solo_outcome(item, framework) for item in items]
    for outcome in outcomes:
        if isinstance(outcome, SolveResult):
            record(outcome.stats, "batch", "per-instance", reason)
    return outcomes


def _solo_outcome(item: BatchItem, framework: Framework):
    try:
        return _solo(item, framework)
    except BaseException as exc:  # noqa: BLE001 - outcome, not control flow
        return exc


def _solo(item: BatchItem, framework: Framework) -> SolveResult:
    """One per-instance Framework run; the item's options carry its control."""
    run = framework.solve if item.functional else framework.estimate
    return run(item.problem, executor=item.executor, params=item.params,
               options=item.options)


def _expired(item: BatchItem, options: ExecOptions,
             now: float) -> BaseException | None:
    """The control-plane exception for ``item`` at time ``now``, if any."""
    token = options.cancel_token
    if token is not None and token.cancelled():
        return SolveCancelled(
            f"batched solve of {item.problem.name!r} cancelled by its token"
        )
    if options.deadline is not None and now >= options.deadline:
        return ServiceTimeout(
            f"batched solve of {item.problem.name!r} exceeded its deadline "
            "mid-batch"
        )
    return None


def _execute_stack(
    group: BatchGroup, framework: Framework
) -> list["SolveResult | BaseException"]:
    items = group.items
    size = len(items)
    rep = items[0]
    controls = [item.options or framework.options for item in items]
    options = controls[0]
    metrics = get_metrics()
    tracer = get_tracer()

    # Shared timing model: run once, deadline-free (per-item deadlines are
    # enforced wavefront by wavefront below), then replicated per result.
    est_options = options
    if options.deadline is not None or options.cancel_token is not None:
        est_options = options.replace(deadline=None, cancel_token=None)
    est = framework.estimate(rep.problem, executor=rep.executor,
                             params=rep.params, options=est_options)

    outcomes: list["SolveResult | BaseException | None"] = [None] * size
    if not rep.functional:
        now = time.monotonic()
        for k, item in enumerate(items):
            stopped = _expired(item, controls[k], now)
            outcomes[k] = stopped if stopped is not None else _replicate(
                est, item, size, "estimate")
        return outcomes  # type: ignore[return-value]

    strategy = strategy_for(
        rep.problem,
        pattern_override=options.pattern_override,
        inverted_l_as_horizontal=options.inverted_l_as_horizontal,
    )
    schedule = strategy.schedule
    plan = (
        plan_for(rep.problem, schedule) if options.kernel_fastpath else None
    )
    stacked = plan is not None and group.stackable()
    mode = "stacked" if stacked else "swept"
    metrics.counter(f"batch.{mode}").inc()

    stack = np.zeros((size,) + rep.problem.shape, dtype=rep.problem.dtype)
    auxes = []
    for k, item in enumerate(items):
        if item.problem.init is not None:
            item.problem.init(stack[k], item.problem.payload)
        auxes.append(item.problem.make_aux())

    orow = rep.problem.fixed_rows
    ocol = rep.problem.fixed_cols
    widths = schedule.widths()
    active = list(range(size))
    control = any(
        c.deadline is not None or c.cancel_token is not None for c in controls
    )
    with tracer.span(
        "batch.group", cat="batch", size=size, mode=mode,
        pattern=schedule.pattern.value, problem=rep.problem.name,
    ):
        for t in range(schedule.num_iterations):
            if control:
                now = time.monotonic()
                for k in list(active):
                    stopped = _expired(items[k], controls[k], now)
                    if stopped is not None:
                        outcomes[k] = stopped
                        active.remove(k)
            if not active:
                break
            width = int(widths[t])
            if width == 0:
                continue
            if stacked and len(active) == size:
                try:
                    plan.execute_batch(rep.problem, stack, t)
                    continue
                except Exception:
                    # The stacked tier declined (guard, injected fault, cell
                    # error): re-run this wavefront per instance — pure cell
                    # functions make the re-execution value-identical.
                    metrics.counter("batch.stacked_fallback").inc()
                    stacked = False
            for k in list(active):
                item = items[k]
                try:
                    _run_span(plan, item.problem, schedule, stack[k],
                              auxes[k], t, width, orow, ocol)
                except Exception as exc:  # noqa: BLE001 - per-item outcome
                    outcomes[k] = exc
                    active.remove(k)

    for k in active:
        result = _replicate(est, items[k], size, mode)
        result.table = stack[k]
        result.aux = auxes[k]
        outcomes[k] = result
    return outcomes  # type: ignore[return-value]


def _run_span(plan, problem, schedule, table, aux, t, width, orow, ocol):
    """One full wavefront for one instance, mirroring ``evaluate_span``.

    A *failing* plan degrades to the generic path (``kernels.plan.degraded``)
    rather than failing the instance; user cell-function errors re-raise
    from the generic path exactly as in the per-instance dispatcher.
    """
    if plan is not None:
        try:
            done, fast = plan.execute(problem, table, aux, t, 0, width)
        except PASSTHROUGH:
            raise
        except Exception:
            get_metrics().counter("kernels.plan.degraded").inc()
        else:
            key = "kernels.span.fast" if fast else "kernels.span.generic"
            get_metrics().counter(key).inc()
            return done
    get_metrics().counter("kernels.span.generic").inc()
    return generic_span(problem, schedule, table, aux, t, 0, width, orow, ocol)


def _replicate(est: SolveResult, item: BatchItem, size: int,
               mode: str) -> SolveResult:
    """Per-item result carrying the shared timing model's numbers."""
    stats = dict(est.stats)
    stats["batched"] = size
    stats["batch_mode"] = mode
    return replace(est, problem=item.problem.name, table=None, aux={},
                   stats=stats)
