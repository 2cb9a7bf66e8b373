"""The user-facing framework facade (paper Sec. III / V-C).

A user supplies an :class:`~repro.core.problem.LDDPProblem` (cell function +
initialization); :class:`Framework` classifies it, picks the execution
strategy, chooses or tunes the work-division parameters, and runs it on the
chosen executor over the configured platform.

>>> from repro import Framework, hetero_high
>>> fw = Framework(hetero_high())
>>> result = fw.solve(problem)            # heterogeneous by default
>>> result.table, result.simulated_ms

For the common one-shot case there is a module-level convenience that builds
the framework for you:

>>> import repro
>>> result = repro.solve(problem)         # default platform, hetero executor
"""

from __future__ import annotations

import time
from typing import Mapping

from ..cancel import CancelToken
from ..exec.base import (
    ExecOptions,
    Executor,
    SolveResult,
    executor_class,
    executor_names,
)
from ..errors import ExecutionError
from ..machine.platform import Platform, hetero_high
from ..types import Pattern
from .classification import classify
from .partition import HeteroParams
from .problem import LDDPProblem

__all__ = ["Framework", "SolveResult", "solve", "estimate", "solve_many"]


class Framework:
    """Ties platform, options and executors together."""

    def __init__(
        self,
        platform: Platform | None = None,
        options: ExecOptions | None = None,
    ) -> None:
        self.platform = platform or hetero_high()
        self.options = options or ExecOptions()

    # -- introspection ---------------------------------------------------------

    @staticmethod
    def classify(problem: LDDPProblem) -> Pattern:
        """Paper Table I: contributing set -> pattern."""
        return classify(problem.contributing)

    @staticmethod
    def executors() -> tuple[str, ...]:
        """All registered executor names (see ``repro.register_executor``)."""
        return executor_names()

    def executor(
        self, name: str = "hetero", options: ExecOptions | None = None
    ) -> Executor:
        """Instantiate a registered executor by name.

        Names come from the executor registry — :meth:`executors` lists them
        (the built-ins are ``sequential``, ``cpu``, ``cpu-blocked``,
        ``cpu-wavefront-major``, ``gpu`` and ``hetero``). ``options``
        overrides the framework-level :class:`ExecOptions` for this one
        instance.
        """
        try:
            cls = executor_class(name)
        except ExecutionError:
            raise ExecutionError(
                f"unknown executor {name!r}; choose from {list(executor_names())}"
            ) from None
        return cls(self.platform, options or self.options)

    # -- solving ----------------------------------------------------------------

    def solve(
        self,
        problem: LDDPProblem,
        executor: str = "hetero",
        params: HeteroParams | None = None,
        *,
        options: ExecOptions | None = None,
        timeout: float | None = None,
        cancel_token: CancelToken | None = None,
    ) -> SolveResult:
        """Fill the table and model the timing on the chosen executor.

        ``options`` overrides the framework-level :class:`ExecOptions` for
        this call only. ``timeout`` (seconds from now) and ``cancel_token``
        are conveniences that set the options' ``deadline`` /
        ``cancel_token``: the run aborts cooperatively at the next wavefront
        boundary with :class:`~repro.errors.ServiceTimeout` /
        :class:`~repro.errors.SolveCancelled`.
        """
        return self._dispatch(problem, executor, params, functional=True,
                              options=options, timeout=timeout,
                              cancel_token=cancel_token)

    def estimate(
        self,
        problem: LDDPProblem,
        executor: str = "hetero",
        params: HeteroParams | None = None,
        *,
        options: ExecOptions | None = None,
        timeout: float | None = None,
        cancel_token: CancelToken | None = None,
    ) -> SolveResult:
        """Timing model only — no table allocation (for large sweeps)."""
        return self._dispatch(problem, executor, params, functional=False,
                              options=options, timeout=timeout,
                              cancel_token=cancel_token)

    def estimate_fast(
        self,
        problem: LDDPProblem,
        params: HeteroParams | None = None,
    ) -> float:
        """Heterogeneous makespan in seconds, without a timeline.

        The hetero executor's own task graph replayed into a makespan-only
        sink (:func:`repro.exec.hetero.fast_hetero_makespan`): equal to
        ``estimate(problem).simulated_time`` by construction and faster,
        since it keeps no task records, spans, ledger or stats. A device
        or transfer fault raises instead of degrading to CPU-only.
        """
        from ..exec.hetero import fast_hetero_makespan

        return fast_hetero_makespan(problem, self.platform, params, self.options)

    def _dispatch(self, problem, executor, params, functional, options=None,
                  timeout=None, cancel_token=None):
        from ..exec.hetero import HeteroExecutor

        if timeout is not None or cancel_token is not None:
            options = (options or self.options).with_control(
                time.monotonic() + timeout if timeout is not None else None,
                cancel_token,
            )
        ex = self.executor(executor, options=options)
        kwargs = {}
        if params is not None:
            if not isinstance(ex, HeteroExecutor):
                raise ExecutionError(
                    "params only apply to the heterogeneous executor"
                )
            kwargs["params"] = params
        return ex.solve(problem, **kwargs) if functional else ex.estimate(problem, **kwargs)

    def solve_many(
        self,
        problems,
        executor: str = "hetero",
        params: HeteroParams | None = None,
        *,
        options: ExecOptions | None = None,
        max_batch: int = 64,
        timeout: float | None = None,
        cancel_token: CancelToken | None = None,
    ) -> list[SolveResult]:
        """Solve a fleet of problems, batching compatible instances.

        Instances that share geometry, dtype, cell/init code, executor and
        options (see :func:`repro.batch.batch_key` — payload *content* is
        excluded) are stacked into one ``(B, rows, cols)`` sweep per group
        of at most ``max_batch``; incompatible instances run per-instance.
        Results come back in input order, bit-identical to calling
        :meth:`solve` on each problem. ``timeout``/``cancel_token`` apply to
        every instance (checked per wavefront); the first failure re-raises
        after the whole fleet has been attempted. See ``docs/batching.md``.
        """
        from ..batch import BatchItem, BatchPlanner, execute_group

        problems = list(problems)
        control = (options or self.options).with_control(
            time.monotonic() + timeout if timeout is not None else None,
            cancel_token,
        )
        items = [
            BatchItem(index=k, problem=p, executor=executor, options=control,
                      params=params)
            for k, p in enumerate(problems)
        ]
        outcomes: list[SolveResult | BaseException | None] = [None] * len(items)
        for group in BatchPlanner(max_batch=max_batch).plan(items):
            for item, outcome in zip(group.items, execute_group(group, self)):
                outcomes[item.index] = outcome
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return outcomes  # type: ignore[return-value]

    def compare(
        self,
        problem: LDDPProblem,
        executors: tuple[str, ...] = ("cpu", "gpu", "hetero"),
        functional: bool = False,
    ) -> Mapping[str, SolveResult]:
        """Run several executors on one problem — a figure's data points."""
        run = self.solve if functional else self.estimate
        return {name: run(problem, executor=name) for name in executors}

    # -- tuning -------------------------------------------------------------------

    def tune(self, problem: LDDPProblem, **kwargs):
        """The paper's two-step empirical parameter search (Sec. V-A)."""
        from ..tuning.autotune import autotune

        return autotune(problem, self.platform, self.options, **kwargs)


# -- module-level one-call API -------------------------------------------------


def _require_no_platform(platform, service, what: str) -> None:
    if platform is not None:
        raise TypeError(
            f"{what}() takes either service= or platform=, not both — the "
            "service already owns a platform"
        )


def solve(
    problem: LDDPProblem,
    *,
    options: ExecOptions | None = None,
    service=None,
    platform: Platform | None = None,
    executor: str = "hetero",
    params: HeteroParams | None = None,
) -> SolveResult:
    """One-call solve: run ``problem`` on a fresh framework or a service.

    The module-level entry points share one shape —
    ``(problem, *, options, service)`` — so a script can switch between
    direct execution and the serve layer without rewriting the call:
    without ``service`` this builds a throwaway :class:`Framework`
    (equivalent to ``Framework(platform, options).solve(...)``); with a
    :class:`repro.serve.SolveService` the call is submitted there instead,
    inheriting the service's cache, backend and retry semantics (and its
    platform — passing both ``service`` and ``platform`` is an error). For
    many solves over one platform, reuse a :class:`Framework` or a service.
    """
    if service is not None:
        _require_no_platform(platform, service, "solve")
        return service.solve(
            problem, executor=executor, options=options, params=params
        )
    return Framework(platform, options).solve(problem, executor=executor,
                                              params=params)


def estimate(
    problem: LDDPProblem,
    *,
    options: ExecOptions | None = None,
    service=None,
    platform: Platform | None = None,
    executor: str = "hetero",
    params: HeteroParams | None = None,
) -> SolveResult:
    """One-call timing estimate — :func:`solve` without the table.

    Same ``(problem, *, options, service)`` shape as :func:`solve`; with a
    service the request is submitted as a non-functional (estimate-only)
    solve.
    """
    if service is not None:
        _require_no_platform(platform, service, "estimate")
        return service.solve(
            problem, executor=executor, options=options, params=params,
            functional=False,
        )
    return Framework(platform, options).estimate(problem, executor=executor,
                                                 params=params)


def solve_many(
    problems,
    *,
    options: ExecOptions | None = None,
    service=None,
    platform: Platform | None = None,
    executor: str = "hetero",
    params: HeteroParams | None = None,
    max_batch: int = 64,
) -> list[SolveResult]:
    """One-call batched solve of a fleet — see :meth:`Framework.solve_many`.

    Same ``(problems, *, options, service)`` shape as :func:`solve`; with a
    service every instance is submitted there (the service's coalescing
    window, when enabled, re-batches compatible instances) and results
    return in input order.
    """
    if service is not None:
        _require_no_platform(platform, service, "solve_many")
        return service.map(
            problems, executor=executor, options=options, params=params
        )
    return Framework(platform, options).solve_many(
        problems, executor=executor, params=params, max_batch=max_batch,
    )
