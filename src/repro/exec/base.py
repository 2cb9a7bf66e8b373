"""Executor ABC, options, results, and the shared functional core."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cancel import CancelToken, raise_if_cancelled
from ..core.problem import LDDPProblem
from ..core.schedule import WavefrontSchedule
from ..errors import ExecutionError, InjectedFault, PlatformError
from ..faults import PASSTHROUGH, check_fault, degrade, record
from ..kernels import generic_span, plan_for
from ..machine.platform import Platform
from ..memory.buffers import TransferLedger
from ..obs import get_metrics
from ..sim.timeline import Timeline
from ..types import Pattern

__all__ = [
    "ExecOptions",
    "SolveResult",
    "Executor",
    "evaluate_span",
    "check_control",
    "wavefront_contiguous",
    "register_executor",
    "unregister_executor",
    "executor_class",
    "executor_names",
]


@dataclass(frozen=True)
class ExecOptions:
    """Cross-cutting execution switches (mostly ablation knobs).

    Parameters
    ----------
    use_wavefront_layout:
        Store each wavefront contiguously (paper Sec. IV-B). Off: the GPU
        pays its coalescing penalty and the CPU its strided penalty on
        non-row patterns.
    pipeline:
        Overlap one-way boundary copies with compute on the copy engine
        (paper Sec. IV-C1). Off: those copies run synchronously on the bus.
    pattern_override:
        Force a dependency-compatible pattern instead of the classified one.
    inverted_l_as_horizontal:
        Execute inverted-L/mInverted-L problems under the horizontal pattern
        (the paper's recommendation, Sec. V-B).
    validate_timeline:
        Run the timeline's structural invariant checks after every solve.
    block_size:
        Tile edge for the block-tiled CPU executor (``cpu-blocked``).
    kernel_fastpath:
        Dispatch ``evaluate_span`` through the compiled kernel-plan cache
        (:mod:`repro.kernels`). Off: every span runs the generic masked
        gather/scatter path — the A/B knob behind the CLI's
        ``--no-kernel-fastpath``.
    scan:
        Offer declared-linear problems (``LDDPProblem.linear``) to the scan
        tier (:mod:`repro.scan`) before the wavefront path — prefix scans
        at O(log) depth, verified against the declaration and degrading to
        the wavefront sweep on any mismatch. Off (the CLI's ``--no-scan``):
        every solve runs the wavefront path. A semantic knob, so it stays
        in the cache-key ``repr``.
    delta:
        Let the serve layer satisfy this request by *delta patching* a
        cached near-duplicate base (:mod:`repro.delta`): on an exact-cache
        miss with a near-match base available, copy the base table and
        recompute only the payload edit's forward invalidation cone.
        Bit-identical to a fresh solve; any patch failure degrades to the
        full solve with a stats reason. The CLI's ``--delta``. A semantic
        knob (it changes which cache tiers may serve the request), so it
        stays in the cache-key ``repr``.
    delta_max_cone:
        Degrade a delta patch to a full solve once the invalidation cone
        exceeds this fraction of the computed region (the wave clip —
        patching near-full tables costs more than resolving them). A
        tuning knob, excluded from the cache-key ``repr`` like
        ``deadline``.
    deadline:
        Absolute ``time.monotonic()`` deadline. Every executor checks it at
        wavefront boundaries and aborts with
        :class:`~repro.errors.ServiceTimeout` once it has passed —
        cooperative cancellation, at most one wavefront late. Excluded from
        the cache-key ``repr`` (run-scoped control, not a semantic knob).
    cancel_token:
        A :class:`~repro.cancel.CancelToken` checked alongside ``deadline``;
        fired tokens abort with :class:`~repro.errors.SolveCancelled`. Also
        excluded from the cache key.
    """

    use_wavefront_layout: bool = True
    pipeline: bool = True
    pattern_override: Pattern | None = None
    inverted_l_as_horizontal: bool = True
    validate_timeline: bool = False
    block_size: int = 64
    kernel_fastpath: bool = True
    scan: bool = True
    delta: bool = False
    delta_max_cone: float = field(default=0.5, repr=False, compare=False)
    deadline: float | None = field(default=None, repr=False, compare=False)
    cancel_token: CancelToken | None = field(
        default=None, repr=False, compare=False
    )

    def replace(self, **changes) -> "ExecOptions":
        """A copy with ``changes`` applied — the one way to derive options.

        ``opts.replace(deadline=d, cancel_token=tok)`` is how per-call
        control (deadlines, tokens, ablation switches) is layered onto a
        base :class:`ExecOptions` without mutating it; every call site that
        used ad-hoc ``dataclasses.replace`` merges goes through here.
        """
        import dataclasses

        return dataclasses.replace(self, **changes)

    def with_control(
        self,
        deadline: float | None = None,
        cancel_token: CancelToken | None = None,
    ) -> "ExecOptions":
        """These options with one run's control plane layered on.

        The earlier of ``deadline`` and the options' own deadline wins — a
        caller may tighten a deadline, never extend it — and a given
        ``cancel_token`` replaces the options' one. The one merge every
        caller (``Framework``, the serve layer, the batch and process
        backends) uses; returns ``self`` when nothing changes.
        """
        if deadline is None or (
            self.deadline is not None and self.deadline <= deadline
        ):
            deadline = self.deadline
        if cancel_token is None:
            cancel_token = self.cancel_token
        if deadline == self.deadline and cancel_token is self.cancel_token:
            return self
        return self.replace(deadline=deadline, cancel_token=cancel_token)


@dataclass
class SolveResult:
    """Output of one executor run.

    ``table`` is ``None`` for estimate-only runs (timing without filling).
    ``simulated_time`` is the modeled makespan in seconds — the number the
    paper's figures plot.
    """

    problem: str
    executor: str
    pattern: Pattern
    simulated_time: float
    table: np.ndarray | None = None
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    timeline: Timeline | None = None
    ledger: TransferLedger = field(default_factory=TransferLedger)
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def simulated_ms(self) -> float:
        return self.simulated_time * 1e3


def check_control(options: ExecOptions | None, what: str = "solve") -> None:
    """Cooperative checkpoint for executor loops (one per wavefront).

    Raises :class:`~repro.errors.SolveCancelled` /
    :class:`~repro.errors.ServiceTimeout` per the options' ``cancel_token``
    and ``deadline``; a no-op (two attribute reads) when neither is set, so
    it is safe to call in hot loops.
    """
    if options is None:
        return
    if options.deadline is not None or options.cancel_token is not None:
        raise_if_cancelled(options.deadline, options.cancel_token, what)


def wavefront_contiguous(pattern: Pattern, use_wavefront_layout: bool) -> bool:
    """Whether wavefront accesses are contiguous in memory.

    Rows of a row-major table are contiguous whatever the storage. Diagonal
    and knight wavefronts become contiguous under the wavefront-major layout
    of :mod:`repro.memory.layout` (paper Sec. IV-B). The two-arm L rings are
    the exception: packing them contiguously requires strided gathers of both
    arms each iteration, which defeats the purpose — the non-uniform,
    coalescing-hostile access is intrinsic, and exactly why the paper prefers
    running these problems as horizontal case-1 (Sec. V-B).
    """
    if pattern is Pattern.HORIZONTAL:
        return True
    if pattern in (Pattern.INVERTED_L, Pattern.MINVERTED_L):
        return False
    return use_wavefront_layout


# One-entry memo for the hot dispatch state of evaluate_span: a solve calls
# it once per wavefront with the same (problem, schedule, origin) and metrics
# registry, so identity checks replace the plan-cache lookup and the two
# counter-name lookups on every call after the first. Rebuilding on a miss is
# cheap and the tuple swap is atomic, so racing threads at worst recompute.
_SPAN_STATE: tuple | None = None
_GENERIC_COUNTER: tuple | None = None  # (metrics registry, counter)


def _span_state(problem, schedule, origin):
    global _SPAN_STATE
    metrics = get_metrics()
    s = _SPAN_STATE
    if (
        s is not None
        and s[0] is problem and s[1] is schedule
        and s[2] == origin and s[3] is metrics
    ):
        return s
    plan = plan_for(problem, schedule, origin)
    s = (
        problem, schedule, origin, metrics, plan,
        metrics.counter("kernels.span.fast"),
        metrics.counter("kernels.span.generic"),
        schedule.widths(),
    )
    _SPAN_STATE = s
    return s


def _generic_counter():
    global _GENERIC_COUNTER
    metrics = get_metrics()
    s = _GENERIC_COUNTER
    if s is None or s[0] is not metrics:
        s = (metrics, metrics.counter("kernels.span.generic"))
        _GENERIC_COUNTER = s
    return s[1]


def evaluate_span(
    problem: LDDPProblem,
    schedule: WavefrontSchedule,
    table: np.ndarray,
    aux: dict[str, np.ndarray],
    t: int,
    lo: int = 0,
    hi: int | None = None,
    *,
    origin: tuple[int, int] = (0, 0),
    fastpath: bool = True,
    options: ExecOptions | None = None,
) -> int:
    """Functionally compute positions ``[lo, hi)`` of wavefront ``t``.

    Returns the number of cells written. All executors funnel through this
    one function, which is why their tables agree bit-for-bit.

    This is a thin dispatcher: with ``fastpath`` (the default) the span runs
    through the compiled plan cache of :mod:`repro.kernels` — precomputed
    strided views for slice-able patterns, cached index arrays otherwise —
    and falls back to the generic masked gather/scatter whenever no plan
    applies. ``origin`` offsets the schedule's region within the *computed*
    region (used by tiled executors; the fixed boundary is added on top).
    Fast and generic spans are counted as ``kernels.span.fast`` /
    ``kernels.span.generic`` in :mod:`repro.obs`.

    ``options`` threads the run's cross-cutting control through the
    dispatcher: ``kernel_fastpath`` gates the plan cache exactly like
    ``fastpath``, and a passed ``deadline`` / fired ``cancel_token`` aborts
    here — the per-wavefront cooperative cancellation point every executor
    inherits. The dispatcher is also the ``exec.span`` fault-injection site,
    and a fast-path plan that *fails* (rather than declines) degrades to the
    generic path instead of raising (``kernels.plan.degraded``).
    """
    if options is not None:
        if options.deadline is not None or options.cancel_token is not None:
            raise_if_cancelled(
                options.deadline, options.cancel_token,
                f"solve of {problem.name!r}",
            )
        fastpath = fastpath and options.kernel_fastpath
    check_fault("exec.span")
    state = _span_state(problem, schedule, origin) if fastpath else None
    if state is not None and 0 <= t < state[7].shape[0]:
        width = int(state[7][t])  # memoized widths: skips per-call bounds
    else:
        width = schedule.width(t)
    if hi is None:
        hi = width
    if not 0 <= lo <= hi <= width:
        raise ExecutionError(
            f"span [{lo}, {hi}) outside iteration {t} of width {width}"
        )
    if lo == hi:
        return 0
    if state is not None:
        plan = state[4]
        if plan is not None:
            try:
                done, fast = plan.execute(problem, table, aux, t, lo, hi)
            except PASSTHROUGH:
                raise
            except Exception:
                # A *failing* plan (injected fault, guard bug) must not take
                # the request down: recompute the span generically. User
                # cell-function errors re-raise from the generic path.
                get_metrics().counter("kernels.plan.degraded").inc()
            else:
                (state[5] if fast else state[6]).inc()
                return done
    _generic_counter().inc()
    return generic_span(
        problem, schedule, table, aux, t, lo, hi,
        problem.fixed_rows + origin[0], problem.fixed_cols + origin[1],
    )


# -- executor registry --------------------------------------------------------
#
# Executor implementations register themselves under a short CLI-friendly name
# at import time; `Framework.executor()` and the CLI `--executor` choices both
# resolve through this one table, so adding an executor (in- or out-of-tree)
# is a single `register_executor` call.

_EXECUTOR_REGISTRY: dict[str, type["Executor"]] = {}
_BUILTINS_LOADED = False


def _load_builtin_executors() -> None:
    """Import the in-tree executor modules so they self-register."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from . import (  # noqa: F401  (imported for their registration side effect)
        blocked,
        cpu_exec,
        gpu_exec,
        hetero,
        layout_exec,
        sequential,
    )


def register_executor(name: str, cls: type["Executor"], *, replace: bool = False):
    """Register an :class:`Executor` subclass under ``name``.

    Registered names show up in :meth:`Framework.executors`, resolve through
    :meth:`Framework.executor`/``solve(executor=...)``, and become valid CLI
    ``--executor`` choices. Re-registering an existing name with a different
    class requires ``replace=True``. Returns ``cls`` so it can be used as a
    decorator: ``@register_executor("mine", ...)`` is *not* supported — call
    it after the class definition instead.
    """
    if not name or not isinstance(name, str):
        raise ExecutionError(f"executor name must be a non-empty string, got {name!r}")
    if not (isinstance(cls, type) and issubclass(cls, Executor)):
        raise ExecutionError(
            f"executor {name!r} must be an Executor subclass, got {cls!r}"
        )
    current = _EXECUTOR_REGISTRY.get(name)
    if current is not None and current is not cls and not replace:
        raise ExecutionError(
            f"executor name {name!r} is already registered to "
            f"{current.__name__}; pass replace=True to override"
        )
    _EXECUTOR_REGISTRY[name] = cls
    return cls


def unregister_executor(name: str) -> None:
    """Remove a registered executor (built-ins included — use with care)."""
    _load_builtin_executors()
    _EXECUTOR_REGISTRY.pop(name, None)


def executor_class(name: str) -> type["Executor"]:
    """Resolve a registered executor name to its class."""
    _load_builtin_executors()
    try:
        return _EXECUTOR_REGISTRY[name]
    except KeyError:
        raise ExecutionError(
            f"unknown executor {name!r}; registered executors: "
            f"{', '.join(sorted(_EXECUTOR_REGISTRY))}"
        ) from None


def executor_names() -> tuple[str, ...]:
    """All registered executor names, sorted."""
    _load_builtin_executors()
    return tuple(sorted(_EXECUTOR_REGISTRY))


class Executor(ABC):
    """Common executor interface: functional solve or timing-only estimate."""

    name: str = "executor"

    def __init__(self, platform: Platform, options: ExecOptions | None = None) -> None:
        self.platform = platform
        self.options = options or ExecOptions()

    def solve(self, problem: LDDPProblem, **kwargs) -> SolveResult:
        """Fill the table *and* model the timing.

        Estimate-only problems (built with ``materialize=False``) are
        refused up front with a clear
        :class:`~repro.errors.CellFunctionError` instead of crashing on a
        missing payload key deep inside a worker.

        Declared-linear problems (``LDDPProblem.linear``) are offered to the
        scan tier first (:mod:`repro.scan`) unless ``options.scan`` is off;
        a scan failure degrades to this executor's wavefront path —
        bit-identical tables — recorded as a ``scan`` entry in
        ``stats["route"]``. Deadline/cancel aborts surface either way.
        """
        problem.require_solvable()
        from ..scan.route import try_scan_solve  # local: repro.scan imports us

        result, scan_reason = try_scan_solve(self, problem)
        if result is not None:
            return result
        result = self._run(problem, functional=True, **kwargs)
        if scan_reason is not None:
            record(result.stats, "scan", "wavefront", scan_reason)
        return result

    def estimate(self, problem: LDDPProblem, **kwargs) -> SolveResult:
        """Model the timing only; no table is allocated or filled.

        The task graph is identical to :meth:`solve`'s, which is what lets
        benchmarks sweep paper-scale sizes (16k-32k tables) without
        allocating gigabyte arrays.
        """
        return self._run(problem, functional=False, **kwargs)

    @abstractmethod
    def _run(self, problem: LDDPProblem, functional: bool, **kwargs) -> SolveResult:
        ...

    # -- shared helpers -------------------------------------------------------

    def _payload_nbytes(self, problem: LDDPProblem) -> int:
        return problem.payload_nbytes()

    def _maybe_validate(self, timeline: Timeline) -> None:
        if self.options.validate_timeline:
            timeline.validate()

    def _run_or_cpu(self, run, problem: LDDPProblem, functional: bool,
                    params) -> SolveResult:
        """``run(problem, functional, params)``, CPU-only on a device failure.

        A :class:`~repro.errors.PlatformError` or injected fault re-runs
        ``problem`` on the CPU executor (which touches only
        ``platform.cpu``): same table, CPU-only timing, this executor's
        name, and a ``device`` entry in ``stats["route"]``.
        """
        try:
            return run(problem, functional, params)
        except (PlatformError, InjectedFault) as exc:
            from .cpu_exec import CPUExecutor  # local: avoid a module cycle

            reason = degrade(
                "device", exc, counters=("serve.degraded",),
                executor=self.name, problem=problem.name,
            )
            result = CPUExecutor(self.platform, self.options)._run(
                problem, functional
            )
            result.executor = self.name
            record(result.stats, "device", "cpu-only", reason)
            return result
