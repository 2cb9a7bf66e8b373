"""Deterministic fault injection for chaos testing (``repro.faults``).

A :class:`FaultPlan` is a set of :class:`FaultRule`\\ s keyed on **site
names** — stable strings named after the module seam they instrument:

==================  ==========================================================
site                checked in
==================  ==========================================================
``exec.span``       :func:`repro.exec.base.evaluate_span` (every wavefront
                    span dispatched by any executor) and every replayed
                    delta-cone wave
``kernels.plan``    :meth:`repro.kernels.cache.PlanCache.get` (plan lookup /
                    compilation — a fault here degrades to the generic path)
``kernels.span``    :meth:`repro.kernels.plan.KernelPlan.execute` and
                    :meth:`~repro.kernels.plan.KernelPlan.execute_batch` (a
                    fault here degrades that span to the generic path)
``batch.execute``   :func:`repro.batch.execute_group` (a fault here degrades
                    the whole group to per-instance solves)
``scan.solve``      :func:`repro.scan.try_scan_solve`, once per scan-tier
                    attempt (a fault here degrades the solve to the
                    executor's wavefront path, bit-identically)
``delta.patch``     :func:`repro.delta.delta_patch`, once per delta-patch
                    attempt (a fault here degrades the request to a full
                    solve, bit-identically)
``machine.cpu``     :meth:`repro.machine.cpu.CPUModel.parallel_time`
``machine.gpu``     :meth:`repro.machine.gpu.GPUModel.kernel_time` (a fault
                    here degrades hetero/multi executors to CPU-only)
``machine.transfer``:meth:`repro.machine.transfer.TransferModel.time`
``serve.execute``   :meth:`repro.serve.SolveService` worker, once per attempt
==================  ==========================================================

Each rule can fail the **Nth** matching call, fail at a **rate** (seeded RNG
— runs are reproducible), and/or inject **latency** before returning.
Failures raise :class:`~repro.errors.InjectedFault`.

The hook is zero-overhead when disabled: sites call :func:`check_fault`,
which reads one module global and returns immediately while no plan is
installed — no allocation, no locking, no string matching.

Usage::

    from repro.faults import inject_faults

    with inject_faults("machine.gpu:rate=0.5", "kernels.plan:nth=2"):
        result = repro.solve(problem)   # degrades instead of dying

or from the CLI: ``repro-lddp serve --inject-fault "machine.gpu:rate=0.5"``.
See ``docs/resilience.md`` for the degradation matrix.

The request-level fallbacks (scan, delta, device, batch) share one policy
from here: :data:`PASSTHROUGH` aborts surface, :func:`degrade` counts and
traces a failed tier, :func:`record` notes it in ``stats["route"]``.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import InjectedFault, ServiceTimeout, SolveCancelled
from .obs import get_metrics, get_tracer

__all__ = [
    "FaultRule",
    "FaultPlan",
    "check_fault",
    "install_faults",
    "clear_faults",
    "active_faults",
    "inject_faults",
    "PASSTHROUGH",
    "degrade",
    "record",
]


@dataclass
class FaultRule:
    """One injection rule: where, when, and what to inject.

    Parameters
    ----------
    site:
        Exact site name, or a prefix wildcard ``"machine.*"``.
    nth:
        Fail exactly the Nth matching call (1-based), once.
    rate:
        Per-call failure probability in [0, 1] (seeded — deterministic).
    latency:
        Seconds slept on *every* matching call, fault or not.
    message:
        Override for the :class:`InjectedFault` text.
    """

    site: str
    nth: int | None = None
    rate: float = 0.0
    latency: float = 0.0
    message: str | None = None
    calls: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault rule needs a site name")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth is 1-based, got {self.nth}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.latency < 0:
            raise ValueError(f"latency cannot be negative, got {self.latency}")


_RULE_KEYS = {"nth": int, "rate": float, "latency": float, "message": str}


def _parse_one(spec: str) -> FaultRule:
    """``"site:nth=3,rate=0.1,latency=0.01"`` -> :class:`FaultRule`."""
    site, sep, rest = spec.partition(":")
    site = site.strip()
    if not sep or not site or not rest.strip():
        raise ValueError(
            f"bad fault spec {spec!r}; expected 'site:key=value[,key=value...]' "
            f"with keys {sorted(_RULE_KEYS)}"
        )
    kwargs: dict = {}
    for part in rest.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _RULE_KEYS:
            raise ValueError(
                f"bad fault spec {spec!r}: unknown key {key!r} "
                f"(valid: {sorted(_RULE_KEYS)})"
            )
        kwargs[key] = _RULE_KEYS[key](value.strip())
    return FaultRule(site=site, **kwargs)


class FaultPlan:
    """A thread-safe set of fault rules with deterministic firing.

    Rule state (call counts, RNG draws) is guarded by one lock; injected
    latency is slept *outside* the lock so concurrent sites do not serialize
    on each other's delays. Counters ``faults.injected`` / ``faults.delayed``
    are bumped through :mod:`repro.obs`.
    """

    def __init__(self, rules: Iterable[FaultRule], seed: int = 0) -> None:
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._exact: dict[str, list[FaultRule]] = {}
        self._prefix: list[tuple[str, FaultRule]] = []
        for rule in self.rules:
            if rule.site.endswith("*"):
                self._prefix.append((rule.site[:-1], rule))
            else:
                self._exact.setdefault(rule.site, []).append(rule)

    @classmethod
    def parse(cls, specs: Iterable[str] | str, seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI-style specs (one string or several)."""
        if isinstance(specs, str):
            specs = [specs]
        return cls([_parse_one(s) for s in specs], seed=seed)

    def _matching(self, site: str) -> list[FaultRule]:
        rules = self._exact.get(site)
        if self._prefix:
            extra = [r for p, r in self._prefix if site.startswith(p)]
            if extra:
                rules = (rules or []) + extra
        return rules or []

    def check(self, site: str) -> None:
        """Run ``site`` through the plan: maybe sleep, maybe raise."""
        rules = self._matching(site)
        if not rules:
            return
        delay = 0.0
        fire: FaultRule | None = None
        with self._lock:
            for rule in rules:
                rule.calls += 1
                delay += rule.latency
                if fire is None and (
                    (rule.nth is not None and rule.calls == rule.nth)
                    or (rule.rate > 0.0 and self._rng.random() < rule.rate)
                ):
                    rule.fired += 1
                    fire = rule
        if delay > 0.0:
            get_metrics().counter("faults.delayed").inc()
            time.sleep(delay)
        if fire is not None:
            get_metrics().counter("faults.injected").inc()
            raise InjectedFault(
                fire.message
                or f"injected fault at {site!r} (rule {fire.site!r}, "
                   f"call #{fire.calls})"
            )

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-rule call/fire counts, for chaos-run reports."""
        with self._lock:
            return {
                rule.site: {"calls": rule.calls, "fired": rule.fired}
                for rule in self.rules
            }


# -- the process-wide hook -----------------------------------------------------
#
# ``check_fault`` is called from hot paths (one call per wavefront span), so
# the disabled case must cost only a global read: no plan installed, return.

_ACTIVE: FaultPlan | None = None


def check_fault(site: str) -> None:
    """Site hook: no-op unless a :class:`FaultPlan` is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.check(site)


def install_faults(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide (``None`` disables); returns previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def clear_faults() -> None:
    """Disable fault injection."""
    install_faults(None)


def active_faults() -> FaultPlan | None:
    """The currently-installed plan, if any."""
    return _ACTIVE


@contextlib.contextmanager
def inject_faults(*specs: str | FaultRule | FaultPlan, seed: int = 0) -> Iterator[FaultPlan]:
    """Temporarily install a fault plan; always restores the previous one.

    Accepts one ready :class:`FaultPlan`, or any mix of spec strings and
    :class:`FaultRule` instances.
    """
    if len(specs) == 1 and isinstance(specs[0], FaultPlan):
        plan = specs[0]
    else:
        rules: list[FaultRule] = []
        for spec in specs:
            if isinstance(spec, FaultRule):
                rules.append(spec)
            elif isinstance(spec, str):
                rules.append(_parse_one(spec))
            else:
                raise TypeError(f"expected spec string or FaultRule, got {spec!r}")
        plan = FaultPlan(rules, seed=seed)
    previous = install_faults(plan)
    try:
        yield plan
    finally:
        install_faults(previous)


# -- the degradation policy ----------------------------------------------------

#: Control-plane aborts: never degraded, they surface from every tier.
PASSTHROUGH = (ServiceTimeout, SolveCancelled)


def degrade(tier: str, exc: BaseException, *, counters: Iterable[str],
            executor: str | None = None, problem: str | None = None) -> str:
    """Count and trace a failed ``tier``; returns the reason to record.

    Bumps ``counters`` (and ``exec.<executor>.degraded`` when ``executor``
    is given) and emits one ``<tier>.degraded`` span carrying the problem,
    executor and reason.
    """
    reason = f"{type(exc).__name__}: {exc}"
    metrics = get_metrics()
    if executor is not None:
        counters = (*counters, f"exec.{executor}.degraded")
    for name in counters:
        metrics.counter(name).inc()
    get_tracer().span(f"{tier}.degraded", cat="degrade", problem=problem,
                      executor=executor, reason=reason).end()
    return reason


def record(stats: dict, tier: str, fallback: str, reason: str) -> None:
    """Prepend ``tier`` → ``fallback`` to ``stats["route"]`` (a new list).

    Called once the fallback has run, so the route reads outermost tier
    first and ``stats["degraded"]`` keeps the path that finally served.
    """
    entry = {"tier": tier, "fallback": fallback, "reason": reason}
    stats["route"] = [entry, *stats.get("route", ())]
    stats.setdefault("degraded", fallback)
