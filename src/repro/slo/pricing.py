"""Request pricing: simulated cost units, calibrated into wall seconds.

The paper's timing model is the natural pricing function for admission
control. :func:`repro.exec.hetero.fast_hetero_makespan` replays the hetero
executor's own task graph (the one behind ``Framework.estimate`` and Table
II) into a makespan-only sink, so a price is exactly the makespan a solve's
timeline would show; it costs milliseconds per *new* problem geometry and
returns a number proportional to the work one solve performs. Two
refinements turn that into a wall-clock predictor:

* **Price caching by batch key.** Batch-compatible requests (same
  :func:`repro.batch.batch_key` — geometry, dtype, cell code, executor,
  options, mode) are indistinguishable to the estimator, so their price is
  computed once and reused from an LRU — the same sharing contract the
  batch layer exploits for its one-plan-one-estimate stacked sweeps.
  ``slo.price.computed`` / ``slo.price.cached`` count the split.
* **EWMA calibration.** Simulated units model the paper's target machine,
  not this host. The service reports each run's observed wall time back via
  :meth:`Pricer.observe`; an exponentially-weighted ratio per
  ``(executor, mode)`` converts units into predicted host seconds. Until a
  pair is first observed it falls back to a conservative seed (estimates
  are seeded far cheaper than solves — they never fill the table).
* **Price error.** Before each calibration update, :meth:`Pricer.observe`
  records observed ÷ predicted wall into a ``slo.price.error`` histogram
  per ``(executor, mode)``, the prediction being the one admission would
  have made for that run; :meth:`Pricer.price_error` reports each key's
  count, p50 and p90 (``stats()["slo"]["price_error"]``).
"""

from __future__ import annotations

import threading

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..exec.base import ExecOptions
from ..lru import LRU
from ..obs import Histogram, get_metrics

__all__ = ["Pricer"]

#: Seed wall-seconds-per-unit ratios before the first observation of an
#: ``(executor, functional)`` pair: solves fill tables (expensive), estimates
#: only run the timing model.  Calibration replaces these within one request.
_SEED_RATIO = {True: 1.0, False: 0.05}

#: The price LRU's miss marker: ``None`` is a cached "unpriceable".
_MISS = object()

#: ``slo.price.error`` bucket bounds: ten per decade from 1e-4 to 1e4, so a
#: percentile is within about 26% of the observed ÷ predicted ratio.
_ERROR_BUCKETS = tuple(round(10.0 ** (k / 10), 6) for k in range(-40, 41))


class Pricer:
    """Prices requests in closed-form units and calibrates to wall clock.

    Thread-safe; one instance per :class:`~repro.serve.SolveService`.
    ``alpha`` is the EWMA weight of each new observation.
    """

    def __init__(self, framework, *, cache_size: int = 512,
                 alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.framework = framework
        self.alpha = alpha
        self._prices = LRU(cache_size)
        self._ratios: dict[tuple[str, bool], float] = {}
        self._errors: dict[tuple[str, bool], Histogram] = {}
        self._lock = threading.Lock()

    # -- units ------------------------------------------------------------------

    def units(
        self,
        problem: LDDPProblem,
        *,
        options: ExecOptions | None = None,
        params: HeteroParams | None = None,
        key: str | None = None,
        executor: str | None = None,
        delta_cone_fraction: float | None = None,
    ) -> float | None:
        """Closed-form cost units for one solve, or ``None`` if unpriceable.

        ``key`` is the request's :func:`repro.batch.batch_key`; when given,
        the price is served from (and stored into) the LRU, so a fleet of
        batch-compatible requests is priced exactly once. ``executor``
        selects the phase model: ``cpu-blocked`` requests are priced with
        the blocked executor's per-wave costs (whose ramp-phase idle the
        hetero model cannot see); everything else uses the hetero model. The
        batch key already includes the executor, so the LRU never mixes the
        two models.

        ``delta_cone_fraction`` prices the request as a *delta patch* of a
        cached near-match base (:func:`repro.delta.delta_makespan`, one
        probe pass plus that fraction of the table re-swept) instead of a
        full solve — the admission controller passes the SLO policy's
        expected fraction when the serve cache reports a base available, so
        near-duplicate traffic is no longer over-priced and shed. Callers
        suffix the LRU ``key`` (``...:delta``) so full and delta prices for
        one batch shape never collide.
        """
        metrics = get_metrics()
        if key is not None:
            units = self._prices.get(key, _MISS)
            if units is not _MISS:
                metrics.counter("slo.price.cached").inc()
                return units
        try:
            units = self._priced(
                problem, options or self.framework.options, params, executor,
                delta_cone_fraction,
            )
        except Exception:
            units = None
        metrics.counter("slo.price.computed").inc()
        if key is not None:
            self._prices.put(key, units)
        return units

    def _priced(
        self, problem, options, params, executor=None,
        delta_cone_fraction=None,
    ) -> float:
        from ..scan.route import scan_applicable

        if delta_cone_fraction is not None:
            # A near-match base is cached: the expected cost is one probe
            # pass plus the policy's expected invalidation cone, whatever
            # executor the full solve would have used.
            from ..delta.timing import delta_makespan

            return delta_makespan(
                problem, self.framework.platform,
                cone_fraction=delta_cone_fraction, options=options,
            )
        if scan_applicable(problem, options, executor):
            # Declared-linear solves route to the scan tier: O(n·m) work at
            # O(log) depth. Pricing them with the wavefront models would
            # overprice (and wrongly shed) exactly the cheapest requests.
            from ..scan.timing import scan_makespan

            return scan_makespan(problem, self.framework.platform, options)
        if executor == "cpu-blocked":
            from ..exec.blocked import fast_blocked_makespan

            return fast_blocked_makespan(
                problem, self.framework.platform, options
            )
        from ..exec.hetero import fast_hetero_makespan

        return fast_hetero_makespan(
            problem, self.framework.platform, params, options
        )

    # -- calibration ------------------------------------------------------------

    def ratio(self, executor: str, functional: bool) -> float:
        """Wall-seconds per unit for ``(executor, functional)``."""
        with self._lock:
            return self._ratios.get(
                (executor, functional), _SEED_RATIO[functional]
            )

    def predict(self, units: float, executor: str, functional: bool) -> float:
        """Predicted wall seconds for a run priced at ``units``."""
        return units * self.ratio(executor, functional)

    def observe(
        self, executor: str, functional: bool, units: float, wall: float
    ) -> None:
        """Feed back one observed ``(units, wall seconds)`` pair.

        Records observed ÷ predicted wall, predicted being ``units`` times
        the ratio *before* this update, then moves the EWMA.
        """
        if units <= 0 or wall < 0:
            return
        observed = wall / units
        key = (executor, functional)
        with self._lock:
            prev = self._ratios.get(key)
            ratio = _SEED_RATIO[functional] if prev is None else prev
            if ratio > 0:  # a 0 s run calibrates a ratio of 0: no prediction
                errors = self._errors.get(key)
                if errors is None:
                    errors = self._errors[key] = Histogram(
                        "slo.price.error", _ERROR_BUCKETS
                    )
                errors.observe(observed / ratio)
            self._ratios[key] = (
                observed if prev is None
                else prev + self.alpha * (observed - prev)
            )

    def calibration(self) -> dict[str, float]:
        """Snapshot of learned ratios, for stats()/reports."""
        with self._lock:
            return {
                _label(key): ratio for key, ratio in sorted(self._ratios.items())
            }

    def price_error(self) -> dict[str, dict[str, float]]:
        """``slo.price.error`` per key: count, p50 and p90 of observed ÷
        predicted wall, for stats()/reports."""
        with self._lock:
            return {
                _label(key): {
                    "count": h.count,
                    "p50": h.percentile(50),
                    "p90": h.percentile(90),
                }
                for key, h in sorted(self._errors.items())
            }


def _label(key: tuple[str, bool]) -> str:
    """``executor:solve`` or ``executor:estimate``."""
    executor, functional = key
    return f"{executor}:{'solve' if functional else 'estimate'}"
