"""SLO enforcement for the serve layer: admission, autoscaling, quotas.

The serve layer's safety mechanisms (deadlines, backpressure, retries,
fault injection) say what happens when things go wrong; this package is the
*policy brain* that keeps them from going wrong in the first place
(``docs/serving.md`` has the full contract):

* :class:`SLOPolicy` — the knobs: admission on/off, EDF scheduling,
  down-tier rules, autoscaler bounds, per-tenant quotas;
* :class:`Pricer` — closed-form request pricing (the paper's makespan
  estimator) with batch-key caching and EWMA wall-clock calibration;
* :class:`AdmissionController` — admit / down-tier / shed at enqueue time,
  monotone in capacity, never after work starts;
* :class:`TokenBucket` / :class:`QuotaManager` — per-tenant rate limits;
* :class:`Autoscaler` — target pool size from queue-depth/latency gauges;
* :mod:`repro.slo.soak` — the soak/chaos harness that drives mixed traffic
  with fault plans and asserts attainment, bit-identity and error budgets.

Usage::

    from repro.serve import ServiceConfig, SolveService
    from repro.slo import SLOPolicy

    policy = SLOPolicy(min_workers=1, max_workers=8,
                       tenant_quotas={"free-tier": (50.0, 20)})
    with SolveService(config=ServiceConfig(workers=2, slo=policy)) as svc:
        pending = svc.submit(request)   # may raise AdmissionRejected
"""

from .admission import AdmissionController, AdmissionDecision
from .autoscale import Autoscaler
from .policy import SLOPolicy
from .pricing import Pricer
from .quota import QuotaManager, TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Autoscaler",
    "Pricer",
    "QuotaManager",
    "SLOPolicy",
    "SoakConfig",
    "TokenBucket",
    "run_soak",
]


def __getattr__(name):
    # Soak pulls in repro.problems/Framework; import lazily so the policy
    # classes stay cheap for the serve layer's import path.
    if name in ("SoakConfig", "run_soak"):
        from . import soak

        return getattr(soak, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
