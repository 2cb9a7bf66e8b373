"""The soak/chaos harness: mixed traffic vs the SLO-enforcing service.

One :func:`run_soak` call drives the same deterministic traffic schedule
through a :class:`~repro.serve.SolveService` **twice** — once with the full
:class:`~repro.slo.SLOPolicy` (admission on) and once with admission and
EDF scheduling disabled (the ablation baseline) — and emits a JSON-able
report. The traffic is deliberately hostile:

* a mixed problem fleet (several kinds x sizes x seeds, batch-compatible
  within a kind so coalescing engages);
* three deadline buckets: *generous* (always feasible), *tight* (feasible
  only if scheduled promptly) and *impossible* (physically unmeetable —
  admission must shed these; the baseline eats the timeout);
* a mid-run burst that overflows ``backlog_per_worker`` and forces the
  autoscaler to grow the pool;
* chaos faults (:mod:`repro.faults`) injected at ``serve.execute`` for the
  whole run — failures must stay *typed* and retried;
* two synthetic tenants, one behind a token-bucket quota.

The report's ``checks`` section encodes the SLO contract the CI smoke
gates on:

* ``attainment_ok`` — >= ``attainment_target`` (default 99%) of *admitted*
  requests completed within their deadline under the full policy;
* ``baseline_worse`` — the same traffic without admission shows strictly
  lower attainment (the impossible bucket alone guarantees a gap);
* ``oracle_ok`` — a sample of completed tables is bit-identical to the
  sequential oracle (heterogeneity must never change results);
* ``returned_to_min_workers`` — after a cooldown the pool is back at
  ``min_workers``;
* ``no_worker_leak`` — after ``close()`` not one worker thread ever
  started is still alive.

Usage (also exposed as ``repro-lddp soak`` and ``tools/soak.py``)::

    from repro.slo.soak import SoakConfig, run_soak

    report = run_soak(SoakConfig(duration=5.0))
    assert report["ok"], report["checks"]
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.framework import Framework
from ..errors import AdmissionRejected, QuotaExceeded, ReproError, ServiceOverloaded
from ..faults import FaultPlan, inject_faults
from ..machine.platform import hetero_high
from ..serve import ServiceConfig, SolveRequest, SolveService
from .policy import SLOPolicy

__all__ = ["SoakConfig", "run_soak", "add_soak_args", "config_from_args", "soak_main"]


@dataclass(frozen=True)
class SoakConfig:
    """Knobs for one soak run (both phases share every value).

    ``duration`` is the traffic window per phase in seconds; the run adds
    warmup, result drain and a ``cooldown`` wait on top, so wall time per
    phase is a few seconds more. Deadline bucket weights are relative.
    """

    duration: float = 3.0
    rps: float = 40.0
    seed: int = 0
    problems: tuple[str, ...] = ("levenshtein", "lcs", "dtw")
    sizes: tuple[int, ...] = (32, 40, 48)
    workers: int = 1
    min_workers: int = 1
    max_workers: int = 4
    scale_interval: float = 0.05
    backlog_per_worker: float = 2.0
    scale_down_after: int = 4
    queue_size: int = 512
    retries: int = 2
    coalesce_window: float = 0.004
    max_batch: int = 8
    safety_factor: float = 2.0
    generous_deadline: float = 5.0
    tight_deadline: tuple[float, float] = (0.3, 0.8)
    impossible_deadline: float = 2e-4
    bucket_weights: tuple[float, float, float] = (0.55, 0.30, 0.15)
    downgradable_share: float = 0.25
    burst_size: int = 32
    burst_at: float = 0.45  # fraction of the traffic window
    fault_specs: tuple[str, ...] = ("serve.execute:rate=0.03",)
    backend: str = "thread"
    metered_tenant_share: float = 0.2
    metered_quota: tuple[float, float] = (25.0, 10.0)
    oracle_checks: int = 6
    attainment_target: float = 0.99
    cooldown: float = 6.0

    def policy(self, *, admission: bool) -> SLOPolicy:
        """The phase policy: full SLO, or the no-admission/FIFO ablation."""
        return SLOPolicy(
            admission=admission,
            scheduling=admission,
            downgrade=admission,
            safety_factor=self.safety_factor,
            min_workers=self.min_workers,
            max_workers=self.max_workers,
            scale_interval=self.scale_interval,
            backlog_per_worker=self.backlog_per_worker,
            scale_down_after=self.scale_down_after,
            tenant_quotas={"metered": self.metered_quota},
        )


@dataclass
class _Shot:
    """One scheduled request: everything needed to submit and judge it."""

    offset: float
    problem: object
    bucket: str  # "generous" | "tight" | "impossible"
    timeout: float
    tenant: str
    downgradable: bool
    pending: object = field(default=None, repr=False)


def _makers():
    from ..problems import make_dtw, make_lcs, make_levenshtein

    return {"levenshtein": make_levenshtein, "lcs": make_lcs, "dtw": make_dtw}


def _build_schedule(config: SoakConfig) -> list[_Shot]:
    """The deterministic traffic schedule both phases replay."""
    rng = random.Random(config.seed)
    makers = _makers()
    names = list(config.problems)
    weights = config.bucket_weights
    shots: list[_Shot] = []

    def make_shot(offset: float, *, bucket: str | None = None) -> _Shot:
        name = rng.choice(names)
        size = rng.choice(config.sizes)
        problem = makers[name](size, seed=rng.randrange(1 << 16))
        if bucket is None:
            bucket = rng.choices(
                ("generous", "tight", "impossible"), weights=weights
            )[0]
        if bucket == "generous":
            timeout = config.generous_deadline
        elif bucket == "tight":
            timeout = rng.uniform(*config.tight_deadline)
        else:
            timeout = config.impossible_deadline
        tenant = (
            "metered" if rng.random() < config.metered_tenant_share
            else "default"
        )
        return _Shot(
            offset=offset, problem=problem, bucket=bucket, timeout=timeout,
            tenant=tenant,
            downgradable=rng.random() < config.downgradable_share,
        )

    t = 0.0
    while True:
        t += rng.expovariate(config.rps)
        if t >= config.duration:
            break
        shots.append(make_shot(t))
    # The scale-up burst: a same-instant clump of feasible work deep enough
    # to overflow backlog_per_worker and wake the autoscaler.
    burst_t = config.duration * config.burst_at
    for _ in range(config.burst_size):
        shots.append(make_shot(burst_t, bucket="generous"))
    shots.sort(key=lambda s: s.offset)
    return shots


def _run_phase(
    config: SoakConfig, schedule: list[_Shot], *, admission: bool
) -> tuple[dict, list[tuple[object, np.ndarray]]]:
    """Drive one phase; returns (phase report, oracle samples)."""
    policy = config.policy(admission=admission)
    counts = {
        "submitted": 0, "shed": 0, "quota_rejected": 0, "overloaded": 0,
        "attained": 0, "missed": 0, "failed": 0, "downgraded": 0,
    }
    failures: dict[str, int] = {}
    buckets: dict[str, dict[str, int]] = {
        b: {"submitted": 0, "shed": 0, "attained": 0, "missed": 0}
        for b in ("generous", "tight", "impossible")
    }
    miss_details: list[dict] = []
    samples: list[tuple[object, np.ndarray]] = []
    max_workers_seen = 0
    service_config = ServiceConfig(
        backend=config.backend,
        workers=config.workers,
        queue_size=config.queue_size,
        cache_size=0,  # every request pays real work — no cache shortcuts
        retries=config.retries,
        coalesce_window=config.coalesce_window,
        max_batch=config.max_batch,
        slo=policy,
    )
    with SolveService(hetero_high(), config=service_config) as svc:
        # Warmup: one undeadlined solve per (kind, size) calibrates the
        # pricer's unit->wall ratios and warms plan caches before any
        # request is priced against a deadline.
        makers = _makers()
        for name in config.problems:
            for size in config.sizes:
                svc.solve(makers[name](size, seed=0))
        fault_ctx = (
            inject_faults(FaultPlan.parse(list(config.fault_specs)))
            if config.fault_specs else None
        )
        try:
            if fault_ctx is not None:
                fault_ctx.__enter__()
            t0 = time.monotonic()
            for shot in schedule:
                lag = t0 + shot.offset - time.monotonic()
                if lag > 0:
                    time.sleep(lag)
                request = SolveRequest(
                    shot.problem,
                    timeout=shot.timeout,
                    tenant=shot.tenant,
                    downgradable=shot.downgradable,
                )
                try:
                    shot.pending = svc.submit(request)
                    counts["submitted"] += 1
                    buckets[shot.bucket]["submitted"] += 1
                except AdmissionRejected:
                    counts["shed"] += 1
                    buckets[shot.bucket]["shed"] += 1
                except QuotaExceeded:
                    counts["quota_rejected"] += 1
                except ServiceOverloaded:
                    counts["overloaded"] += 1
            max_workers_seen = max(max_workers_seen, svc.stats()["workers"])
            for shot in schedule:
                if shot.pending is None:
                    continue
                max_workers_seen = max(
                    max_workers_seen, svc.stats()["workers"]
                )
                try:
                    result = shot.pending.result()
                except ReproError as exc:
                    name = type(exc).__name__
                    failures[name] = failures.get(name, 0) + 1
                    if name == "ServiceTimeout":
                        counts["missed"] += 1
                        buckets[shot.bucket]["missed"] += 1
                        miss_details.append({
                            "bucket": shot.bucket,
                            "timeout_s": shot.timeout,
                            "offset_s": round(shot.offset, 3),
                            "predicted_s": getattr(
                                shot.pending, "_priced_wall", None
                            ),
                        })
                    else:
                        counts["failed"] += 1
                    continue
                counts["attained"] += 1
                buckets[shot.bucket]["attained"] += 1
                if shot.pending.downgraded is not None:
                    counts["downgraded"] += 1
                elif (
                    admission
                    and result.table is not None
                    and len(samples) < config.oracle_checks
                ):
                    samples.append((shot.problem, result.table.copy()))
        finally:
            if fault_ctx is not None:
                fault_ctx.__exit__(*sys.exc_info())
        # Cooldown: traffic is gone; the autoscaler must walk the pool back
        # down to min_workers on its own.
        deadline = time.monotonic() + config.cooldown
        while time.monotonic() < deadline:
            if svc.stats()["workers"] <= config.min_workers:
                break
            time.sleep(config.scale_interval)
        stats = svc.stats()
    after = svc.stats()  # post-close: every thread ever started is joined
    admitted = counts["attained"] + counts["missed"] + counts["failed"]
    phase = {
        **counts,
        "admitted": admitted,
        "attainment": (counts["attained"] / admitted) if admitted else None,
        "buckets": buckets,
        "miss_details": miss_details,
        "failures": failures,
        "scale_ups": stats["slo"]["scale_ups"],
        "scale_downs": stats["slo"]["scale_downs"],
        "max_workers_seen": max(max_workers_seen, stats["workers"]),
        "final_workers": stats["workers"],
        "workers_started": after["workers_started"],
        "workers_alive_after_close": after["workers_alive"],
        "calibration": stats["slo"]["calibration"],
        "price_error": stats["slo"]["price_error"],
        "tenants": stats["slo"]["tenants"],
    }
    return phase, samples


def _verify_oracle(samples: list[tuple[object, np.ndarray]]) -> dict:
    """Bit-compare sampled service tables against the sequential oracle."""
    fw = Framework(hetero_high())
    mismatches = 0
    for problem, table in samples:
        oracle = fw.solve(problem, executor="sequential")
        if not np.array_equal(oracle.table, table):
            mismatches += 1
    return {"checked": len(samples), "mismatches": mismatches}


def run_soak(config: SoakConfig | None = None) -> dict:
    """Run both phases plus the oracle check; returns the report dict."""
    config = config or SoakConfig()
    schedule = _build_schedule(config)
    on, samples = _run_phase(config, schedule, admission=True)
    for shot in schedule:
        shot.pending = None  # replay cleanly in the baseline phase
    off, _ = _run_phase(config, schedule, admission=False)
    oracle = _verify_oracle(samples)
    checks = {
        "attainment_ok": (
            on["attainment"] is not None
            and on["attainment"] >= config.attainment_target
        ),
        "baseline_worse": (
            on["attainment"] is not None and off["attainment"] is not None
            and off["attainment"] < on["attainment"]
        ),
        "oracle_ok": oracle["checked"] > 0 and oracle["mismatches"] == 0,
        "returned_to_min_workers": (
            on["final_workers"] == config.min_workers
            and off["final_workers"] == config.min_workers
        ),
        "no_worker_leak": (
            on["workers_alive_after_close"] == 0
            and off["workers_alive_after_close"] == 0
        ),
    }
    return {
        "config": asdict(config),
        "scheduled_requests": len(schedule),
        "phases": {"admission_on": on, "admission_off": off},
        "oracle": oracle,
        "checks": checks,
        "ok": all(checks.values()),
    }


# -- CLI plumbing (shared by `repro-lddp soak` and tools/soak.py) --------------


def add_soak_args(parser) -> None:
    """Attach the soak knobs to an ``argparse`` parser."""
    parser.add_argument("--duration", type=float, default=3.0,
                        help="traffic window per phase, seconds")
    parser.add_argument("--rps", type=float, default=40.0,
                        help="mean request rate (Poisson arrivals)")
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic schedule seed")
    parser.add_argument("--max-workers", type=int, default=4,
                        help="autoscaler ceiling")
    parser.add_argument("--backend", choices=["thread", "process"],
                        default="thread",
                        help="service execution backend for both phases")
    parser.add_argument(
        "--inject-fault", action="append", metavar="SITE:SPEC", default=None,
        help="chaos fault spec(s) armed for the whole run (default: "
             "'serve.execute:rate=0.03'; pass 'none' to disable)",
    )
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the JSON report here")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 unless every SLO check passes")


def config_from_args(args) -> SoakConfig:
    specs = args.inject_fault
    if specs is None:
        specs = ("serve.execute:rate=0.03",)
    elif list(specs) == ["none"]:
        specs = ()
    return SoakConfig(
        duration=args.duration,
        rps=args.rps,
        seed=args.seed,
        max_workers=args.max_workers,
        backend=args.backend,
        fault_specs=tuple(specs),
    )


def soak_main(args) -> int:
    """Run a soak from parsed CLI args; prints the report, applies --gate."""
    report = run_soak(config_from_args(args))
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
        print(f"\nwrote {args.report}", file=sys.stderr)
    if args.gate and not report["ok"]:
        failed = [name for name, ok in report["checks"].items() if not ok]
        print(f"soak gate FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0
