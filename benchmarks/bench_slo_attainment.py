"""SLO attainment: admission control on vs off under identical traffic.

Replays one deterministic mixed-traffic schedule (three deadline buckets, a
mid-window burst, injected faults, a metered tenant) through the soak
harness twice — once with the full SLO policy (admission pricing, EDF
scheduling, down-tiers, autoscaling) and once with every mechanism off —
and reports the deadline-attainment delta. The acceptance bar is the soak
gate itself: >= 99% attainment for admitted requests with admission on, and
a strictly worse baseline, proving the controller is doing real work rather
than riding a trivially feasible workload.

The soak replays a fixed-rate schedule and measures attainment, not wall
clock, so this script times no arms (its workload reports ``"arms": {}``)
and ignores ``--reps``.

Run standalone (CI smoke)::

    python benchmarks/bench_slo_attainment.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import sys

import _harness
from repro.slo import SoakConfig, run_soak

SEED = 0


def measure(quick: bool, reps: int) -> dict:
    if quick:
        config = SoakConfig(
            duration=2.0, rps=30.0, seed=SEED, burst_size=16,
            oracle_checks=3, cooldown=4.0, max_workers=3,
        )
    else:
        config = SoakConfig(duration=8.0, rps=40.0, seed=SEED)
    soak = run_soak(config)
    on = soak["phases"]["admission_on"]
    off = soak["phases"]["admission_off"]
    return {"workloads": [{
        "workload": f"{soak['scheduled_requests']} scheduled requests",
        "arms": {},
        "attainment_on": on["attainment"],
        "attainment_off": off["attainment"],
        "delta": on["attainment"] - off["attainment"],
        "shed": on["shed"],
        "downgraded": on["downgraded"],
        "quota_rejected": on["quota_rejected"],
        "max_workers_seen": on["max_workers_seen"],
        "oracle_checked": soak["oracle"]["checked"],
        "oracle_mismatches": soak["oracle"]["mismatches"],
        "checks": soak["checks"],
        "ok": soak["ok"],
    }]}


def report(r: dict) -> list[str]:
    w = r["workloads"][0]
    return [
        f"  admission on  : {w['attainment_on']:7.2%} of admitted met their "
        f"deadline ({w['shed']} shed, {w['downgraded']} downgraded, "
        f"{w['quota_rejected']} over quota; pool grew to "
        f"{w['max_workers_seen']} workers)",
        f"  admission off : {w['attainment_off']:7.2%} (same schedule, "
        f"everything admitted FIFO on a fixed pool)",
        f"  delta         : {w['delta']:+7.2%}  "
        f"(oracle: {w['oracle_checked']} tables bit-compared, "
        f"{w['oracle_mismatches']} mismatches)",
        f"  soak checks   : {'PASS' if w['ok'] else 'FAIL'} {w['checks']}",
    ]


def _gate(r: dict) -> str | None:
    """First failed acceptance condition, or ``None`` when all hold."""
    w = r["workloads"][0]
    if not w["ok"]:
        return f"soak gate failed: {w['checks']}"
    if w["delta"] <= 0:
        return (f"admission-off baseline should be measurably worse "
                f"(delta {w['delta']:+.2%})")
    return None


def test_admission_beats_baseline():
    assert _harness.run(__name__, []) == 0


if __name__ == "__main__":
    sys.exit(_harness.run(__name__))
