"""A short end-to-end soak run asserting the report schema and its gates.

The CI smoke and ``tools/soak.py`` run much longer windows; this test keeps
the traffic window small (a couple of seconds per phase) but still exercises
the full pipeline: mixed deadline buckets, a mid-window burst, fault
injection, quota metering, the admission-off baseline replay, the
sequential-oracle bit-compare and the scale-down/leak checks.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.slo import SoakConfig, run_soak
from repro.slo.soak import _build_schedule


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


SHORT = SoakConfig(
    duration=1.5,
    rps=30.0,
    seed=0,
    burst_size=12,
    oracle_checks=3,
    cooldown=4.0,
    max_workers=3,
)


class TestSchedule:
    def test_deterministic_for_a_seed(self):
        first = _build_schedule(SHORT)
        second = _build_schedule(SHORT)
        assert len(first) == len(second) > 0
        assert [s.offset for s in first] == [s.offset for s in second]
        assert [s.bucket for s in first] == [s.bucket for s in second]
        assert [s.timeout for s in first] == [s.timeout for s in second]

    def test_covers_every_bucket_and_tenant(self):
        shots = _build_schedule(SHORT)
        buckets = {s.bucket for s in shots}
        assert buckets == {"generous", "tight", "impossible"}
        tenants = {s.tenant for s in shots}
        assert "metered" in tenants and len(tenants) > 1
        assert [s.offset for s in shots] == sorted(s.offset for s in shots)
        assert any(s.downgradable for s in shots)

    def test_different_seed_different_schedule(self):
        other = _build_schedule(SoakConfig(
            duration=1.5, rps=30.0, seed=7, burst_size=12,
            oracle_checks=3, cooldown=4.0, max_workers=3,
        ))
        base = _build_schedule(SHORT)
        assert [s.offset for s in other] != [s.offset for s in base]


class TestSoakRun:
    @pytest.fixture(scope="class")
    def report(self):
        # Class-scoped: one real soak (two phases + cooldowns) shared by
        # every assertion below.
        previous = set_metrics(MetricsRegistry())
        try:
            return run_soak(SHORT)
        finally:
            set_metrics(previous)

    def test_report_is_json_serialisable(self, report):
        parsed = json.loads(json.dumps(report))
        assert parsed["ok"] == report["ok"]

    def test_overall_gate_passes(self, report):
        assert report["ok"], report["checks"]

    def test_phase_schema(self, report):
        for phase in ("admission_on", "admission_off"):
            stats = report["phases"][phase]
            for key in (
                "submitted", "shed", "quota_rejected", "attained", "missed",
                "failed", "downgraded", "admitted", "attainment", "buckets",
                "scale_ups", "scale_downs", "max_workers_seen",
                "final_workers", "workers_started",
                "workers_alive_after_close", "calibration", "price_error",
            ):
                assert key in stats, f"{phase} missing {key}"
        assert report["scheduled_requests"] > 0

    def test_admitted_requests_meet_attainment_target(self, report):
        on = report["phases"]["admission_on"]
        assert on["attainment"] >= SHORT.attainment_target
        assert on["attained"] > 0

    def test_admission_controls_fired(self, report):
        on = report["phases"]["admission_on"]
        off = report["phases"]["admission_off"]
        # The impossible bucket guarantees sheds when admission is on and
        # misses when it is off.
        assert on["shed"] > 0
        assert off["shed"] == 0
        assert report["checks"]["baseline_worse"]
        assert off["attainment"] < on["attainment"]

    def test_quota_metering_fired(self, report):
        on = report["phases"]["admission_on"]
        assert "metered" in on["tenants"]

    def test_oracle_bit_identical(self, report):
        assert report["oracle"]["checked"] > 0
        assert report["oracle"]["mismatches"] == 0

    def test_pool_scaled_and_returned_to_min(self, report):
        on = report["phases"]["admission_on"]
        assert on["final_workers"] == SHORT.min_workers
        assert on["workers_alive_after_close"] == 0
        assert report["checks"]["returned_to_min_workers"]
        assert report["checks"]["no_worker_leak"]

    def test_calibration_learned(self, report):
        on = report["phases"]["admission_on"]
        assert any(k.endswith(":solve") for k in on["calibration"])
