"""Scan tier: routing, degradation, estimate-only guard, pricing, CLI.

The load-bearing guarantees:

* declared-linear problems route to the scan tier on every wavefront
  executor (never ``sequential`` — it stays the independent oracle), with
  ``ExecOptions(scan=False)`` / CLI ``--no-scan`` as the opt-out;
* any scan failure (injected ``scan.solve`` fault, wrong declaration)
  degrades to the wavefront path *bit-identically*, with the reason in
  ``stats["route"]`` and ``scan.degraded`` counting it — while deadline aborts
  surface instead of degrading;
* estimate-only problems (``materialize=False``) fail a functional solve
  with a clear :class:`CellFunctionError` at submission, locally and at the
  serve boundary, while ``estimate()`` keeps working;
* admission pricing routes scan-applicable requests through the scan
  timing model.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ContributingSet, ExecOptions, Framework, LDDPProblem
from repro.core.linear import LinearSpec
from repro.errors import (
    CellFunctionError,
    ProblemSpecError,
    ScanMismatch,
    ServiceTimeout,
)
from repro.faults import inject_faults
from repro.machine.platform import hetero_high
from repro.obs import get_metrics
from repro.problems.dithering import make_diffusion
from repro.problems.levenshtein import make_levenshtein
from repro.problems.prefix_sum import make_prefix_sum, reference_prefix_sum
from repro.problems.synthetic import make_linear, make_synthetic
from repro.scan import (
    linear_term,
    scan_applicable,
    scan_makespan,
    scan_solve,
    scan_timeline,
    verify_spec,
)
from repro.serve import ServiceConfig, SolveRequest, SolveService

WAVEFRONT_EXECUTORS = ["cpu", "cpu-blocked", "hetero", "gpu"]


# -- declaration --------------------------------------------------------------


class TestLinearSpec:
    def test_separable_iff_inclusion_exclusion(self):
        assert LinearSpec(w=1, nw=-1, n=1).separable
        assert LinearSpec(w=2, nw=-6, n=3).separable
        assert not LinearSpec(w=1, nw=0, n=1).separable
        assert not LinearSpec(w=1, nw=-1, n=1, ne=1).separable

    def test_validate_rejects_coeff_on_non_member(self):
        with pytest.raises(ProblemSpecError):
            LinearSpec(w=1, n=1).validate(ContributingSet.of("W"), "p")

    def test_conflicting_declarations_rejected(self):
        p = make_prefix_sum(8)
        with pytest.raises(ProblemSpecError):
            LDDPProblem(
                name="conflict",
                shape=(8, 8),
                contributing=p.contributing,
                cell=p.cell,
                init=None,
                dtype=p.dtype,
                payload=p.payload,
                oob_value=0,
                linear=LinearSpec(w=2, nw=-2, n=1),
            )


# -- routing ------------------------------------------------------------------


class TestRouting:
    @pytest.mark.parametrize("executor", WAVEFRONT_EXECUTORS)
    def test_prefix_sum_scans_on_every_wavefront_executor(self, fw, executor):
        p = make_prefix_sum(48)
        solved_before = get_metrics().counter("scan.solved").value
        res = fw.solve(p, executor=executor)
        assert res.stats["solver"] == "scan"
        assert res.stats["scan_path"] == "separable"
        assert get_metrics().counter("scan.solved").value == solved_before + 1
        assert np.array_equal(res.table, reference_prefix_sum(p.payload["x"]))

    def test_sequential_is_never_routed(self, fw):
        p = make_prefix_sum(32)
        res = fw.solve(p, executor="sequential")
        assert "solver" not in res.stats
        assert np.array_equal(res.table, reference_prefix_sum(p.payload["x"]))

    def test_opt_out_runs_wavefront(self, fw):
        p = make_prefix_sum(32)
        res = fw.solve(p, executor="cpu", options=ExecOptions(scan=False))
        assert "solver" not in res.stats
        assert np.array_equal(res.table, reference_prefix_sum(p.payload["x"]))

    def test_undeclared_problems_untouched(self, fw):
        p = make_synthetic(ContributingSet.of("W", "N"), 24, 24)
        declined_before = get_metrics().counter("scan.declined").value
        res = fw.solve(p, executor="cpu")
        assert "solver" not in res.stats
        # Undeclared problems never reach the router's applicability check.
        assert get_metrics().counter("scan.declined").value == declined_before

    def test_rowscan_diffusion_matches_wavefront(self, fw):
        p = make_diffusion(40)
        res = fw.solve(p, executor="cpu")
        assert res.stats["solver"] == "scan"
        assert res.stats["scan_path"] == "rowscan"
        ref = fw.solve(
            p, executor="cpu", options=ExecOptions(scan=False)
        ).table
        np.testing.assert_allclose(res.table, ref, rtol=1e-9, atol=1e-9)

    def test_general_linear_bit_equal_to_wavefront(self, fw):
        p = make_linear(20, 13, a=3, b=-2, c=5, e=-1, seed=4)
        res = fw.solve(p, executor="cpu")
        assert res.stats["solver"] == "scan"
        assert res.stats["scan_path"] == "rowscan"
        ref = fw.solve(
            p, executor="cpu", options=ExecOptions(scan=False)
        ).table
        assert np.array_equal(res.table, ref)

    def test_estimate_not_routed(self, fw):
        p = make_prefix_sum(64, materialize=False)
        est = fw.estimate(p, executor="cpu")
        assert est.simulated_time > 0.0


# -- degradation --------------------------------------------------------------


class TestDegradation:
    def test_injected_fault_degrades_bit_identically(self, fw):
        p = make_prefix_sum(40)
        degraded_before = get_metrics().counter("scan.degraded").value
        with inject_faults("scan.solve:nth=1"):
            res = fw.solve(p, executor="cpu")
        assert res.stats["degraded"] == "wavefront"
        [step] = res.stats["route"]
        assert step["tier"] == "scan"
        assert "InjectedFault" in step["reason"]
        assert "solver" not in res.stats
        assert get_metrics().counter("scan.degraded").value \
            == degraded_before + 1
        assert np.array_equal(res.table, reference_prefix_sum(p.payload["x"]))

    def test_wrong_declaration_degrades_bit_identically(self, fw):
        """A non-linear cell falsely declared linear: verify_spec catches it,
        the solve degrades, and the table is the wavefront truth."""
        base = make_synthetic(ContributingSet.of("W", "N"), 16, 16)
        lying = LDDPProblem(
            name="lying-linear",
            shape=base.shape,
            contributing=base.contributing,
            cell=base.cell.fn,
            init=None,
            dtype=base.dtype,
            oob_value=0,
            linear=LinearSpec(w=1, n=1),
        )
        res = fw.solve(lying, executor="cpu")
        assert res.stats["degraded"] == "wavefront"
        [step] = res.stats["route"]
        assert step["tier"] == "scan"
        assert "ScanMismatch" in step["reason"]
        ref = fw.solve(base, executor="sequential").table
        assert np.array_equal(res.table, ref)

    def test_expired_deadline_surfaces_not_degrades(self, fw):
        p = make_prefix_sum(32)
        with pytest.raises(ServiceTimeout):
            fw.solve(
                p, executor="cpu",
                options=ExecOptions(deadline=time.monotonic() - 1.0),
            )

    def test_fractional_coeff_on_integer_dtype_is_mismatch(self):
        p = make_linear(8, 8, a=1, b=1)
        bad = LDDPProblem(
            name="frac-int",
            shape=p.shape,
            contributing=p.contributing,
            cell=p.cell.fn,
            init=None,
            dtype=np.dtype(np.int64),
            payload=dict(p.payload),
            oob_value=0,
            linear=LinearSpec(w=0.5, n=1),
        )
        with pytest.raises(ScanMismatch):
            scan_solve(bad)


# -- estimate-only guard ------------------------------------------------------


class TestEstimateOnlyGuard:
    @pytest.mark.parametrize("maker", [make_prefix_sum, make_levenshtein])
    def test_solve_raises_clear_error(self, fw, maker):
        p = maker(32, materialize=False)
        with pytest.raises(CellFunctionError, match="estimate-only"):
            fw.solve(p, executor="cpu")
        assert fw.estimate(p, executor="cpu").simulated_time > 0.0

    def test_serve_submit_rejects_functional(self):
        p = make_prefix_sum(32, materialize=False)
        with SolveService(
            hetero_high(), config=ServiceConfig(workers=1)
        ) as svc:
            with pytest.raises(CellFunctionError, match="estimate-only"):
                svc.submit(SolveRequest(problem=p))
            pending = svc.submit(SolveRequest(problem=p, functional=False))
            assert pending.result(timeout=30.0).simulated_time > 0.0


# -- pricing and solver internals ---------------------------------------------


class TestPricing:
    def test_applicability_mirrors_router(self):
        p = make_prefix_sum(32)
        assert scan_applicable(p)
        assert scan_applicable(p, ExecOptions(), "cpu")
        assert not scan_applicable(p, ExecOptions(scan=False), "cpu")
        assert not scan_applicable(p, ExecOptions(), "sequential")
        assert not scan_applicable(
            make_synthetic(ContributingSet.of("W"), 8, 8)
        )

    def test_scan_makespan_beats_wavefront_model(self, high):
        from repro.exec.hetero import fast_hetero_makespan

        p = make_prefix_sum(512)
        scan = scan_makespan(p, high)
        wavefront = fast_hetero_makespan(p, high)
        assert 0.0 < scan < wavefront

    @pytest.mark.parametrize("make", [
        lambda: make_diffusion(17),
        lambda: make_linear(64),
        lambda: make_prefix_sum(256),
    ], ids=["diffusion-17", "linear-64", "prefix-sum-256"])
    def test_price_equals_timeline(self, make):
        p = make()
        platform = hetero_high()
        assert scan_makespan(p, platform) == scan_timeline(p, platform).makespan

    def test_pricer_routes_scan_requests_through_scan_model(self, fw):
        from repro.slo.pricing import Pricer

        p = make_prefix_sum(256)
        pricer = Pricer(fw)
        units = pricer.units(p, executor="cpu")
        assert units == pytest.approx(scan_makespan(p, fw.platform))

    def test_linear_term_recovers_d_exactly(self):
        p = make_linear(12, 9, a=2, b=-3, c=1, e=4, seed=7)
        assert np.array_equal(linear_term(p), p.payload["d"])

    def test_verify_spec_accepts_honest_declaration(self):
        p = make_linear(10, 10, a=1, b=1, c=-1, seed=3)
        verify_spec(p, linear_term(p))


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_solve_linear_reports_scan(self, capsys):
        from repro.cli import main

        assert main(["solve", "linear", "--size", "48"]) == 0
        out = capsys.readouterr().out
        assert "solver    : scan" in out

    def test_no_scan_flag_disables_tier(self, capsys):
        from repro.cli import main

        assert main(["solve", "linear", "--size", "48", "--no-scan"]) == 0
        out = capsys.readouterr().out
        assert "solver    : scan" not in out

    def test_diffusion_registered(self, capsys):
        from repro.cli import main

        assert main(["solve", "diffusion", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "scan_path : rowscan" in out
