"""Property tests for the scan tier (hypothesis).

The claims under randomized attack:

* for every coefficient combination, shape and seed, the integer scan is
  *bit-equal* to the sequential wavefront oracle — the Z/2^64 ring argument
  says regrouped integer arithmetic is exact, including wraparound;
* degradation under an injected ``scan.solve`` fault is invisible in the
  table: the wavefront fallback is bit-identical to the scan result;
* the float separable path stays within verification tolerance of the
  closed-form :func:`reference_prefix_sum` oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Framework
from repro.faults import inject_faults
from repro.machine.platform import hetero_high
from repro.problems.prefix_sum import make_prefix_sum, reference_prefix_sum
from repro.problems.synthetic import make_linear

SETTINGS = settings(max_examples=40, deadline=None)
FEWER = settings(max_examples=15, deadline=None)

#: Module-level framework: hypothesis reruns examples many times per test,
#: and function-scoped fixtures don't mix with ``@given``.
FW = Framework(hetero_high())

_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def linear_cases(draw):
    """(rows, cols, a, b, c, e, seed) with at least one nonzero coefficient."""
    rows = draw(st.integers(min_value=1, max_value=18))
    cols = draw(st.integers(min_value=1, max_value=18))
    coeffs = draw(
        st.tuples(_coeff, _coeff, _coeff, _coeff).filter(
            lambda t: any(co != 0 for co in t)
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return (rows, cols, *coeffs, seed)


class TestScanProperties:
    @SETTINGS
    @given(case=linear_cases())
    def test_integer_scan_bit_equal_to_sequential_oracle(self, case):
        rows, cols, a, b, c, e, seed = case
        p = make_linear(rows, cols, a=a, b=b, c=c, e=e, seed=seed)
        res = FW.solve(p, executor="cpu")
        assert res.stats.get("solver") == "scan"
        oracle = FW.solve(p, executor="sequential").table
        assert np.array_equal(res.table, oracle)

    @FEWER
    @given(case=linear_cases())
    def test_fault_degradation_is_bit_identical(self, case):
        rows, cols, a, b, c, e, seed = case
        p = make_linear(rows, cols, a=a, b=b, c=c, e=e, seed=seed)
        with inject_faults("scan.solve:nth=1"):
            degraded = FW.solve(p, executor="cpu")
        assert degraded.stats["degraded"] == "wavefront"
        [step] = degraded.stats["route"]
        assert step["tier"] == "scan"
        assert "InjectedFault" in step["reason"]
        scanned = FW.solve(p, executor="cpu")
        assert scanned.stats["solver"] == "scan"
        assert np.array_equal(degraded.table, scanned.table)

    @SETTINGS
    @given(
        rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_integer_prefix_sum_bit_equal_to_closed_form(
        self, rows, cols, seed
    ):
        p = make_prefix_sum(rows, cols, seed=seed)
        res = FW.solve(p, executor="cpu")
        assert res.stats["solver"] == "scan"
        assert res.stats["scan_path"] == "separable"
        assert np.array_equal(res.table, reference_prefix_sum(p.payload["x"]))

    @SETTINGS
    @given(
        rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_float_prefix_sum_within_tolerance(self, rows, cols, seed):
        p = make_prefix_sum(rows, cols, seed=seed, integer=False)
        res = FW.solve(p, executor="cpu")
        assert res.stats["solver"] == "scan"
        np.testing.assert_allclose(
            res.table,
            reference_prefix_sum(p.payload["x"]),
            rtol=1e-9,
            atol=1e-12,
        )
