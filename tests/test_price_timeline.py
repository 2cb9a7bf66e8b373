"""One cost model per tier: every admission price equals its timeline.

Each solve tier prices a request with a closed form that must be *the same
number* as the makespan of the DES timeline that tier's run would show:

* hetero — :func:`~repro.exec.hetero.fast_hetero_makespan` against the
  ``Framework.estimate`` timeline (one task graph, two sinks);
* blocked — :func:`~repro.exec.blocked.fast_blocked_makespan` against the
  ``cpu-blocked`` executor's barrier timeline (one per-wave cost list);
* scan — :func:`~repro.scan.timing.scan_makespan` against
  :func:`~repro.scan.timing.scan_timeline` (one cost-term list);
* delta — :func:`~repro.delta.timing.delta_makespan` against
  :func:`~repro.delta.timing.delta_timeline` for the cone, wave count and
  probe admission assumes.

Every comparison is ``==``: a drift of one summation order fails here.
"""

from __future__ import annotations

import pytest

from repro import ContributingSet, ExecOptions, Framework
from repro.delta.timing import delta_makespan, delta_timeline
from repro.exec.blocked import BlockedCPUExecutor, fast_blocked_makespan
from repro.exec.hetero import fast_hetero_makespan
from repro.machine.platform import hetero_high, hetero_low
from repro.patterns.registry import strategy_for
from repro.problems import (
    make_checkerboard,
    make_diffusion,
    make_dithering,
    make_fig8_problem,
    make_levenshtein,
    make_linear,
    make_prefix_sum,
    make_synthetic,
)
from repro.scan.timing import scan_makespan, scan_timeline


def _hetero(problem, platform):
    timeline = Framework(platform).estimate(problem).timeline
    return fast_hetero_makespan(problem, platform), timeline.makespan


def _blocked(problem, platform, block_size=8):
    options = ExecOptions(block_size=block_size)
    timeline = BlockedCPUExecutor(platform, options).estimate(problem).timeline
    return fast_blocked_makespan(problem, platform, options), timeline.makespan


def _scan(problem, platform):
    return scan_makespan(problem, platform), scan_timeline(
        problem, platform).makespan


def _delta(problem, platform, fraction=0.25):
    cells = problem.total_computed_cells
    cone = int(fraction * cells)
    waves = round(fraction * strategy_for(problem).schedule.num_iterations)
    probe = cone if problem.payload_locality else cells
    timeline = delta_timeline(problem, platform, cone, waves,
                              probed_cells=probe)
    price = delta_makespan(problem, platform, cone_fraction=fraction)
    return price, timeline.makespan


CASES = [
    pytest.param(_hetero, lambda: make_levenshtein(96), hetero_high(),
                 id="hetero-levenshtein-high"),
    pytest.param(_hetero, lambda: make_dithering(64), hetero_low(),
                 id="hetero-dithering-low"),
    pytest.param(_hetero, lambda: make_fig8_problem(64), hetero_low(),
                 id="hetero-inverted-l-low"),
    pytest.param(_blocked, lambda: make_synthetic(
        ContributingSet.from_mask(6), 48, 40), hetero_high(),
                 id="blocked-horizontal"),
    pytest.param(_blocked, lambda: make_synthetic(
        ContributingSet.from_mask(15), 40, 48), hetero_high(),
                 id="blocked-knight-move"),
    pytest.param(_scan, lambda: make_prefix_sum(256), hetero_high(),
                 id="scan-prefix-sum"),
    pytest.param(_scan, lambda: make_diffusion(17), hetero_high(),
                 id="scan-diffusion"),
    pytest.param(_scan, lambda: make_linear(64), hetero_low(),
                 id="scan-linear-low"),
    pytest.param(_delta, lambda: make_levenshtein(96), hetero_high(),
                 id="delta-declared"),
    pytest.param(_delta, lambda: make_checkerboard(64), hetero_low(),
                 id="delta-checkerboard-low"),
]


@pytest.mark.parametrize("priced,make,platform", CASES)
def test_price_equals_timeline(priced, make, platform):
    price, makespan = priced(make(), platform)
    assert price > 0.0
    assert price == makespan
