"""Cost model of the delta tier: one probe pass plus cone-sized replay.

A delta patch performs

* one cell-function pass over the computed region (the seed probe — same
  cost shape as the scan tier's zero probe), and
* the cone replay: cone-volume cells of real recurrence work, paid one
  fork/join per cone wavefront (the replay runs one Python-level
  gather -> cell -> scatter per wave, charged at the CPU model's fork
  cost, like the rowscan path).

Both the patched result's ``simulated_time``/timeline and the SLO
admission price (:func:`delta_makespan`) are built from one list of cost
terms (:func:`_cost_terms`), so for the same cone, wave count and probe the
price equals the timeline's makespan: near-duplicate traffic is priced as
the cone it will actually recompute, not as the full sweep it avoids.
"""

from __future__ import annotations

from ..core.problem import LDDPProblem
from ..exec.base import ExecOptions
from ..patterns.registry import strategy_for
from ..sim.engine import Engine

__all__ = ["delta_timeline", "delta_makespan"]


def _cost_terms(
    problem: LDDPProblem, platform, cone_cells: int, waves: int,
    probed_cells: int,
) -> list[tuple[str, float]]:
    """The patch's serial ``(label, seconds)`` terms: probe, then replay."""
    cpu = platform.cpu
    terms = []
    if probed_cells > 0:
        terms.append(
            ("delta.probe", cpu.parallel_time(probed_cells, problem.cpu_work))
        )
    if cone_cells > 0:
        terms.append((
            "delta.patch",
            cpu.parallel_time(cone_cells, problem.cpu_work)
            + waves * cpu.fork_us * 1e-6,
        ))
    return terms


def delta_timeline(
    problem: LDDPProblem,
    platform,
    cone_cells: int,
    waves: int,
    *,
    probed_cells: int | None = None,
):
    """DES timeline of one delta patch: probe task plus cone replay.

    ``probed_cells`` is how many cells the seed probe actually evaluated —
    the candidate set plus the locality spot-check when the payload
    declares read locality, the whole computed region otherwise (also the
    default, matching the declaration-free worst case).
    """
    if probed_cells is None:
        probed_cells = problem.total_computed_cells
    engine = Engine()
    for label, seconds in _cost_terms(
        problem, platform, cone_cells, waves, probed_cells
    ):
        engine.task("cpu", seconds, label=label, kind="compute")
    return engine.run()


def delta_makespan(
    problem: LDDPProblem,
    platform,
    *,
    cone_fraction: float = 0.25,
    options=None,
) -> float:
    """Closed-form seconds for one delta patch (the admission price).

    The true cone is unknown at admission time, so the price assumes the
    SLO policy's expected ``cone_fraction`` of the computed region, replayed
    over the same fraction of the schedule's wavefronts; the EWMA
    calibration (:meth:`repro.slo.pricing.Pricer.observe`) then pulls the
    price toward the traffic's real cone sizes. A problem with a
    ``payload_locality`` declaration is priced with a cone-sized probe (the
    candidate set tracks the edit); one without pays the full-table probe
    pass. ``options`` picks the schedule, as for the patch itself.
    """
    cells = problem.total_computed_cells
    cone = max(0, int(cone_fraction * cells))
    probe = cone if problem.payload_locality else cells
    waves = 0
    if cone:
        opts = options or ExecOptions()
        schedule = strategy_for(
            problem,
            pattern_override=opts.pattern_override,
            inverted_l_as_horizontal=opts.inverted_l_as_horizontal,
        ).schedule
        waves = round(cone_fraction * schedule.num_iterations)
    return sum(
        seconds for _, seconds in _cost_terms(problem, platform, cone, waves,
                                              probe)
    )
