"""Deterministic discrete-event engine for heterogeneous execution.

The engine schedules :class:`~repro.sim.event.Task` objects — compute chunks
and transfers — onto named resources (``cpu``, ``gpu``, ``copy``, ``bus``),
respecting explicit dependencies and per-resource FIFO order. It produces a
:class:`~repro.sim.timeline.Timeline` with per-task start/end times, the
makespan, and per-resource utilization.

This is what replaces wall-clock measurement on real CUDA hardware: the
executors submit exactly the tasks the paper's runtime would issue (one kernel
per wavefront, one boundary copy per split iteration, ...), with durations
from :mod:`repro.machine`, and the engine computes when everything finishes —
including the overlap that CUDA streams buy (paper Sec. IV-C1).
"""

from .event import Task
from .engine import Engine, Makespan
from .stream import Stream
from .timeline import Timeline, TaskRecord

__all__ = [
    "Task",
    "Engine",
    "Makespan",
    "Stream",
    "Timeline",
    "TaskRecord",
]
