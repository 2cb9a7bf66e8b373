"""List-scheduling engine.

Tasks must be submitted in an order consistent with their dependencies (a
task may only depend on already-submitted tasks), which makes the submission
order a topological order by construction; a single linear pass then computes
start/end times:

    start(T) = max( available(resource(T)), max over deps d of end(d) )

This mirrors how a CUDA runtime resolves stream/event dependencies and is
exact for FIFO resources. :class:`Makespan` applies the same rule as tasks
arrive and keeps only the makespan, for callers that need nothing else.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..obs import get_metrics, get_tracer
from .event import Task
from .timeline import TaskRecord, Timeline

__all__ = ["Engine", "Makespan"]


class Engine:
    """Accumulates tasks, then resolves them into a :class:`Timeline`."""

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._resolved: Timeline | None = None

    def add(self, task: Task) -> int:
        """Submit a task; returns its id for use in later ``deps``."""
        if self._resolved is not None:
            raise SimulationError("engine already ran; create a new Engine")
        tid = len(self._tasks)
        for d in task.deps:
            if not 0 <= d < tid:
                raise SimulationError(
                    f"task {tid} depends on unknown/future task {d}"
                )
        self._tasks.append(task)
        return tid

    def task(
        self,
        resource: str,
        duration: float,
        deps: tuple[int, ...] | list[int] = (),
        label: str = "",
        **meta,
    ) -> int:
        """Convenience wrapper around :meth:`add`."""
        return self.add(
            Task(
                resource=resource,
                duration=duration,
                deps=tuple(deps),
                label=label,
                meta=meta,
            )
        )

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def run(self) -> Timeline:
        """Resolve all tasks; idempotent (returns the cached timeline)."""
        if self._resolved is not None:
            return self._resolved
        with get_tracer().span("engine.run", cat="sim", num_tasks=len(self._tasks)):
            self._resolved = self._resolve()
        metrics = get_metrics()
        metrics.counter("sim.engine.runs").inc()
        metrics.counter("sim.engine.tasks").inc(len(self._tasks))
        return self._resolved

    def _resolve(self) -> Timeline:
        available: dict[str, float] = {}
        last_on: dict[str, int] = {}
        records: list[TaskRecord] = []
        ends: list[float] = []
        for tid, t in enumerate(self._tasks):
            # the *binding* predecessor: whichever constraint set the start
            # time (the resource's previous occupant, or the latest-ending
            # dependency) — recorded so Timeline.critical_path can walk the
            # bottleneck chain. None when the task starts at time zero.
            start = available.get(t.resource, 0.0)
            binding = last_on.get(t.resource) if start > 0.0 else None
            for d in t.deps:
                if ends[d] > start:
                    start = ends[d]
                    binding = d
            end = start + t.duration
            available[t.resource] = end
            ends.append(end)
            records.append(
                TaskRecord(
                    tid=tid,
                    resource=t.resource,
                    label=t.label,
                    start=start,
                    end=end,
                    deps=t.deps,
                    meta=dict(t.meta),
                    binding=binding,
                )
            )
            last_on[t.resource] = tid
        return Timeline(records)


class Makespan:
    """Makespan-only sink with :meth:`Engine.task`'s signature.

    Resolves each task on submission with the same start rule; the handle
    returned for use in later ``deps`` is the task's end time, so nothing
    but per-resource availability and the running makespan is kept.
    """

    def __init__(self) -> None:
        self._available: dict[str, float] = {}
        self.makespan = 0.0

    def task(
        self,
        resource: str,
        duration: float,
        deps: tuple[float, ...] | list[float] = (),
        label: str = "",
        **meta,
    ) -> float:
        start = self._available.get(resource, 0.0)
        for end in deps:
            if end > start:
                start = end
        end = start + duration
        self._available[resource] = end
        if end > self.makespan:
            self.makespan = end
        return end
