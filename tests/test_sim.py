"""Tests for repro.sim: tasks, engine scheduling, streams, timelines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Makespan, Stream, Task
from repro.sim.tracing import summarize, trace_json


class TestTask:
    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Task(resource="cpu", duration=-1.0)

    def test_nan_duration_rejected(self):
        with pytest.raises(SimulationError):
            Task(resource="cpu", duration=float("nan"))

    def test_resource_required(self):
        with pytest.raises(SimulationError):
            Task(resource="", duration=1.0)


class TestEngineScheduling:
    def test_fifo_on_one_resource(self):
        e = Engine()
        e.task("cpu", 2.0)
        e.task("cpu", 3.0)
        tl = e.run()
        assert tl[0].start == 0.0 and tl[0].end == 2.0
        assert tl[1].start == 2.0 and tl[1].end == 5.0
        assert tl.makespan == 5.0

    def test_independent_resources_overlap(self):
        e = Engine()
        e.task("cpu", 2.0)
        e.task("gpu", 3.0)
        tl = e.run()
        assert tl[1].start == 0.0
        assert tl.makespan == 3.0

    def test_dependency_delays_start(self):
        e = Engine()
        a = e.task("cpu", 2.0)
        e.task("gpu", 1.0, deps=(a,))
        tl = e.run()
        assert tl[1].start == 2.0

    def test_dep_and_fifo_combined(self):
        e = Engine()
        a = e.task("cpu", 5.0)
        e.task("gpu", 1.0)  # gpu busy until 1.0
        e.task("gpu", 1.0, deps=(a,))  # must wait for cpu (5.0) not gpu (1.0)
        tl = e.run()
        assert tl[2].start == 5.0

    def test_diamond_dependencies(self):
        e = Engine()
        a = e.task("cpu", 1.0)
        b = e.task("gpu", 2.0, deps=(a,))
        c = e.task("copy", 3.0, deps=(a,))
        d = e.task("cpu", 1.0, deps=(b, c))
        tl = e.run()
        assert tl[d].start == 4.0  # max(end(b)=3, end(c)=4)
        assert tl.makespan == 5.0

    def test_future_dep_rejected(self):
        e = Engine()
        with pytest.raises(SimulationError):
            e.task("cpu", 1.0, deps=(0,))  # refers to itself

    def test_unknown_dep_rejected(self):
        e = Engine()
        e.task("cpu", 1.0)
        with pytest.raises(SimulationError):
            e.task("cpu", 1.0, deps=(5,))

    def test_run_is_idempotent(self):
        e = Engine()
        e.task("cpu", 1.0)
        assert e.run() is e.run()

    def test_no_submission_after_run(self):
        e = Engine()
        e.task("cpu", 1.0)
        e.run()
        with pytest.raises(SimulationError):
            e.task("cpu", 1.0)

    def test_empty_engine(self):
        tl = Engine().run()
        assert tl.makespan == 0.0
        assert len(tl) == 0


_TASKS = st.lists(
    st.tuples(
        st.sampled_from(["cpu", "gpu", "copy", "bus"]),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=4),
    ),
    max_size=60,
)


class TestMakespanSink:
    """``Makespan`` resolves the same start rule as ``Engine``, on the fly."""

    @given(_TASKS)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_engine(self, tasks):
        engine, sink = Engine(), Makespan()
        ends: list[float] = []
        for i, (resource, duration, picks) in enumerate(tasks):
            deps = [p % i for p in picks] if i else []  # backward deps only
            engine.task(resource, duration, deps=deps, label=f"t{i}")
            ends.append(sink.task(resource, duration, deps=[ends[d] for d in deps]))
        timeline = engine.run()
        assert sink.makespan == timeline.makespan
        assert ends == [r.end for r in timeline]


class TestStream:
    def test_stream_serializes_across_resources(self):
        """CUDA-stream semantics: same-stream ops serialize on any engine."""
        e = Engine()
        s = Stream(e, "s0")
        s.push("copy", 2.0)
        s.push("gpu", 1.0)  # different resource, same stream
        tl = e.run()
        assert tl[1].start == 2.0

    def test_independent_streams_overlap(self):
        e = Engine()
        s0, s1 = Stream(e, "s0"), Stream(e, "s1")
        s0.push("copy", 2.0)
        s1.push("gpu", 2.0)
        tl = e.run()
        assert tl[0].start == 0.0 and tl[1].start == 0.0

    def test_stream_meta_recorded(self):
        e = Engine()
        Stream(e, "h2d").push("copy", 1.0)
        tl = e.run()
        assert tl[0].meta["stream"] == "h2d"

    def test_last_tracks_pushes(self):
        e = Engine()
        s = Stream(e, "s")
        assert s.last is None
        tid = s.push("cpu", 1.0)
        assert s.last == tid


class TestTimelineQueries:
    def _tl(self):
        e = Engine()
        a = e.task("cpu", 2.0, label="a", kind="compute")
        e.task("gpu", 4.0, deps=(a,), label="b", kind="compute")
        e.task("bus", 1.0, label="c", kind="setup")
        return e.run()

    def test_busy_and_utilization(self):
        tl = self._tl()
        assert tl.busy("cpu") == 2.0
        assert tl.busy("gpu") == 4.0
        assert tl.utilization("gpu") == pytest.approx(4.0 / 6.0)

    def test_resources_in_first_seen_order(self):
        assert self._tl().resources == ("cpu", "gpu", "bus")

    def test_on_filters_by_resource(self):
        tl = self._tl()
        assert [r.label for r in tl.on("gpu")] == ["b"]

    def test_where_filters_by_meta(self):
        tl = self._tl()
        assert len(tl.where(kind="compute")) == 2
        assert len(tl.where(kind="setup")) == 1
        assert tl.where(kind="nope") == []

    def test_validate_passes_on_engine_output(self):
        self._tl().validate()

    def test_validate_catches_dep_violation(self):
        from repro.sim.timeline import TaskRecord, Timeline

        bad = Timeline(
            [
                TaskRecord(0, "cpu", "a", 0.0, 2.0),
                TaskRecord(1, "gpu", "b", 1.0, 3.0, deps=(0,)),
            ]
        )
        with pytest.raises(SimulationError):
            bad.validate()

    def test_validate_catches_resource_overlap(self):
        from repro.sim.timeline import TaskRecord, Timeline

        bad = Timeline(
            [
                TaskRecord(0, "cpu", "a", 0.0, 2.0),
                TaskRecord(1, "cpu", "b", 1.0, 3.0),
            ]
        )
        with pytest.raises(SimulationError):
            bad.validate()

    def test_gantt_renders(self):
        text = self._tl().gantt()
        assert "cpu" in text and "#" in text

    def test_trace_roundtrip(self):
        import json

        tl = self._tl()
        data = json.loads(trace_json(tl))
        assert len(data) == 3
        assert data[1]["deps"] == [0]

    def test_summarize(self):
        s = summarize(self._tl())
        assert s["makespan"] == 6.0
        assert s["num_tasks"] == 3
        assert s["task_kinds"] == {"compute": 2, "setup": 1}


class TestCriticalPath:
    def test_simple_chain(self):
        e = Engine()
        a = e.task("cpu", 2.0, label="a", kind="x")
        b = e.task("gpu", 3.0, deps=(a,), label="b", kind="y")
        e.task("bus", 0.5, label="c", kind="z")  # off the critical path
        tl = e.run()
        chain = tl.critical_path()
        assert [r.label for r in chain] == ["a", "b"]

    def test_resource_fifo_binding(self):
        e = Engine()
        e.task("cpu", 2.0, label="a")
        e.task("cpu", 1.0, label="b")  # bound by FIFO, not deps
        tl = e.run()
        assert [r.label for r in tl.critical_path()] == ["a", "b"]

    def test_diamond_picks_slow_branch(self):
        e = Engine()
        a = e.task("cpu", 1.0, label="a")
        b = e.task("gpu", 5.0, deps=(a,), label="slow")
        c = e.task("copy", 1.0, deps=(a,), label="fast")
        e.task("cpu", 1.0, deps=(b, c), label="join")
        tl = e.run()
        labels = [r.label for r in tl.critical_path()]
        assert labels == ["a", "slow", "join"]

    def test_breakdown_sums_to_makespan(self):
        e = Engine()
        a = e.task("cpu", 2.0, kind="compute")
        b = e.task("bus", 1.0, deps=(a,), kind="transfer")
        e.task("gpu", 3.0, deps=(b,), kind="compute")
        tl = e.run()
        bd = tl.critical_breakdown()
        assert sum(bd.values()) == pytest.approx(tl.makespan)
        assert bd == {"compute": 5.0, "transfer": 1.0}

    def test_empty_timeline(self):
        tl = Engine().run()
        assert tl.critical_path() == []
        assert tl.critical_breakdown() == {}

    def test_zero_start_has_no_binding(self):
        e = Engine()
        e.task("cpu", 1.0)
        tl = e.run()
        assert tl[0].binding is None

    def test_hetero_breakdown_covers_makespan(self):
        from repro import Framework, hetero_high
        from repro.problems import make_dithering

        fw = Framework(hetero_high())
        res = fw.estimate(make_dithering(256, materialize=False))
        bd = res.timeline.critical_breakdown()
        assert sum(bd.values()) == pytest.approx(res.timeline.makespan)
