"""The gated benchmarks' shared harness (``benchmarks/_harness.py``).

Every gated ``bench_*.py`` script times its arms through
:func:`time_arms` and reports through :func:`run`, so these tests pin the
measurement contract once: one untimed warm-up per arm, then equal reps in
alternating order, and one JSON schema with the host fingerprint.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "benchmarks" / "_harness.py"
_spec = importlib.util.spec_from_file_location("_harness", _PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_time_arms_warms_up_then_interleaves_equal_reps():
    calls = []
    arms = {name: (lambda name=name: calls.append(name) or name)
            for name in ("a", "b")}
    timings, results = harness.time_arms(arms, reps=3)
    # warm-up a, b; then a, b / b, a / a, b
    assert calls == ["a", "b", "a", "b", "b", "a", "a", "b"]
    assert results == {"a": "a", "b": "b"}
    for t in timings.values():
        assert set(t) == {"min_s", "median_s", "iqr_s"}
        assert 0 <= t["min_s"] <= t["median_s"] and t["iqr_s"] >= 0


@pytest.fixture
def fake_bench(tmp_path, monkeypatch):
    """A minimal gated script registered as a module, writing to tmp."""
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    bench = types.ModuleType("bench_fake")
    bench.__doc__ = "A fake bench.\n"
    bench.__file__ = str(tmp_path / "bench_fake.py")

    def measure(quick, reps):
        timings, _ = harness.time_arms(
            {"slow": lambda: sum(range(2000)), "fast": lambda: 0}, reps)
        return {"workloads": [{"workload": "w", "arms": timings,
                               **harness.speedup(timings, "slow", "fast")}]}

    bench.measure = measure
    bench.report = lambda r: ["  fake line"]
    bench._gate = lambda r: None
    monkeypatch.setitem(sys.modules, "bench_fake", bench)
    return bench


def test_run_writes_one_schema_and_sets_the_exit_code(fake_bench, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    assert harness.run("bench_fake", ["--reps", "2"]) == 0
    r = json.loads((tmp_path / "fake.json").read_text())
    assert r["benchmark"] == "fake" and r["quick"] and r["reps"] == 2
    assert set(r["host"]) == {"affinity_cores", "python", "numpy", "machine"}
    assert r["host"]["affinity_cores"] >= 1
    (w,) = r["workloads"]
    assert w["ratio_of"] == "slow/fast" and {"ratio", "ratio_median"} <= set(w)
    assert "fake line" in (tmp_path / "fake.txt").read_text()

    fake_bench._gate = lambda r: "too slow"
    assert harness.run("bench_fake", []) == 1
    assert "FAIL: too slow" in capsys.readouterr().err


def test_root_json_is_written_by_full_size_runs_only(fake_bench, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
    fake_bench.ROOT_JSON = "BENCH_fake.json"
    root = tmp_path / "BENCH_fake.json"
    root.write_text("committed\n")

    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    assert harness.run("bench_fake", ["--reps", "1"]) == 0
    assert root.read_text() == "committed\n"
    assert json.loads((tmp_path / "fake.json").read_text())["quick"]

    monkeypatch.delenv("REPRO_BENCH_QUICK")
    assert harness.run("bench_fake", ["--reps", "1"]) == 0
    assert json.loads(root.read_text())["quick"] is False
