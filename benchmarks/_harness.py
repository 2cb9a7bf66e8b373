"""One measurement path for the gated ``bench_*.py`` scripts.

A gated script holds only its workload, its arms, its checks and its gate.
This module does the rest, the same way for every script:

* :func:`time_arms` times arms given as zero-argument callables. Each arm
  gets one untimed warm-up, then ``reps`` timed runs; the arm order
  alternates per rep, so drift (caches, allocator, clock) falls on every
  arm alike. It reports min, median and IQR per arm.
* :func:`host` records where the numbers came from: the cores this process
  may run on (``os.sched_getaffinity``), Python, NumPy and machine.
* :func:`run` is the one entry point of a script's ``__main__`` block and
  its pytest test: ``--quick`` (or ``REPRO_BENCH_QUICK=1``) and ``--reps``,
  then measure, print and write the report, gate, and return the exit code.

Every script writes ``benchmarks/results/<name>.json`` and ``<name>.txt``
(``<name>`` is the file name without ``bench_``); a script that sets
``ROOT_JSON`` also writes the JSON at the repo root, on full-size runs only,
so a ``--quick`` run never overwrites a committed full-size record. The
schema::

    {"benchmark": str, "quick": bool, "reps": int,
     "host": {"affinity_cores": int, "python": str, "numpy": str,
              "machine": str},
     "workloads": [{"workload": str,
                    "arms": {arm: {"min_s", "median_s", "iqr_s"}},
                    "ratio_of": "base/fast", "ratio": float,
                    "ratio_median": float,
                    ...the script's checks}],
     ...the script's own fields}

``ratio`` divides the base arm's time by the faster arm's on the minimums,
and is what every ratio gate reads; ``ratio_median`` is the same on the
medians. A workload without a speed comparison has no ratio fields.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
REPS = 5


def host() -> dict:
    """The host fingerprint every result carries."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cores = os.cpu_count() or 1
    return {"affinity_cores": cores, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def time_arms(arms: dict, reps: int) -> tuple[dict, dict]:
    """Time every arm alike; returns ``(timings, last result of each arm)``.

    The result is read inside the timed region: an arm must return only
    once its work is done.
    """
    results = {name: run() for name, run in arms.items()}  # warm-up
    samples: dict[str, list[float]] = {name: [] for name in arms}
    order = list(arms)
    for _ in range(reps):
        for name in order:
            t0 = time.perf_counter()
            results[name] = arms[name]()
            samples[name].append(time.perf_counter() - t0)
        order.reverse()
    timings = {}
    for name, s in samples.items():
        q1, median, q3 = np.percentile(s, [25, 50, 75])
        timings[name] = {"min_s": min(s), "median_s": float(median),
                         "iqr_s": float(q3 - q1)}
    return timings, results


def speedup(timings: dict, base: str, fast: str) -> dict:
    """``base`` over ``fast`` time, on the minimums and on the medians."""
    return {
        "ratio_of": f"{base}/{fast}",
        "ratio": timings[base]["min_s"] / timings[fast]["min_s"],
        "ratio_median": timings[base]["median_s"] / timings[fast]["median_s"],
    }


def _text(r: dict, lines: list[str]) -> str:
    h = r["host"]
    out = [
        f"{r['benchmark']}{' (quick)' if r['quick'] else ''} — {r['reps']} "
        f"interleaved reps per timed arm after one warm-up; "
        f"{h['affinity_cores']} affinity cores, {h['machine']}, "
        f"Python {h['python']}, NumPy {h['numpy']}"
    ]
    for w in r["workloads"]:
        out.append(f"  {w['workload']}")
        for arm, t in w["arms"].items():
            out.append(
                f"    {arm:<12} min {t['min_s'] * 1e3:9.2f} ms   median "
                f"{t['median_s'] * 1e3:9.2f} ms   IQR {t['iqr_s'] * 1e3:7.2f} ms"
            )
        if "ratio" in w:
            out.append(f"    {w['ratio_of']}: {w['ratio']:.2f}x on the "
                       f"minimums, {w['ratio_median']:.2f}x on the medians")
    return "\n".join(out + lines)


def run(module: str, argv: list[str] | None = None) -> int:
    """Measure, report and gate the script named ``module``; the exit code.

    ``module`` is the script's ``__name__``. The script supplies
    ``measure(quick, reps) -> dict`` (its fields, including ``workloads``),
    ``report(r) -> list[str]`` (its lines under the timing table),
    ``_gate(r) -> str | None`` (the first failed acceptance condition) and
    optionally ``ROOT_JSON`` (written on full-size runs only). Pytest passes
    ``argv=[]``.
    """
    bench = sys.modules[module]
    parser = argparse.ArgumentParser(description=bench.__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        default=os.environ.get("REPRO_BENCH_QUICK", "") == "1",
        help="smaller workload (CI smoke); REPRO_BENCH_QUICK=1 does the same",
    )
    parser.add_argument("--reps", type=int, default=REPS,
                        help="timed runs per arm after one warm-up")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    name = Path(bench.__file__).stem.removeprefix("bench_")
    r = {"benchmark": name, "quick": args.quick, "reps": args.reps,
         "host": host(), **bench.measure(args.quick, args.reps)}
    text = _text(r, bench.report(r))
    print(text)
    dump = json.dumps(r, indent=2) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"{name}.json").write_text(dump)
    if getattr(bench, "ROOT_JSON", None) and not args.quick:
        (REPO_ROOT / bench.ROOT_JSON).write_text(dump)
    failure = bench._gate(r)
    if failure is not None:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0
