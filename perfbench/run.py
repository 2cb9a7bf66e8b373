"""Repository benchmark: closed-loop workloads over the LDDP-Plus framework.

Run from the repository root::

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 20 --trace 0

``--trace 0`` times one window and prints the end-to-end metrics;
``--trace 1`` times an untraced half-window, then a traced one, and prints
the per-layer metrics (see ``perfbench/README.md``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it describes the run (seed, host, how the
requests were served, the output checks).

The program under test is imported from ``src/`` next to this directory
and is measured, never modified. The process backend spawns workers that
re-import this file, so everything runs under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-large", "serve-fresh", "serve-process", "serve-edits")

#: End-to-end metrics, in order, with their units.
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 5  # this process plus four fresh set-up probes
SPAN_BUDGET = 200_000  # the traced window ends early past this many spans
TRACE_DIR = HERE / "out"


def since_process_start() -> float:
    """Seconds since this interpreter started (falls back to script start)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant."""
    total_kb = 0
    try:
        pids = [os.getpid()] + _descendants(os.getpid())
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited meanwhile
    return total_kb / 1024.0


def host_fingerprint() -> dict:
    import numpy

    from workloads import nproc

    return {
        "cores": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def make_workload(name: str, seed: int, scale: str):
    import workloads

    cls = {
        "solve-large": workloads.SolveLarge,
        "serve-fresh": workloads.ServeFresh,
        "serve-process": workloads.ServeProcess,
        "serve-edits": workloads.ServeEdits,
    }[name]
    return cls(seed, scale)


def probe_setup(args) -> list[float]:
    """Set-up times of fresh interpreters running this workload's set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def check_outputs(workload, window, corrupt: int) -> dict:
    """Compare sampled delivered tables bit-for-bit with a tier-free
    reference solve, and one small instance with the sequential oracle.

    Every mismatch counts as a failed operation. ``corrupt`` flips one
    byte in that many sampled tables first (the benchmark's self-test).
    """
    import numpy as np

    from repro import ExecOptions, Framework, hetero_high

    reference = Framework(hetero_high())
    plain = ExecOptions(kernel_fastpath=False, scan=False, delta=False)

    def same(a, b) -> bool:
        return (a.shape == b.shape and a.dtype == b.dtype
                and np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())

    def matches(result, expected) -> bool:
        return same(result.table, expected.table) and all(
            name in result.aux and same(result.aux[name], arr)
            for name, arr in expected.aux.items()
        )

    checked, mismatched = {}, 0
    for served, items in sorted(window.sample.items()):
        for problem, result in items:
            if corrupt > 0:
                table = np.array(result.table, copy=True)
                table.view(np.uint8).reshape(-1)[table.nbytes // 2] ^= 0xFF
                result = type(result)(**{**vars(result), "table": table})
                corrupt -= 1
            expected = reference.solve(problem, executor="cpu", options=plain)
            ok = matches(result, expected)
            mismatched += not ok
            checked[served] = checked.get(served, 0) + 1
    problem = workload.oracle_problem()
    oracle_ok = matches(
        workload.oracle_run(problem), reference.solve(problem, executor="sequential")
    )
    return {"checked": checked, "mismatched": mismatched, "oracle_ok": oracle_ok}


def timed_window(workload, seconds, seed, tracer, stop_early=None):
    from workloads import Window, run_window

    window = Window(seed, workload.per_category)
    if stop_early is not None:
        window.stop_early = stop_early
    return run_window(workload, seconds, window, tracer)


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def served_by(window) -> dict:
    """Share of requests and median latency (ms) per served-by category."""
    total = len(window.latencies)
    return {
        served: {"share": round(len(lat) / total, 4),
                 "p50_ms": round(percentile(lat, 50) * 1e3, 2)}
        for served, lat in sorted(window.by_served.items())
    }


def run(args) -> int:
    from layers import PER_LAYER, LayerTrace, NoTrace, layer_metrics
    from workloads import host_probe, host_slowness

    from repro.obs import MetricsRegistry, set_metrics

    workload = make_workload(args.workload, args.seed, args.scale)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    setup_raw = since_process_start()
    setup_s = setup_raw / host_slowness([host_probe() for _ in range(25)])
    if args.setup_probe:
        workload.close()
        print(f"{setup_s:.6f}")
        return 0

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "host": host_fingerprint()}
    windows = []
    try:
        if not args.trace:
            windows.append(
                timed_window(workload, args.seconds, args.seed, NoTrace())
            )
            rss = peak_rss_mb()
        else:
            half = args.seconds / 2.0
            plain = timed_window(workload, half, args.seed, NoTrace())
            trace = LayerTrace()
            cache = getattr(getattr(workload, "svc", None), "cache", None)
            before = cache.stats() if cache is not None else {}
            previous = set_metrics(MetricsRegistry())
            trace.install()
            try:
                traced = timed_window(
                    workload, half, args.seed + 1, trace,
                    stop_early=lambda: trace.spans >= SPAN_BUDGET,
                )
            finally:
                trace.uninstall()
                registry = set_metrics(previous)
            after = cache.stats() if cache is not None else {}
            windows += [plain, traced]
            overhead = 1.0 - (
                (traced.cells / traced.wall * traced.slowness)
                / (plain.cells / plain.wall * plain.slowness)
            )
            layers = layer_metrics(
                trace, traced.wall, registry, traced,
                {k: v - before[k] for k, v in after.items()
                 if isinstance(v, (int, float))},
                overhead, edits=bool(getattr(workload.options, "delta", False)),
            )
            TRACE_DIR.mkdir(exist_ok=True)
            trace.write(TRACE_DIR / f"trace-{args.workload}.json",
                        {**info, "wall_s": traced.wall})
            del trace  # free the spans before the output check
        checks = [check_outputs(workload, w, args.corrupt if k == 0 else 0)
                  for k, w in enumerate(windows)]
    finally:
        workload.close()

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + sum(c["mismatched"] for c in checks)
    failed += sum(not c["oracle_ok"] for c in checks)
    window = windows[0]
    info.update({
        "attempted": attempted, "failed": failed,
        "errors": {k: v for w in windows for k, v in w.errors.items()},
        "served": served_by(window),
        "coalesced_mean_batch": round(
            window.stats["batch_members"] / window.served["coalesced"], 3
        ) if window.served["coalesced"] else 0.0,
        "requests": len(window.latencies),
        "window_s": round(window.wall, 3),
        "host_slowness": window.slowness,
        "raw": {
            "cells_per_s": window.cells / window.wall,
            "latency_p50_ms": percentile(window.latencies, 50) * 1e3,
            "latency_p90_ms": percentile(window.latencies, 90) * 1e3,
            "setup_s": setup_raw,
        },
        "checks": checks,
    })
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        setups = [setup_s] + probe_setup(args)
        info["setup_samples"] = [round(s, 4) for s in setups]
        # Rescaled to the reference host speed (see README, "Noise").
        lat = window.adj_latencies
        values = {
            "cells_per_s": window.cells / window.wall * window.slowness,
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-test only")
    parser.add_argument("--corrupt", type=int, default=0,
                        help="flip a byte in N sampled tables (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    try:
        return run(args)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one was started.

    The process backend's shared-memory slabs start a tracker process that
    would otherwise outlive this one until it notices the exit on its own.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
