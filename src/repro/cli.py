"""Command-line front-end: regenerate tables/figures, solve, tune, inspect.

Examples::

    repro-lddp list
    repro-lddp figure table1
    repro-lddp figure fig10 --quick
    repro-lddp solve levenshtein --size 512 --platform high --executor hetero
    repro-lddp solve lcs --size 256 --trace out.json --metrics
    repro-lddp solve dithering --size 256 --executor cpu-blocked
    repro-lddp serve --requests 64 --workers 4 --metrics
    repro-lddp serve --requests 64 --coalesce-window 0.02 --no-cache
    repro-lddp serve --requests 64 --slo --timeout 0.5 --workers 4
    repro-lddp soak --duration 5 --report soak-report.json --gate
    repro-lddp batch --problems levenshtein --instances 32 --size 128 --compare
    repro-lddp batch --manifest examples/batch_manifest.json --metrics
    repro-lddp tune lcs --size 2048
    repro-lddp profile knight-move --rows 8 --cols 10

``batch`` solves a fleet of instances through ``Framework.solve_many``,
stacking batch-compatible ones into shared sweeps (see docs/batching.md);
``--manifest`` takes a JSON list of ``{"problem", "size", "seed", "count"}``
entries, ``--compare`` times the same fleet per-instance and prints the
speedup.

``serve --coalesce-window SECONDS`` lets workers drain batch-compatible
queued requests into one batched execution (``--max-batch`` caps the batch;
0 seconds, the default, keeps pure per-request serving).

``--no-kernel-fastpath`` (on ``solve``; ``ExecOptions(kernel_fastpath=False)``
in code) disables the compiled kernel plans of :mod:`repro.kernels` and runs
every span through the generic gather/scatter — the ablation baseline of
docs/performance.md.

``serve --delta`` (``ExecOptions(delta=True)`` in code) turns the request
stream into near-duplicate traffic (each cycle re-requests the mix with a
one-element payload edit) and lets the service answer exact-cache misses by
*delta patching* a cached base: copy the base table, recompute only the
edit's forward invalidation cone (:mod:`repro.delta`). Bit-identical to a
fresh solve; failures degrade to the full solve. See docs/delta-solving.md.

``--trace out.json`` records live instrumentation spans plus the simulated
timeline as Chrome ``trace_event`` JSON — open it in ``chrome://tracing`` or
https://ui.perfetto.dev (see docs/observability.md). ``--metrics`` dumps the
process metrics registry after the run.

``--inject-fault SITE:SPEC`` (repeatable, on ``solve``, ``serve`` and
``batch``) arms
the chaos layer of :mod:`repro.faults` for the run — e.g.
``--inject-fault "machine.gpu:nth=1"`` kills the first GPU cost-model call
(exercising CPU-only degradation) and ``--inject-fault
"exec.span:rate=0.05,latency=0.002"`` makes 5% of spans fail after a 2 ms
stall. See docs/resilience.md for the site table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .analysis.catalog import ARTIFACTS, run_artifact
from .analysis.profiles import profile_summary
from .core.framework import Framework
from .core.schedule import schedule_for
from .exec.base import ExecOptions
from .machine.platform import Platform, hetero_high, hetero_low, hetero_phi
from .problems import (
    make_checkerboard,
    make_diffusion,
    make_dithering,
    make_dtw,
    make_gotoh,
    make_lcs,
    make_lcsubstr,
    make_levenshtein,
    make_linear,
    make_needleman_wunsch,
    make_prefix_sum,
    make_smith_waterman,
)
from .types import Pattern

__all__ = ["main"]

_PROBLEMS: dict[str, Callable] = {
    "levenshtein": make_levenshtein,
    "lcs": make_lcs,
    "dtw": make_dtw,
    "needleman-wunsch": make_needleman_wunsch,
    "smith-waterman": make_smith_waterman,
    "gotoh": make_gotoh,
    "lcsubstr": make_lcsubstr,
    "prefix-sum": make_prefix_sum,
    "linear": make_linear,
    "dithering": make_dithering,
    "diffusion": make_diffusion,
    "checkerboard": make_checkerboard,
}


def _platform(name: str) -> Platform:
    return {"high": hetero_high(), "low": hetero_low(), "phi": hetero_phi()}[name]


def _fault_context(args):
    """Context manager arming any ``--inject-fault`` specs (no-op without).

    Parses eagerly so a malformed spec raises ``ValueError`` here, before
    any work starts — callers turn that into exit code 2.
    """
    import contextlib

    specs = getattr(args, "inject_fault", None)
    if not specs:
        return contextlib.nullcontext()
    from .faults import FaultPlan, inject_faults

    return inject_faults(FaultPlan.parse(specs))


def _cmd_list(args) -> int:
    print("artifacts:")
    for name in ARTIFACTS:
        print(f"  {name}")
    print("problems:")
    for name in _PROBLEMS:
        print(f"  {name}")
    return 0


def _cmd_figure(args) -> int:
    if args.name not in ARTIFACTS:
        print(f"unknown artifact {args.name!r}; see `repro-lddp list`", file=sys.stderr)
        return 2
    result = run_artifact(args.name, quick=args.quick)
    print(result.title)
    print()
    print(result.text)
    return 0


def _cmd_solve(args) -> int:
    from .obs import NullTracer, Tracer, get_metrics, use_tracer
    from .obs.export import write_chrome_trace

    if args.trace is not None and not args.trace:
        print("error: --trace requires a non-empty path", file=sys.stderr)
        return 2
    maker = _PROBLEMS[args.problem]
    problem = maker(args.size, materialize=not args.estimate)
    opt_kwargs = {}
    if args.no_kernel_fastpath:
        opt_kwargs["kernel_fastpath"] = False
    if args.no_scan:
        opt_kwargs["scan"] = False
    options = ExecOptions(**opt_kwargs) if opt_kwargs else None
    fw = Framework(_platform(args.platform), options)
    run = fw.estimate if args.estimate else fw.solve
    tracer = Tracer() if args.trace else NullTracer()
    try:
        fault_ctx = _fault_context(args)
    except ValueError as exc:
        print(f"error: bad --inject-fault spec: {exc}", file=sys.stderr)
        return 2
    with fault_ctx, use_tracer(tracer):
        res = run(problem, executor=args.executor)
    print(f"problem   : {res.problem}")
    print(f"pattern   : {res.pattern.value}")
    print(f"executor  : {res.executor}")
    print(f"simulated : {res.simulated_ms:.3f} ms")
    for key in ("t_switch", "t_share", "cpu_utilization", "gpu_utilization",
                "solver", "scan_path", "degraded", "delta_seeds",
                "delta_cone_cells", "delta_cone_fraction"):
        if key in res.stats:
            val = res.stats[key]
            print(f"{key:10s}: {val:.3f}" if isinstance(val, float) else f"{key:10s}: {val}")
    for step in res.stats.get("route", ()):
        print(f"route     : {step['tier']} → {step['fallback']}: {step['reason']}")
    if res.table is not None:
        print(f"table     : shape={res.table.shape} dtype={res.table.dtype} "
              f"corner={res.table[-1, -1]}")
    if args.trace:
        try:
            n = write_chrome_trace(
                args.trace, tracer.finished_spans(), res.timeline
            )
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"trace     : wrote {args.trace} ({n} events)")
    if args.metrics:
        print("metrics   :")
        print(get_metrics().render())
    return 0


def _near_duplicate(problem, k: int):
    """A copy of ``problem`` with one payload element edited by ``k``.

    The serve command's ``--delta`` traffic shape: each cycle re-requests
    the same instances with a one-element payload edit, the near-duplicate
    stream the delta tier exists for. ``k == 0`` returns the problem as-is
    (the base). Problems without an array payload pass through unchanged.
    """
    if k <= 0:
        return problem
    from dataclasses import replace

    import numpy as np

    payload = dict(problem.payload)
    for name in sorted(payload):
        value = payload[name]
        if isinstance(value, np.ndarray) and value.size:
            arr = value.copy()
            flat = arr.reshape(-1)
            flat[-1] = flat[-1] + k
            payload[name] = arr
            return replace(problem, payload=payload)
    return problem


def _cmd_serve(args) -> int:
    import time

    from .errors import AdmissionRejected, ReproError, ServiceOverloaded
    from .obs import get_metrics
    from .serve import ServiceConfig, SolveRequest, SolveService

    mix = [_PROBLEMS[name] for name in args.problems]
    cache_size = 0 if args.no_cache else args.cache_size
    metrics = get_metrics()
    t0 = time.perf_counter()
    rejections = 0
    completed = 0
    failures: dict[str, int] = {}
    try:
        fault_ctx = _fault_context(args)
    except ValueError as exc:
        print(f"error: bad --inject-fault spec: {exc}", file=sys.stderr)
        return 2
    slo = None
    if args.slo:
        from .slo import SLOPolicy

        slo = SLOPolicy(max_workers=max(args.workers, 1))
    try:
        config = ServiceConfig(
            backend=args.backend,
            workers=args.workers if slo is None else slo.min_workers,
            queue_size=args.queue_size,
            cache_size=cache_size,
            options=ExecOptions(delta=True) if args.delta else None,
            coalesce_window=args.coalesce_window,
            max_batch=args.max_batch,
            slo=slo,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with fault_ctx, SolveService(_platform(args.platform), config=config) as svc:
        pending = []
        shed = 0
        for k in range(args.requests):
            problem = mix[k % len(mix)](args.size)
            if args.delta:
                problem = _near_duplicate(problem, k // len(mix))
            request = SolveRequest(
                problem, executor=args.executor, timeout=args.timeout
            )
            while True:
                try:
                    pending.append(svc.submit(request))
                    break
                except AdmissionRejected:
                    # Priced out for its deadline — retrying won't help.
                    shed += 1
                    break
                except ServiceOverloaded:
                    # Bounded queue said no: back off briefly and retry —
                    # the admission-control loop a real client would run.
                    rejections += 1
                    time.sleep(0.005)
        for p in pending:
            # Chaos contract: every request either completes or fails with
            # a *typed* error; anything else escaping here is a real bug.
            try:
                p.result()
                completed += 1
            except ReproError as exc:
                failures[type(exc).__name__] = (
                    failures.get(type(exc).__name__, 0) + 1
                )
    elapsed = time.perf_counter() - t0

    hits = metrics.counter("serve.cache.hits").value
    misses = metrics.counter("serve.cache.misses").value
    degraded = metrics.counter("serve.degraded").value
    coalesced = metrics.counter("batch.coalesced").value
    latency = metrics.histogram("serve.latency_ms")
    print(f"platform  : {svc.framework.platform.name}")
    print(f"workload  : {args.requests} requests over "
          f"{len(args.problems)} problems (size {args.size}), "
          f"{args.workers} {args.backend} workers, queue {args.queue_size}")
    print(f"throughput: {args.requests / elapsed:.1f} req/s "
          f"({elapsed:.3f} s total)")
    print(f"cache     : {hits} hits / {misses} misses"
          + (" (disabled)" if cache_size == 0 else ""))
    if args.delta:
        delta_hits = metrics.counter("serve.cache.delta_hit").value
        delta_degraded = metrics.counter("serve.cache.delta_degraded").value
        cache_stats = svc.cache.stats() if svc.cache is not None else {}
        print(f"delta     : {delta_hits} patched / "
              f"{cache_stats.get('delta_candidates', 0)} candidates, "
              f"{delta_degraded} degraded to full solve, "
              f"{cache_stats.get('base_entries', 0)} bases")
    print(f"backoff   : {rejections} overload rejections absorbed")
    if slo is not None:
        s = svc.stats()["slo"]
        print(f"slo       : {s['admitted']} admitted, {shed} shed, "
              f"{s['downgraded']} downgraded, "
              f"{s['scale_ups']} scale-ups / {s['scale_downs']} scale-downs "
              f"(pool {slo.min_workers}-{slo.max_workers})")
    if args.coalesce_window > 0:
        print(f"coalesced : {coalesced} requests answered from batches "
              f"(window {args.coalesce_window:g} s)")
    outcome_line = f"outcomes  : {completed} completed, " \
                   f"{sum(failures.values())} failed"
    if failures:
        detail = ", ".join(
            f"{name} x{count}" for name, count in sorted(failures.items())
        )
        outcome_line += f" ({detail})"
    if degraded:
        outcome_line += f", {degraded} degraded to cpu-only"
    print(outcome_line)
    if completed:
        print(f"latency   : p50={latency.percentile(50):g} ms "
              f"p90={latency.percentile(90):g} ms "
              f"p99={latency.percentile(99):g} ms")
    if args.metrics:
        print("metrics   :")
        print(metrics.render())
    return 0


def _cmd_soak(args) -> int:
    from .slo.soak import soak_main

    return soak_main(args)


def _batch_problems(args) -> list:
    """Build the instance fleet for ``repro-lddp batch``.

    Makers that take a ``seed`` get consecutive seeds so instances carry
    distinct payloads (the realistic fleet); seedless makers repeat.
    """
    if args.manifest:
        import json

        with open(args.manifest) as fh:
            entries = json.load(fh)
        if not isinstance(entries, list) or not entries:
            raise ValueError("manifest must be a non-empty JSON list")
        specs = []
        for entry in entries:
            name = entry.get("problem")
            if name not in _PROBLEMS:
                raise ValueError(
                    f"unknown problem {name!r} in manifest; "
                    f"choose from {sorted(_PROBLEMS)}"
                )
            specs.append((name, int(entry.get("size", args.size)),
                          int(entry.get("seed", 0)),
                          int(entry.get("count", 1))))
    else:
        specs = [(name, args.size, 0, args.instances)
                 for name in args.problems]
    problems = []
    for name, size, seed, count in specs:
        maker = _PROBLEMS[name]
        for k in range(count):
            try:
                problems.append(maker(size, seed=seed + k))
            except TypeError:
                problems.append(maker(size))
    return problems


def _cmd_batch(args) -> int:
    import time

    from .obs import get_metrics

    try:
        problems = _batch_problems(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        fault_ctx = _fault_context(args)
    except ValueError as exc:
        print(f"error: bad --inject-fault spec: {exc}", file=sys.stderr)
        return 2
    fw = Framework(_platform(args.platform))
    metrics = get_metrics()
    with fault_ctx:
        t0 = time.perf_counter()
        results = fw.solve_many(
            problems, executor=args.executor, max_batch=args.max_batch
        )
        batched_s = time.perf_counter() - t0

    groups = metrics.counter("batch.groups").value
    stacked = metrics.counter("batch.stacked").value
    swept = metrics.counter("batch.swept").value
    degraded = metrics.counter("batch.degraded").value
    print(f"platform  : {fw.platform.name}")
    print(f"fleet     : {len(problems)} instances -> {groups} groups "
          f"(max batch {args.max_batch})")
    print(f"tiers     : {stacked} stacked, {swept} swept"
          + (f", {degraded} degraded to per-instance" if degraded else ""))
    print(f"batched   : {batched_s:.3f} s "
          f"({len(problems) / batched_s:.1f} solves/s)")
    if args.compare:
        t0 = time.perf_counter()
        solo = [fw.solve(p, executor=args.executor) for p in problems]
        solo_s = time.perf_counter() - t0
        import numpy as np

        identical = all(
            np.array_equal(a.table, b.table) for a, b in zip(solo, results)
        )
        print(f"solo      : {solo_s:.3f} s "
              f"({len(problems) / solo_s:.1f} solves/s)")
        print(f"speedup   : {solo_s / batched_s:.2f}x "
              f"(tables {'bit-identical' if identical else 'DIFFER'})")
        if not identical:
            return 1
    corner = results[0]
    if corner.table is not None:
        print(f"first     : {corner.problem} corner={corner.table[-1, -1]} "
              f"mode={corner.stats.get('batch_mode', 'solo')}")
    if args.metrics:
        print("metrics   :")
        print(metrics.render())
    return 0


def _cmd_tune(args) -> int:
    maker = _PROBLEMS[args.problem]
    problem = maker(args.size, materialize=False)
    fw = Framework(_platform(args.platform))
    result = fw.tune(problem)
    print(f"tuned params: t_switch={result.params.t_switch} "
          f"t_share={result.params.t_share}  ({result.best_time * 1e3:.3f} ms)")
    print("t_switch curve:")
    for ts, t in result.t_switch_curve:
        print(f"  {ts:8d}  {t * 1e3:10.3f} ms")
    print("t_share curve:")
    for sh, t in result.t_share_curve:
        print(f"  {sh:8d}  {t * 1e3:10.3f} ms")
    return 0


def _cmd_breakdown(args) -> int:
    from .analysis.breakdown import breakdown_table

    maker = _PROBLEMS[args.problem]
    problem = maker(args.size, materialize=False)
    fw = Framework(_platform(args.platform))
    results = [
        fw.estimate(problem, executor=name)
        for name in ("sequential", "cpu", "gpu", "hetero")
    ]
    print(f"{problem.name} on {fw.platform.name} — what the makespans are made of")
    print(breakdown_table(results))
    return 0


def _cmd_gantt(args) -> int:
    from .core.partition import HeteroParams
    from .sim.svg import gantt_svg

    maker = _PROBLEMS[args.problem]
    problem = maker(args.size, materialize=False)
    fw = Framework(_platform(args.platform))
    params = None
    if args.t_switch is not None or args.t_share is not None:
        params = HeteroParams(args.t_switch or 0, args.t_share or 0)
    res = fw.estimate(problem, params=params)
    svg = gantt_svg(res.timeline, title=f"{problem.name} ({res.executor})")
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out} ({len(svg)} bytes, "
          f"makespan {res.simulated_ms:.3f} ms)")
    return 0


def _cmd_verify(args) -> int:
    from .analysis.verify import verification_report, verify_reproduction

    results = verify_reproduction(quick=args.quick)
    print(verification_report(results))
    failed = [r for r in results if not r.passed and not r.skipped]
    print()
    print(f"{sum(1 for r in results if r.passed and not r.skipped)} passed, "
          f"{len(failed)} failed, "
          f"{sum(1 for r in results if r.skipped)} skipped")
    return 1 if failed else 0


def _cmd_profile(args) -> int:
    pattern = Pattern(args.pattern)
    sched = schedule_for(pattern, args.rows, args.cols)
    info = profile_summary(sched)
    for k, v in info.items():
        print(f"{k:12s}: {v}")
    widths = sched.widths()
    if len(widths) <= 40:
        print("widths      :", " ".join(str(int(w)) for w in widths))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lddp",
        description="Heterogeneous LDDP-Plus framework — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list artifacts and problems").set_defaults(fn=_cmd_list)

    p = sub.add_parser("figure", help="regenerate a paper table/figure/ablation")
    p.add_argument("name")
    p.add_argument("--quick", action="store_true", help="smaller sweep sizes")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("solve", help="solve one problem instance")
    p.add_argument("problem", choices=sorted(_PROBLEMS))
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--platform", choices=["high", "low", "phi"], default="high")
    p.add_argument(
        "--executor", choices=list(Framework.executors()), default="hetero"
    )
    p.add_argument("--estimate", action="store_true", help="timing model only")
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write live spans + simulated timeline as Chrome trace_event "
             "JSON (open in chrome://tracing or Perfetto)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="dump the metrics registry after the run",
    )
    p.add_argument(
        "--no-kernel-fastpath", action="store_true",
        help="disable the compiled kernel-plan fast path — every span runs "
             "the generic masked gather/scatter (A/B baseline)",
    )
    p.add_argument(
        "--no-scan", action="store_true",
        help="disable the scan tier for declared-linear problems — the "
             "wavefront path serves them instead (A/B baseline)",
    )
    p.add_argument(
        "--inject-fault", action="append", metavar="SITE:SPEC", default=None,
        help="arm a chaos fault for the run, e.g. 'machine.gpu:nth=1' or "
             "'exec.span:rate=0.05,latency=0.002' (repeatable)",
    )
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser(
        "serve", help="run a request mix through the concurrent solve service"
    )
    p.add_argument("--requests", type=int, default=32,
                   help="total requests to submit")
    p.add_argument("--size", type=int, default=96)
    p.add_argument("--platform", choices=["high", "low", "phi"], default="high")
    p.add_argument("--executor", choices=list(Framework.executors()),
                   default="hetero")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--backend", choices=["thread", "process"], default="thread",
                   help="execution backend: 'thread' runs solves in-process, "
                        "'process' scales out over a spawn-based worker pool "
                        "with shared-memory result transport")
    p.add_argument("--queue-size", type=int, default=64)
    p.add_argument("--cache-size", type=int, default=128)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache (cold-path baseline)")
    p.add_argument("--coalesce-window", type=float, default=0.0,
                   metavar="SECONDS",
                   help="wait this long for batch-compatible requests and "
                        "solve them as one batch (0 disables coalescing)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="cap on requests coalesced into one batch")
    p.add_argument(
        "--problems", nargs="+", choices=sorted(_PROBLEMS),
        default=["levenshtein", "lcs", "dtw", "needleman-wunsch"],
        help="problem mix cycled over the requests",
    )
    p.add_argument("--metrics", action="store_true",
                   help="dump the metrics registry after the run")
    p.add_argument(
        "--inject-fault", action="append", metavar="SITE:SPEC", default=None,
        help="arm a chaos fault for the whole workload (repeatable); every "
             "request must still complete or fail with a typed error",
    )
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline (enables admission pricing "
                        "under --slo)")
    p.add_argument("--slo", action="store_true",
                   help="enable the SLO policy brain: closed-form admission, "
                        "EDF ordering and worker-pool autoscaling "
                        "(--workers becomes the autoscaler ceiling)")
    p.add_argument("--delta", action="store_true",
                   help="enable the delta tier (ExecOptions.delta) and shape "
                        "the workload as near-duplicate traffic: each cycle "
                        "re-requests the mix with a one-element payload edit, "
                        "served by patching the cached base's invalidation "
                        "cone (thread backend only; see docs/delta-solving.md)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "soak", help="SLO soak/chaos run: mixed traffic, fault plan, "
                     "attainment report (see docs/serving.md)"
    )
    from .slo.soak import add_soak_args

    add_soak_args(p)
    p.set_defaults(fn=_cmd_soak)

    p = sub.add_parser(
        "batch",
        help="solve a fleet of instances, stacking compatible ones "
             "(Framework.solve_many)",
    )
    p.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="JSON list of {problem, size, seed, count} fleet entries "
             "(overrides --problems/--instances/--size)",
    )
    p.add_argument(
        "--problems", nargs="+", choices=sorted(_PROBLEMS),
        default=["levenshtein"], help="problem kinds in the fleet",
    )
    p.add_argument("--instances", type=int, default=16,
                   help="instances per problem kind (distinct seeds)")
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--max-batch", type=int, default=64,
                   help="cap on instances stacked into one group")
    p.add_argument("--platform", choices=["high", "low", "phi"], default="high")
    p.add_argument("--executor", choices=list(Framework.executors()),
                   default="hetero")
    p.add_argument("--compare", action="store_true",
                   help="also time per-instance solves and verify the tables "
                        "are bit-identical (exit 1 if not)")
    p.add_argument("--metrics", action="store_true",
                   help="dump the metrics registry after the run")
    p.add_argument(
        "--inject-fault", action="append", metavar="SITE:SPEC", default=None,
        help="arm a chaos fault for the run, e.g. 'batch.execute:nth=1' "
             "degrades the first group to per-instance solves (repeatable)",
    )
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("tune", help="two-step empirical parameter search")
    p.add_argument("problem", choices=sorted(_PROBLEMS))
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--platform", choices=["high", "low", "phi"], default="high")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("gantt", help="render a heterogeneous schedule as SVG")
    p.add_argument("problem", choices=sorted(_PROBLEMS))
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--platform", choices=["high", "low", "phi"], default="high")
    p.add_argument("--t-switch", type=int, default=None)
    p.add_argument("--t-share", type=int, default=None)
    p.add_argument("--out", default="timeline.svg")
    p.set_defaults(fn=_cmd_gantt)

    p = sub.add_parser("breakdown", help="critical-path cost composition per executor")
    p.add_argument("problem", choices=sorted(_PROBLEMS))
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--platform", choices=["high", "low", "phi"], default="high")
    p.set_defaults(fn=_cmd_breakdown)

    p = sub.add_parser(
        "verify", help="check every reproduced claim (EXPERIMENTS.md checklist)"
    )
    p.add_argument("--quick", action="store_true", help="smaller sweeps; "
                   "claims needing paper-scale sizes are skipped")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("profile", help="show a pattern's parallelism profile")
    p.add_argument("pattern", choices=[pat.value for pat in Pattern])
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--cols", type=int, default=8)
    p.set_defaults(fn=_cmd_profile)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro-lddp ... | head`
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os.close(2)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
