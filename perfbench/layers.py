"""Per-layer wall-clock trace, taken from outside the program.

The traced run wraps the public entry points of each layer (class methods
on the class, module functions at every module that imports them by name)
and records one span per call in a :class:`repro.obs.Tracer` owned by this
benchmark. The tracer is never installed with ``use_tracer``, so the
program's own spans stay off. Each span carries a request id shared by all
spans of one request. A layer's self time is its spans' duration minus the
part covered by timed child spans.

With the process backend the worker side runs in other processes and is
not reachable from here: only parent-side boundaries are reported.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict

import numpy as np

from repro.obs import Tracer

#: (module[:class], attribute, boundary). A boundary may wrap several targets.
BOUNDARIES = (
    ("repro.exec.base:Executor", "solve", "exec.solve"),
    ("repro.patterns.base:PatternStrategy", "plan", "patterns.plan"),
    # A span runs through a compiled plan or the generic gather/scatter;
    # kernels.plan's own generic fallback stays unwrapped (no double count).
    ("repro.kernels.plan:KernelPlan", "execute", "kernels.span"),
    ("repro.kernels.plan:KernelPlan", "execute_batch", "kernels.span"),
    ("repro.exec.base", "generic_span", "kernels.span"),
    ("repro.batch.executor", "generic_span", "kernels.span"),
    ("repro.exec.base", "plan_for", "kernels.plan"),
    ("repro.exec.layout_exec", "plan_for", "kernels.plan"),
    ("repro.exec.streaming", "plan_for", "kernels.plan"),
    ("repro.batch.executor", "plan_for", "kernels.plan"),
    ("repro.core.cellfunc:CellFunction", "__call__", "cellfunc.call"),
    ("repro.sim.engine:Engine", "run", "sim.engine"),
    ("repro.tuning.model", "analytic_params", "tuning.params"),
    ("repro.scan.route", "try_scan_solve", "scan.solve"),
    ("repro.serve.service:SolveService", "submit", "serve.submit"),
    ("repro.serve.service:SolveService", "_process", "serve.worker"),
    ("repro.serve.service:SolveService", "_process_batch", "serve.worker"),
    ("repro.serve.cache:ResultCache", "get", "serve.cache.get"),
    ("repro.serve.cache:ResultCache", "get_base", "serve.cache.get"),
    ("repro.serve.cache:ResultCache", "put", "serve.cache.put"),
    ("repro.serve.shm:SegmentIndex", "get", "serve.cache.get"),
    ("repro.serve.shm:SegmentIndex", "put", "serve.cache.put"),
    ("repro.slo.pricing:Pricer", "units", "slo.price"),
    ("repro.serve.backends", "execute_items", "batch.group"),
    ("repro.serve.backends:ProcessPoolBackend", "execute", "backends.dispatch"),
    ("repro.serve.backends:ProcessPoolBackend", "execute_batch", "backends.dispatch"),
    ("repro.serve.backends", "materialize_result", "shm.materialize"),
    ("repro.serve.service", "delta_patch", "delta.patch"),
)

#: Every per-layer metric the traced run prints, with its unit, in order.
PER_LAYER = (
    ("exec.solve.count", "count"),
    ("exec.solve.busy_s", "s"),
    ("exec.solve.self_s", "s"),
    ("exec.solve.share", "ratio"),
    ("patterns.plan.busy_s", "s"),
    ("patterns.plan.share", "ratio"),
    ("kernels.span.count", "count"),
    ("kernels.span.self_s", "s"),
    ("kernels.span.share", "ratio"),
    ("kernels.plan.busy_s", "s"),
    ("kernels.fast_ratio", "ratio"),
    ("cellfunc.call.count", "count"),
    ("cellfunc.call.busy_s", "s"),
    ("cellfunc.call.share", "ratio"),
    ("sim.engine.busy_s", "s"),
    ("sim.engine.share", "ratio"),
    ("tuning.params.busy_s", "s"),
    ("tuning.params.share", "ratio"),
    ("scan.solve.count", "count"),
    ("scan.solve.busy_s", "s"),
    ("scan.solved_ratio", "ratio"),
    ("serve.request.build_s", "s"),
    ("serve.submit.busy_s", "s"),
    ("serve.worker.self_s", "s"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_s", "s"),
    ("serve.cache.put_s", "s"),
    ("slo.price.count", "count"),
    ("slo.price.busy_s", "s"),
    ("batch.group.count", "count"),
    ("batch.group.mean_size", "count"),
    ("batch.stacked_ratio", "ratio"),
    ("batch.group.busy_s", "s"),
    ("backends.dispatch.busy_s", "s"),
    ("backends.inline_ratio", "ratio"),
    ("shm.materialize.busy_s", "s"),
    ("delta.patch.count", "count"),
    ("delta.patch.busy_s", "s"),
    ("delta.hit_ratio", "ratio"),
    ("delta.cone_fraction.p50", "ratio"),
    ("delta.degraded.count", "count"),
    ("delta.patched_ratio", "ratio"),
    ("delta.bypass_coalesced_ratio", "ratio"),
    ("delta.degraded_ratio", "ratio"),
    ("delta.no_base_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Metrics that must be non-zero in a traced run of each workload: the
#: layers that workload exists to exercise (checked by the self-test).
EXERCISED = {
    "solve-large": (
        "exec.solve.count", "patterns.plan.busy_s", "kernels.span.count",
        "kernels.plan.busy_s", "kernels.fast_ratio", "cellfunc.call.count",
        "sim.engine.busy_s", "tuning.params.busy_s", "scan.solve.count",
        "scan.solved_ratio",
    ),
    "serve-fresh": (
        "kernels.span.count", "sim.engine.busy_s",
        "serve.request.build_s", "serve.submit.busy_s", "serve.worker.self_s",
        "serve.cache.hit_ratio", "serve.cache.get_s", "serve.cache.put_s",
        "slo.price.count", "batch.group.count", "batch.group.mean_size",
        "batch.group.busy_s",
    ),
    "serve-process": (
        "serve.request.build_s", "serve.submit.busy_s", "serve.worker.self_s",
        "serve.cache.hit_ratio", "serve.cache.get_s", "serve.cache.put_s",
        "slo.price.count", "batch.group.count", "backends.dispatch.busy_s",
        "shm.materialize.busy_s",
    ),
    "serve-edits": (
        "exec.solve.count", "kernels.span.count", "serve.submit.busy_s",
        "serve.cache.put_s", "slo.price.count", "delta.patch.count",
        "delta.patch.busy_s", "delta.hit_ratio", "delta.cone_fraction.p50",
        "delta.patched_ratio",
    ),
}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _problem_of(args, kwargs):
    return kwargs.get("problem", args[1] if len(args) > 1 else None)


def _items_problems(args, kwargs):
    items = args[0] if args and isinstance(args[0], list) else args[1]
    return [item.problem for item in items]


#: How a boundary finds the request(s) it serves; the rest inherit the
#: request id of the enclosing span on their thread.
_REQUEST_OF = {
    ("repro.exec.base:Executor", "solve"): lambda a, k: [_problem_of(a, k)],
    ("repro.serve.service:SolveService", "submit"): lambda a, k: [a[1].problem],
    ("repro.serve.service:SolveService", "_process"):
        lambda a, k: [a[1].request.problem],
    ("repro.serve.service:SolveService", "_process_batch"):
        lambda a, k: [m.request.problem for m in a[1]],
    ("repro.serve.backends", "execute_items"): _items_problems,
    ("repro.serve.backends:ProcessPoolBackend", "execute"):
        lambda a, k: [_problem_of(a, k)],
    ("repro.serve.backends:ProcessPoolBackend", "execute_batch"):
        _items_problems,
}

#: Boundaries whose span records how many requests it served.
_SIZED = {
    ("repro.serve.backends", "execute_items"),
    ("repro.serve.backends:ProcessPoolBackend", "execute_batch"),
}


class NoTrace:
    """The untraced run: the hooks the client loops call do nothing."""

    def build_request(self, make):
        return make()

    def register(self, problem) -> None:
        return None


class LayerTrace(NoTrace):
    """Wraps every boundary while installed; spans go to its own Tracer."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.spans = 0  # approximate (unlocked); only bounds the window
        self._local = threading.local()
        self._rid = itertools.count(1)
        self._rids: dict[int, int] = {}
        self._saved: list = []

    # -- client-side hooks ------------------------------------------------------

    def register(self, problem) -> int:
        """Give ``problem`` a new request id; its spans will carry it."""
        rid = next(self._rid)
        self._rids[id(problem)] = rid
        return rid

    def build_request(self, make):
        """Time one ``SolveRequest(...)`` construction as ``serve.request``."""
        rid = next(self._rid)
        with self.tracer.span("serve.request", cat="bench", rid=rid):
            request = make()
        self._rids[id(request.problem)] = rid
        return request

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        for target, attr, name in BOUNDARIES:
            owner = _resolve(target)
            saved = vars(owner).get(attr)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(
                original, name, _REQUEST_OF.get((target, attr)),
                (target, attr) in _SIZED,
            ))
            self._saved.append((owner, attr, saved))

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._saved):
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    def _wrap(self, fn, name: str, request_of, sized: bool):
        tracer = self.tracer
        local = self._local
        rids = self._rids

        def traced(*args, **kwargs):
            self.spans += 1
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rid = None
            if request_of is not None:
                found = [rids.get(id(p)) for p in request_of(args, kwargs)]
                rid = found[0] if len(found) == 1 else found
            if rid is None and stack:
                rid = stack[-1]
            attrs = {"rid": rid}
            if sized:
                attrs["size"] = len(_items_problems(args, kwargs))
            stack.append(rid)
            try:
                with tracer.span(name, cat="bench", **attrs):
                    return fn(*args, **kwargs)
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------------

    def boundary_stats(self, wall: float) -> dict[str, dict[str, float]]:
        """count / busy_s / self_s / share per boundary over ``wall`` seconds."""
        spans = self.tracer.finished_spans()
        covered: dict[int, int] = defaultdict(int)
        for span in spans:
            if span.parent is not None:
                covered[span.parent] += span.duration_ns
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0, "share": 0.0,
                     "sizes": []}
        )
        for span in spans:
            stats = out[span.name]
            stats["count"] += 1
            stats["busy_s"] += span.duration_ns * 1e-9
            stats["self_s"] += (span.duration_ns - covered[span.sid]) * 1e-9
            if "size" in span.attrs:
                stats["sizes"].append(span.attrs["size"])
        for stats in out.values():
            stats["share"] = stats["self_s"] / wall if wall > 0 else 0.0
        return out

    def write(self, path, info: dict) -> None:
        """Write every span, as ``[sid, parent, name, start_ns, end_ns, rid,
        tid]`` rows, to ``path`` (JSON)."""
        rows = [
            [s.sid, s.parent, s.name, s.start_ns, s.end_ns,
             s.attrs.get("rid"), s.tid]
            for s in self.tracer.finished_spans()
        ]
        with open(path, "w") as fh:
            json.dump({**info, "columns": [
                "sid", "parent", "name", "start_ns", "end_ns", "rid", "tid",
            ], "spans": rows}, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: LayerTrace, wall: float, registry, window,
                  cache_delta: dict, overhead: float,
                  edits: bool) -> dict[str, float]:
    """The ``PER_LAYER`` values of one traced window.

    ``registry`` is the metrics registry that was live only during the
    window, so its counters are the window's diffs; ``cache_delta`` is the
    change in the service cache's own counters over the window. The shares
    of edit requests by outcome are reported only when ``edits`` is set.
    """
    b = trace.boundary_stats(wall)

    def counter(name: str) -> int:
        return registry.counter(name).value if name in registry else 0

    served = window.served
    requests = sum(served.values()) if edits else 0
    groups = b["batch.group"]["sizes"] + b["backends.dispatch"]["sizes"]
    coalesced = served["coalesced"]
    wait = (
        registry.histogram("serve.queue_wait_ms").percentile(50)
        if "serve.queue_wait_ms" in registry else 0.0
    )
    values = {
        "kernels.fast_ratio": _ratio(
            counter("kernels.span.fast"),
            counter("kernels.span.fast") + counter("kernels.span.generic"),
        ),
        "scan.solved_ratio": _ratio(
            counter("scan.solved"), b["scan.solve"]["count"]
        ),
        "serve.request.build_s": b["serve.request"]["busy_s"],
        "serve.queue_wait.p50_ms": wait,
        "serve.cache.hit_ratio": _ratio(
            counter("serve.cache.hits"),
            counter("serve.cache.hits") + counter("serve.cache.misses"),
        ),
        "serve.cache.get_s": b["serve.cache.get"]["busy_s"],
        "serve.cache.put_s": b["serve.cache.put"]["busy_s"],
        # Jobs that cannot be pickled run inline on the parent's thread.
        "backends.inline_ratio": _ratio(
            counter("serve.backend.inline"),
            counter("serve.backend.inline") + counter("serve.backend.dispatched"),
        ),
        "batch.group.count": len(groups),
        "batch.group.mean_size": float(np.mean(groups)) if groups else 0.0,
        "batch.stacked_ratio": _ratio(
            window.stats["batch_stacked"], coalesced
        ),
        "delta.hit_ratio": _ratio(
            cache_delta.get("delta_hits", 0),
            cache_delta.get("delta_candidates", 0),
        ),
        "delta.cone_fraction.p50": (
            float(np.median(window.cone_fractions))
            if window.cone_fractions else 0.0
        ),
        "delta.degraded.count": counter("serve.cache.delta_degraded"),
        "delta.patched_ratio": _ratio(served["delta"], requests),
        "delta.bypass_coalesced_ratio": _ratio(coalesced, requests),
        "delta.degraded_ratio": _ratio(served["delta_degraded"], requests),
        "delta.no_base_ratio": _ratio(served["solved"], requests),
        "trace.overhead": overhead,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        boundary, _, stat = name.rpartition(".")
        values[name] = b[boundary][stat] if boundary in b else 0.0
    return {name: values[name] for name, _unit in PER_LAYER}
