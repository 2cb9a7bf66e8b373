"""The four closed-loop workloads: seeded inputs, set-up, client loops.

Every workload is a closed loop: each client waits for its reply before it
sends more, so the offered load follows the system and every throughput
figure is a measurement, not an echo of a configured rate. The program sees
only the generated problems; all randomness comes from ``--seed``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from collections import Counter
from functools import partial

import numpy as np

from repro import (
    ExecOptions,
    Framework,
    ServiceConfig,
    SLOPolicy,
    SolveRequest,
    SolveService,
    hetero_high,
)
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_gotoh,
    make_lcs,
    make_lcsubstr,
    make_levenshtein,
    make_prefix_sum,
    make_viterbi,
)

#: Seconds a serve request may take before it counts as timed out. Generous
#: on purpose: admission must never shed, or the loop would measure refusals.
REQUEST_TIMEOUT = 60.0


def _dithering(size: int, seed: int):
    # The stock test card ignores its seed; give every instance its own image
    # so no two solves see the same input.
    problem = make_dithering(size)
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 255.0, size=(size, size))
    return dataclasses.replace(
        problem, payload={**problem.payload, "image": image}
    )


#: Problem factories, ``factory(size, seed) -> LDDPProblem``.
FACTORIES = {
    "levenshtein": lambda n, s: make_levenshtein(n, seed=s),
    "gotoh": lambda n, s: make_gotoh(n, seed=s),
    "checkerboard": lambda n, s: make_checkerboard(n, seed=s),
    "viterbi": lambda n, s: make_viterbi(n, seed=s),
    "lcsubstr": lambda n, s: make_lcsubstr(n, seed=s),
    "dithering": _dithering,
    "prefix-sum": lambda n, s: make_prefix_sum(n, seed=s),
    "lcs": lambda n, s: make_lcs(n, seed=s),
}

#: solve-large: each size makes one solo solve take about the same wall time
#: (80-110 ms on a 2-vCPU x86 host), so no percentile falls into a gap
#: between a cheap and an expensive problem kind.
LARGE_SIZES = {
    "full": {
        "levenshtein": 976, "gotoh": 688, "checkerboard": 1432,
        "viterbi": 1680, "lcsubstr": 1856, "dithering": 464,
        "prefix-sum": 2560,
    },
    "tiny": {
        "levenshtein": 96, "gotoh": 64, "checkerboard": 96, "viterbi": 96,
        "lcsubstr": 96, "dithering": 48, "prefix-sum": 128,
    },
}

#: serve-fresh / serve-process: one size per kind, again so that one solve
#: takes about the same time whichever kind a burst draws.
SERVE_SIZES = {
    "full": {"levenshtein": 160, "lcs": 160, "checkerboard": 256,
             "viterbi": 256},
    "tiny": {"levenshtein": 32, "lcs": 32, "checkerboard": 48, "viterbi": 48},
}
HOT_PER_KIND = 2  # the hot set: instances per kind cached during set-up
BURST = 8  # one svc.map-like caller: 8 batch-compatible requests per burst
HOT_PER_BURST = 2  # a quarter of each burst repeats a hot-set instance

EDIT_SIZE = {"full": 768, "tiny": 64}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def instance_seed(seed: int, *parts: int) -> int:
    """A distinct, reproducible 63-bit seed per (run seed, stream, index)."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(
        2, np.uint32
    ).view(np.uint64)[0] >> np.uint64(1))


#: CPU seconds ``host_probe`` takes on the reference host. Reported times
#: are rescaled to a host where it takes exactly this long (see ``Window``).
PROBE_REF_S = 0.001
PROBE_RECENT = 9  # a step is rescaled by the median of its client's last 9


class _Deck:
    """Seeded draws that cover ``items`` evenly: one shuffled pass per round.

    Drawing without replacement fixes each run's mix of problem kinds (or
    of edit types), so the figures do not move with how a seed happens to
    mix cheap and expensive requests; the order stays random.
    """

    def __init__(self, rng: np.random.Generator, items) -> None:
        self._rng = rng
        self._items = list(items)
        self._left: list[int] = []

    def draw(self):
        if not self._left:
            self._left = list(self._rng.permutation(len(self._items)))
        return self._items[self._left.pop()]


def host_probe() -> float:
    """CPU seconds one fixed pure-Python loop takes right now.

    The loop shares no code with the program, so a change to the program
    cannot move it. It tracks how fast this host runs interpreted code at
    the moment: on shared virtual machines that speed drifts by up to 2x
    within minutes, and the program's own times drift with it. Thread CPU
    time leaves out waiting for the GIL or for a core.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(12_000):
        total += i * i % 7
    return time.thread_time() - t0


def host_slowness(probes: list[float]) -> float:
    """How much slower than the reference host these probes ran (median)."""
    ordered = sorted(probes)
    return ordered[len(ordered) // 2] / PROBE_REF_S


class Window:
    """Outcomes of one timed window, shared by the client threads.

    Keeps every latency, the delivered cell count, failures, how each
    request was served, and a seeded reservoir sample of delivered tables
    per served-by category for the output check.

    Each client ends every step (one request, or one burst) with
    ``host_probe``. The step's latencies are divided by the host slowness
    from the median of that client's last ``PROBE_RECENT`` probes, and
    ``slowness`` is the time-weighted mean over all steps, by which the
    window's throughput is multiplied: the figures a host running the probe
    in exactly ``PROBE_REF_S`` would show.
    """

    def __init__(self, seed: int, per_category: int) -> None:
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._k = per_category
        self.latencies: list[float] = []
        self.adj_latencies: list[float] = []
        self._pending: dict[int, list[float]] = {}
        self._recent: dict[int, list[float]] = {}
        self._step_time = 0.0
        self._slow_time = 0.0
        self.by_served: dict[str, list[float]] = {}
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.served: Counter = Counter()
        self.stats: Counter = Counter()
        self.cone_fractions: list[float] = []
        self.sample: dict[str, list] = {}
        self.wall = 0.0
        self.stop_early = lambda: False

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.errors[type(exc).__name__] += 1

    @property
    def slowness(self) -> float:
        return self._slow_time / self._step_time if self._step_time else 1.0

    def step(self, cid: int, started: float) -> None:
        """Close client ``cid``'s step that began at ``started``."""
        elapsed = time.perf_counter() - started
        probe = host_probe()
        with self._lock:
            recent = self._recent.setdefault(cid, [])
            recent.append(probe)
            del recent[:-PROBE_RECENT]
            slow = host_slowness(recent)
            self.adj_latencies += [
                lat / slow for lat in self._pending.pop(cid, [])
            ]
            self._step_time += elapsed
            self._slow_time += elapsed * slow

    def record(self, cid: int, problem, result, latency: float,
               served: str) -> None:
        if result.table is None:
            self.fail(ValueError("no table delivered"))
            return
        with self._lock:
            self.attempted += 1
            self.latencies.append(latency)
            self._pending.setdefault(cid, []).append(latency)
            self.by_served.setdefault(served, []).append(latency)
            self.cells += int(result.table.size)
            self.served[served] += 1
            mode = result.stats.get("batch_mode")
            if mode is not None and served == "coalesced":
                self.stats[f"batch_{mode}"] += 1
                self.stats["batch_members"] += result.stats["batched"]
            if served == "delta":
                self.cone_fractions.append(
                    float(result.stats["delta_cone_fraction"])
                )
            seen = self.served[served]
            slot = self.sample.setdefault(served, [])
            if len(slot) < self._k:
                slot.append((problem, result))
            else:
                j = self._rng.randrange(seen)
                if j < self._k:
                    slot[j] = (problem, result)



def run_window(workload, seconds: float, window: Window, tracer) -> Window:
    """Run ``workload``'s clients in a closed loop for ``seconds``.

    Clients stop sending once the time is up or ``window.stop_early()``
    holds; the window lasts until the last in-flight request returns.
    """
    stop_at = time.perf_counter() + seconds

    def stop() -> bool:
        return time.perf_counter() >= stop_at or window.stop_early()

    crashed: list[BaseException] = []

    def client(cid: int) -> None:
        try:
            workload.client(cid, window, stop, tracer)
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            crashed.append(exc)

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"bench-client-{cid}")
        for cid in range(workload.clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window.wall = time.perf_counter() - start
    if crashed:
        raise crashed[0]
    return window


# -- solve-large -----------------------------------------------------------------


class SolveLarge:
    """One caller solving large fresh instances with the default framework.

    The paper's single-instance path: strategy planning, the DES model,
    analytic tuning, span dispatch and the cell function do the work; the
    seven kinds cover all four execution strategies plus the scan tier.
    """

    clients = 1
    per_category = 1  # one sampled table per problem kind
    options = None

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.sizes = LARGE_SIZES[scale]
        self.kinds = tuple(self.sizes)
        self.framework: Framework | None = None
        self._next = 0  # index of the next instance, across windows

    def setup(self) -> None:
        self.framework = Framework(hetero_high())
        for k, kind in enumerate(self.kinds):  # compile every shape's plans
            self.framework.solve(self._problem(kind, 1, k))

    def _problem(self, kind: str, stream: int, index: int):
        return FACTORIES[kind](
            self.sizes[kind], instance_seed(self.seed, stream, index)
        )

    def client(self, cid, window, stop, tracer) -> None:
        while not stop():
            started = time.perf_counter()
            i = self._next
            self._next += 1
            kind = self.kinds[i % len(self.kinds)]
            problem = self._problem(kind, 2, i)
            tracer.register(problem)
            t0 = time.perf_counter()
            try:
                result = self.framework.solve(problem)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                window.fail(exc)
            else:
                window.record(cid, problem, result, time.perf_counter() - t0,
                              kind)
            window.step(cid, started)

    def oracle_run(self, problem):
        return self.framework.solve(problem)

    def oracle_problem(self):
        return FACTORIES["levenshtein"](40, instance_seed(self.seed, 9, 0))

    def close(self) -> None:
        self.framework = None


# -- serve-fresh / serve-process ----------------------------------------------------


class ServeFresh:
    """Bursts of small batch-compatible requests through ``SolveService``.

    Each of ``nproc`` clients submits a burst of 8 same-shape requests and
    waits for all 8, like a ``svc.map`` caller; two of each eight repeat a
    hot-set instance cached during set-up. Small tables make per-request
    and per-wavefront overhead dominate: request hashing, pricing, queueing,
    cache get/put and coalesced batch sweeps.
    """

    backend = "thread"
    per_category = 3
    options: ExecOptions | None = None

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.clients = nproc()
        self.sizes = SERVE_SIZES[scale]
        self.kinds = tuple(self.sizes)
        self.hot = {
            kind: [FACTORIES[kind](size, instance_seed(seed, 1, ki, h))
                   for h in range(HOT_PER_KIND)]
            for ki, (kind, size) in enumerate(self.sizes.items())
        }
        # Per-client input streams, continued across windows.
        self._rngs: dict[int, np.random.Generator] = {}
        self._decks: dict[tuple, _Deck] = {}
        self._bursts: Counter = Counter()
        self.svc: SolveService | None = None

    def _rng(self, cid: int, stream: int) -> np.random.Generator:
        if cid not in self._rngs:
            self._rngs[cid] = np.random.default_rng([self.seed, stream, cid])
        return self._rngs[cid]

    def _deck(self, cid: int, name: str, rng, items) -> _Deck:
        if (cid, name) not in self._decks:
            self._decks[cid, name] = _Deck(rng, items)
        return self._decks[cid, name]

    def config(self) -> ServiceConfig:
        n = nproc()
        return ServiceConfig(
            backend=self.backend,
            workers=n,
            coalesce_window=0.004,
            max_batch=BURST,
            slo=SLOPolicy(min_workers=n, max_workers=n),
            options=self.options,
        )

    def setup(self) -> None:
        self.svc = SolveService(hetero_high(), config=self.config())
        # Cache the hot set, then run one fresh burst per group so every
        # shape's plans are compiled (in each worker process, for the
        # process backend) and the pricer has calibrated.
        for ki, (kind, size) in enumerate(self.sizes.items()):
            pendings = [self._submit(p) for p in self.hot[kind]] + [
                self._submit(FACTORIES[kind](size, instance_seed(self.seed, 3, ki, k)))
                for k in range(BURST)
            ]
            for pending in pendings:
                pending.result()

    def _submit(self, problem):
        return self.svc.submit(SolveRequest(problem, timeout=REQUEST_TIMEOUT))

    def client(self, cid, window, stop, tracer) -> None:
        rng = self._rng(cid, 4)
        kinds = self._deck(cid, "kind", rng, self.kinds)
        while not stop():
            started = time.perf_counter()
            kind = kinds.draw()
            burst = self._bursts[cid]
            self._bursts[cid] += 1
            hot = set(rng.choice(BURST, HOT_PER_BURST, replace=False).tolist())
            problems = [
                self.hot[kind][rng.integers(HOT_PER_KIND)]
                if k in hot
                else FACTORIES[kind](self.sizes[kind],
                                     instance_seed(self.seed, 5, cid, burst, k))
                for k in range(BURST)
            ]
            self._burst(cid, problems, window, tracer)
            window.step(cid, started)

    def _burst(self, cid, problems, window, tracer) -> None:
        done = [0.0] * len(problems)
        inflight = []
        for k, problem in enumerate(problems):
            request = tracer.build_request(
                lambda p=problem: SolveRequest(p, timeout=REQUEST_TIMEOUT)
            )
            t0 = time.perf_counter()
            try:
                pending = self.svc.submit(request)
            except Exception as exc:  # noqa: BLE001 - refused: a failure
                window.fail(exc)
                continue
            # Stamp completion in the worker that resolves the future, so a
            # request's latency does not include waiting on its burst-mates.
            pending._future.add_done_callback(partial(_stamp, done, k))
            inflight.append((k, request, pending, t0))
        for k, request, pending, t0 in inflight:
            try:
                result = pending.result()
            except Exception as exc:  # noqa: BLE001 - a failed operation
                window.fail(exc)
                continue
            window.record(cid, request.problem, result, done[k] - t0,
                          _served_by(pending, result))

    def oracle_run(self, problem):
        return self.svc.submit(SolveRequest(problem, timeout=REQUEST_TIMEOUT)).result()

    def oracle_problem(self):
        return FACTORIES["levenshtein"](40, instance_seed(self.seed, 9, 0))

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


def _stamp(slots: list, k: int, _future) -> None:
    slots[k] = time.perf_counter()


def _served_by(pending, result) -> str:
    if pending.cache_hit:
        return "hit"
    if result.stats.get("solver") == "delta":
        return "delta"
    if result.stats.get("batched"):
        return "coalesced"
    if result.stats.get("degraded") == "full-solve":
        return "delta_degraded"
    return "solved"


class ServeProcess(ServeFresh):
    """``serve-fresh``'s traffic, seed and configuration on the process pool.

    The only path that leaves the GIL: spawned worker processes with
    shared-memory result transport. Every delivered table is an shm view.
    """

    backend = "process"


# -- serve-edits ----------------------------------------------------------------------


class _Document:
    """One live document: its latest version, edited under a lock."""

    def __init__(self, problem, field: str, edit) -> None:
        self.problem = problem
        self.field = field
        self.edit = edit
        self.lock = threading.Lock()


#: One edit in ten lands anywhere (an interior edit, a large cone); the rest
#: are end-biased (cheap suffix cones).
EDIT_KINDS = (True,) + (False,) * 9


def _end_biased(rng, n: int, interior: bool) -> int:
    """An index biased toward the end, or anywhere for an interior edit."""
    if not interior:
        return n - 1 - min(n - 1, int(rng.exponential(0.02 * n)))
    return int(rng.integers(n))


def _edit_symbol(rng, values: np.ndarray, interior: bool,
                 alphabet: int) -> None:
    i = _end_biased(rng, values.shape[0], interior)
    values[i] = (values[i] + 1 + rng.integers(alphabet - 1)) % alphabet


def _edit_cost(rng, cost: np.ndarray, interior: bool) -> None:
    row = _end_biased(rng, cost.shape[0], interior)
    cost[row, rng.integers(cost.shape[1])] = rng.uniform(0.0, 10.0)


class ServeEdits(ServeFresh):
    """Near-duplicate traffic: one-element edits of four live documents.

    Each of ``nproc`` clients sends one request at a time; each request
    edits the latest version of one document (two same-shape Levenshtein
    pairs, a checkerboard, a Viterbi trellis). Exact cache hits never
    happen; the delta tier's probe, cone and patch do the work when a
    request reaches it.
    """

    options = ExecOptions(delta=True)
    per_category = 2

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        n = EDIT_SIZE[scale]
        self.docs = [
            _Document(make_levenshtein(n, seed=instance_seed(seed, 6, 0)), "a",
                      partial(_edit_symbol, alphabet=4)),
            _Document(make_levenshtein(n, seed=instance_seed(seed, 6, 1)), "b",
                      partial(_edit_symbol, alphabet=4)),
            _Document(make_checkerboard(n, seed=instance_seed(seed, 6, 2)),
                      "cost", _edit_cost),
            _Document(make_viterbi(n, states=n, seed=instance_seed(seed, 6, 3)),
                      "obs", partial(_edit_symbol, alphabet=6)),
        ]

    def setup(self) -> None:
        self.svc = SolveService(hetero_high(), config=self.config())
        rng = np.random.default_rng([self.seed, 7])
        # Solve every original (registering it as a delta base), then two
        # edits each, so the patch path is warm before timing.
        for doc in self.docs:
            self._submit(doc.problem).result()
        for _ in range(2):
            for doc in self.docs:
                self._submit(self._next_version(doc, rng, False)).result()

    def _next_version(self, doc: _Document, rng, interior: bool):
        with doc.lock:
            payload = dict(doc.problem.payload)
            values = payload[doc.field].copy()
            doc.edit(rng, values, interior)
            payload[doc.field] = values
            doc.problem = dataclasses.replace(doc.problem, payload=payload)
            return doc.problem

    def client(self, cid, window, stop, tracer) -> None:
        rng = self._rng(cid, 8)
        edits = self._deck(cid, "edit", rng, EDIT_KINDS)
        while not stop():
            started = time.perf_counter()
            doc = self.docs[rng.integers(len(self.docs))]
            version = self._next_version(doc, rng, edits.draw())
            self._burst(cid, [version], window, tracer)
            window.step(cid, started)
