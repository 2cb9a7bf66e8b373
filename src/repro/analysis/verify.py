"""Self-checking harness: every qualitative claim of the reproduction.

``verify_reproduction()`` runs the full checklist EXPERIMENTS.md is based on
— classification exactness, figure orderings, crossovers, ablation
directions, functional identity — and returns one pass/fail record per
claim. The CLI exposes it as ``repro-lddp verify``.

``quick=True`` shrinks sweep sizes; claims that need paper-scale tables to
manifest (late crossovers) are skipped rather than run at sizes where they
cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.classification import classify, transfer_need
from ..core.framework import Framework
from ..core.partition import HeteroParams
from ..machine.platform import hetero_high, hetero_low
from ..problems import (
    make_checkerboard,
    make_dithering,
    make_fig8_problem,
    make_fig9_problem,
    make_lcs,
    make_levenshtein,
)
from ..tuning.search import is_roughly_unimodal
from ..types import ContributingSet, Pattern
from .stats import crossover_size

__all__ = ["ClaimResult", "verify_reproduction", "verification_report"]


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    description: str
    passed: bool
    detail: str = ""
    skipped: bool = False


def _fast(fw: Framework, problem, params=None) -> float:
    return fw.estimate_fast(problem, params)


def _est(fw: Framework, problem, executor: str) -> float:
    return fw.estimate(problem, executor=executor).simulated_time


# ---------------------------------------------------------------------------


def _check_table1() -> tuple[bool, str]:
    expected = {
        1: Pattern.MINVERTED_L, 2: Pattern.HORIZONTAL, 3: Pattern.HORIZONTAL,
        4: Pattern.INVERTED_L, 5: Pattern.HORIZONTAL, 6: Pattern.HORIZONTAL,
        7: Pattern.HORIZONTAL, 8: Pattern.VERTICAL, 9: Pattern.KNIGHT_MOVE,
        10: Pattern.ANTI_DIAGONAL, 11: Pattern.KNIGHT_MOVE, 12: Pattern.VERTICAL,
        13: Pattern.KNIGHT_MOVE, 14: Pattern.ANTI_DIAGONAL, 15: Pattern.KNIGHT_MOVE,
    }
    bad = [
        m for m, pat in expected.items()
        if classify(ContributingSet.from_mask(m)) is not pat
    ]
    return not bad, f"mismatched masks: {bad}" if bad else "15/15 rows"


def _check_table2() -> tuple[bool, str]:
    cases = [
        (Pattern.ANTI_DIAGONAL, ContributingSet.of("W", "NW", "N"), "1-way"),
        (Pattern.HORIZONTAL, ContributingSet.of("NW", "N"), "1-way"),
        (Pattern.HORIZONTAL, ContributingSet.of("NW", "N", "NE"), "2-way"),
        (Pattern.INVERTED_L, ContributingSet.of("NW"), "1-way"),
        (Pattern.KNIGHT_MOVE, ContributingSet.from_mask(15), "2-way"),
    ]
    bad = [
        str(cs) for pat, cs, need in cases if transfer_need(pat, cs) != need
    ]
    return not bad, f"wrong rows: {bad}" if bad else "5/5 rows"


def _check_oracle_identity() -> tuple[bool, str]:
    fw = Framework(hetero_high())
    p = make_levenshtein(24, 31, seed=0)
    base = fw.solve(p, executor="sequential").table
    for name in ("cpu", "gpu"):
        if not np.array_equal(base, fw.solve(p, executor=name).table):
            return False, f"{name} differs"
    het = fw.solve(p, params=HeteroParams(4, 3)).table
    if not np.array_equal(base, het):
        return False, "hetero differs"
    return True, "4 executors bit-identical"


def _check_fig7(quick: bool) -> tuple[bool, str]:
    # The interior optimum needs the CPU/GPU crossover width (~2k cells) to
    # fall strictly inside the ramp: only tables >= ~4k can show it.
    n = 1024 if quick else 4096
    fw = Framework(hetero_high())
    p = make_lcs(n, materialize=False)
    half = p.schedule().num_iterations // 2
    grid = sorted({round(k * half / 8) for k in range(9)})
    curve = [
        (ts, _fast(fw, p, HeteroParams(ts, 0))) for ts in grid
    ]
    u = is_roughly_unimodal(curve, tolerance=0.05)
    if quick:
        return u, f"u-shape={u} (interior optimum needs paper scale)"
    interior = min(curve, key=lambda c: c[1])[1] < min(curve[0][1], curve[-1][1])
    return u and interior, f"u-shape={u} interior-min={interior}"


def _check_fig8(quick: bool) -> tuple[bool, str]:
    from ..exec.base import ExecOptions

    n = 512 if quick else 4096
    p = make_fig8_problem(n, materialize=False)
    il = Framework(hetero_high(), ExecOptions(pattern_override=Pattern.INVERTED_L))
    h1 = Framework(hetero_high())
    ok = (
        _est(h1, p, "cpu") < _est(il, p, "cpu")
        and _est(h1, p, "gpu") < _est(il, p, "gpu")
    )
    return ok, "H1 faster on both devices" if ok else "ordering violated"


def _check_hetero_never_loses(quick: bool) -> tuple[bool, str]:
    sizes = [256, 1024] if quick else [1024, 4096, 16384]
    for plat in (hetero_high(), hetero_low()):
        fw = Framework(plat)
        for n in sizes:
            p = make_fig9_problem(n, materialize=False)
            het = _fast(fw, p)
            best = min(_est(fw, p, "cpu"), _est(fw, p, "gpu"))
            if het > best * 1.001:
                return False, f"{plat.name} n={n}: hetero {het} > best {best}"
    return True, f"{2 * len(sizes)} points checked"


def _check_fig10(quick: bool) -> tuple[bool, str]:
    sizes = [256, 512, 1024] if quick else [1024, 4096, 16384]
    for plat in (hetero_high(), hetero_low()):
        fw = Framework(plat)
        gaps = []
        for n in sizes:
            p = make_levenshtein(n, materialize=False)
            gpu = _est(fw, p, "gpu")
            het = _fast(fw, p)
            if het >= gpu:
                return False, f"{plat.name} n={n}: hetero not < gpu"
            gaps.append(gpu - het)
        if gaps[-1] <= gaps[0]:
            return False, f"{plat.name}: gap does not grow"
    return True, "hetero < gpu at every size, gap grows"


def _check_fig12(quick: bool) -> tuple[bool, str, bool]:
    if quick:
        return True, "needs paper-scale sizes", True
    sizes = [1024, 4096, 8192, 16384]
    for plat in (hetero_high(), hetero_low()):
        fw = Framework(plat)
        cpu, gpu, het = [], [], []
        for n in sizes:
            p = make_dithering(n, materialize=False)
            cpu.append(_est(fw, p, "cpu"))
            gpu.append(_est(fw, p, "gpu"))
            het.append(_fast(fw, p))
        if not cpu[0] < gpu[0]:
            return False, f"{plat.name}: CPU does not win small", False
        if crossover_size(sizes, gpu, cpu) is None:
            return False, f"{plat.name}: GPU never overtakes CPU", False
        if not het[-1] < min(cpu[-1], gpu[-1]):
            return False, f"{plat.name}: hetero not best at scale", False
    return True, "all three Sec. VI-B claims hold on both platforms", False


def _check_fig13(quick: bool) -> tuple[bool, str, bool]:
    if quick:
        return True, "needs paper-scale sizes", True
    fw = Framework(hetero_high())
    small = make_checkerboard(1024, materialize=False)
    forced_small = _fast(fw, small, HeteroParams(0, 512))
    gpu_small = _est(fw, small, "gpu")
    big = make_checkerboard(32768, materialize=False)
    forced_big = _fast(fw, big, HeteroParams(0, 8000))
    gpu_big = _est(fw, big, "gpu")
    if not forced_small > gpu_small * 0.8:
        return False, "split overheads invisible at small size", False
    if not forced_big < gpu_big:
        return False, "work partitioning does not beat GPU at scale", False
    return True, "Sec. VI-C overhead + crossover claims hold", False


def _check_ablations(quick: bool) -> tuple[bool, str]:
    from ..exec.base import ExecOptions

    # The pipelined copy only sits on the critical path once the split is
    # balanced, which needs rows wider than the CPU/GPU crossover (~2k).
    n = 2048
    p9 = make_fig9_problem(n, materialize=False)
    on = Framework(hetero_high(), ExecOptions(pipeline=True))
    off = Framework(hetero_high(), ExecOptions(pipeline=False))
    params = HeteroParams(0, int(n * 0.85))
    pipeline_ok = _fast(off, p9, params) > _fast(on, p9, params)

    pl = make_levenshtein(512 if quick else n, materialize=False)
    lay_on = Framework(hetero_high(), ExecOptions(use_wavefront_layout=True))
    lay_off = Framework(hetero_high(), ExecOptions(use_wavefront_layout=False))
    layout_ok = _est(lay_off, pl, "gpu") > _est(lay_on, pl, "gpu")
    ok = pipeline_ok and layout_ok
    return ok, f"pipeline={pipeline_ok} coalescing={layout_ok}"


def _check_fast_estimator(quick: bool) -> tuple[bool, str]:
    fw = Framework(hetero_high())
    for maker in (make_levenshtein, make_dithering, make_checkerboard):
        p = maker(300, materialize=False)
        slow = fw.estimate(p).simulated_time
        fast = fw.estimate_fast(p)
        if abs(slow - fast) > 1e-12 * max(slow, 1e-12):
            return False, f"{p.name}: DES {slow} != fast {fast}"
    return True, "makespan-only replay == task-graph estimate (3 problems)"


def _check_streaming_identity(quick: bool) -> tuple[bool, str]:
    from ..exec.streaming import StreamingSolver

    p = make_levenshtein(96, 117, seed=1)
    fw = Framework(hetero_high())
    full = fw.solve(p, executor="sequential").table
    s = StreamingSolver().solve(p, track=[(96, 117)])
    if int(s.tracked[(96, 117)]) != int(full[-1, -1]):
        return False, "streamed corner differs from full solve"
    if s.memory_fraction > 0.1:
        return False, f"window not small: {s.memory_fraction:.2%}"
    return True, f"bit-identical at {s.memory_fraction:.2%} resident memory"


def verify_reproduction(quick: bool = False) -> list[ClaimResult]:
    """Run the full claim checklist; returns one record per claim."""
    results: list[ClaimResult] = []

    def run(claim: str, description: str, fn: Callable):
        try:
            out = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(ClaimResult(claim, description, False, f"error: {exc}"))
            return
        if len(out) == 3:
            passed, detail, skipped = out
        else:
            passed, detail = out
            skipped = False
        results.append(ClaimResult(claim, description, passed, detail, skipped))

    run("table1", "Table I classification matches the paper", _check_table1)
    run("table2", "Table II transfer needs match the paper", _check_table2)
    run("oracle", "all executors produce bit-identical tables", _check_oracle_identity)
    run("fig7", "t_switch curve is U-shaped with an interior optimum",
        lambda: _check_fig7(quick))
    run("fig8", "horizontal case-1 beats inverted-L on both devices",
        lambda: _check_fig8(quick))
    run("fig9", "the framework never loses to its own baselines",
        lambda: _check_hetero_never_loses(quick))
    run("fig10", "hetero beats GPU at every size and the gap grows",
        lambda: _check_fig10(quick))
    run("fig12", "dithering: CPU wins small, GPU wins large, hetero best",
        lambda: _check_fig12(quick))
    run("fig13", "checkerboard: split overheads small, partitioning wins big",
        lambda: _check_fig13(quick))
    run("ablations", "pipelining and coalescing help (model directions)",
        lambda: _check_ablations(quick))
    run("fast-est", "fast estimator exactly matches the DES",
        lambda: _check_fast_estimator(quick))
    run("streaming", "rolling-window solve is bit-identical to full solve",
        lambda: _check_streaming_identity(quick))
    return results


def verification_report(results: list[ClaimResult]) -> str:
    """Render the checklist as a text table."""
    from .report import format_table

    rows = []
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        rows.append([status, r.claim, r.description, r.detail])
    return format_table(["status", "claim", "description", "detail"], rows)
