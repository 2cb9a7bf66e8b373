"""Delta tier: keys, diffs, cones, patches, cache index, serve wiring.

The load-bearing guarantees:

* a delta-patched table is **bit-identical** to a fresh solve of the edited
  instance, for every pattern and any number of edited payload cells — each
  replayed wave is the generic span's gather -> cell -> scatter, with
  out-of-table reads served by an ``oob_value`` sentinel;
* the recompute cost is accounted exactly: cells replayed == cone volume,
  the closure equals a brute-force forward fixpoint for all 15 contributing
  sets, and an oversized cone degrades (``DeltaUnsupported``) instead of
  sweeping the table;
* ``payload_locality`` is a verified declaration: honest declarations make
  the probe edit-sized, lying ones are caught by the seeded spot-check and
  degrade, undeclared entries fall back to the sound global probe;
* the serve layer turns exact-miss/near-match traffic into patches
  (``serve.cache.delta_hit``) and degrades bit-identically with a stats
  reason on any failure, including an injected ``delta.patch`` fault;
* the base index keeps one base per lineage: same-shape documents sharing
  a near-match key each patch against their own latest version, coalesced
  edits are patched before any batch sweep, and a request is probed (and
  counted degraded) at most once.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cancel
from repro import ContributingSet, ExecOptions, Framework, LDDPProblem
from repro.cancel import CancelToken
from repro.cli import main as cli_main
from repro.core.classification import classify
from repro.core.schedule import schedule_for
from repro.delta import (
    candidate_mask,
    delta_applicable,
    delta_key,
    delta_makespan,
    delta_patch,
    delta_timeline,
    forward_cone,
    forward_offsets,
    payload_diff,
    probe_seeds,
    verify_locality,
)
from repro.errors import (
    DeltaUnsupported,
    InjectedFault,
    ProblemSpecError,
    ServiceTimeout,
    SolveCancelled,
)
from repro.faults import inject_faults
from repro.machine.platform import hetero_high
from repro.obs import get_metrics
from repro.patterns.registry import strategy_for
from repro.problems import make_lcs, make_viterbi
from repro.problems.checkerboard import make_checkerboard
from repro.problems.levenshtein import make_levenshtein
from repro.serve import ResultCache, ServiceConfig, SolveRequest, SolveService
from repro.serve.cache import BASES_PER_KEY

SETTINGS = settings(max_examples=25, deadline=None)

#: Module-level framework: hypothesis reruns examples many times per test,
#: and function-scoped fixtures don't mix with ``@given``.
FRAMEWORK = Framework(hetero_high())

DELTA_OPTS = ExecOptions(delta=True, delta_max_cone=1.0)


def _grid_cell(ctx):
    vals = [v for v in (ctx.w, ctx.nw, ctx.n, ctx.ne) if v is not None]
    out = vals[0]
    for v in vals[1:]:
        out = np.minimum(out, v)
    return out + ctx.payload["grid"][ctx.i, ctx.j]


def make_grid_problem(contributing: ContributingSet, n: int = 24,
                      seed: int = 0) -> LDDPProblem:
    """``f = min(contributing) + grid[i, j]`` — payload-bearing, any pattern."""
    rng = np.random.default_rng(seed)
    return LDDPProblem(
        name=f"grid-{contributing.mask:02d}-{n}",
        shape=(n, n),
        contributing=contributing,
        cell=_grid_cell,
        dtype=np.dtype(np.int64),
        payload={"grid": rng.integers(0, 50, size=(n, n))},
        oob_value=0,
        payload_locality={"grid": ("cell", 0, 0)},
    )


def _edit_entry(problem: LDDPProblem, name: str, flat_indices) -> LDDPProblem:
    payload = dict(problem.payload)
    arr = payload[name].copy()
    arr.ravel()[np.asarray(flat_indices)] += 1
    payload[name] = arr
    return replace(problem, payload=payload)


def _patched_vs_fresh(base, edited):
    base_result = FRAMEWORK.solve(base, executor="cpu")
    fresh = FRAMEWORK.solve(edited, executor="cpu",
                            options=ExecOptions(delta=False))
    patched = delta_patch(edited, base.payload, base_result,
                          platform=hetero_high(), options=DELTA_OPTS,
                          executor="cpu")
    return patched, fresh


def _brute_force_cone(cs: ContributingSet, seeds, rows: int,
                      cols: int) -> set[tuple[int, int]]:
    """Forward fixpoint of ``seeds`` by breadth-first search."""
    offsets = forward_offsets(cs)
    cone = set(seeds)
    queue = deque(cone)
    while queue:
        r, c = queue.popleft()
        for di, dj in offsets:
            nxt = (r + di, c + dj)
            if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and nxt not in cone:
                cone.add(nxt)
                queue.append(nxt)
    return cone


# -- the bit-identity property ------------------------------------------------


class TestBitIdentity:
    """Patched table == fresh solve, across patterns and edit shapes."""

    @SETTINGS
    @given(
        pattern=st.sampled_from(["anti-diagonal", "horizontal",
                                 "inverted-L", "vertical"]),
        data=st.data(),
    )
    def test_random_k_cell_edit_patches_bit_identically(self, pattern, data):
        cs = {
            "anti-diagonal": ContributingSet.of("W", "NW", "N"),
            "horizontal": ContributingSet.of("NW", "N", "NE"),
            "inverted-L": ContributingSet.of("NW"),
            "vertical": ContributingSet.of("W", "NW"),
        }[pattern]
        base = make_grid_problem(cs, n=24, seed=data.draw(
            st.integers(0, 2**16), label="seed"))
        assert base.pattern.value == pattern
        k = data.draw(st.integers(1, 6), label="k")
        cells = data.draw(
            st.lists(st.integers(0, 24 * 24 - 1), min_size=k, max_size=k,
                     unique=True),
            label="cells",
        )
        edited = _edit_entry(base, "grid", cells)
        patched, fresh = _patched_vs_fresh(base, edited)
        assert patched.stats["solver"] == "delta"
        assert patched.stats["delta_probe"] == "locality"
        assert np.array_equal(patched.table, fresh.table)

    @SETTINGS
    @given(index=st.integers(0, 127), name=st.sampled_from(["a", "b"]))
    def test_levenshtein_char_edit(self, index, name):
        base = make_levenshtein(128)
        edited = _edit_entry(base, name, [index])
        patched, fresh = _patched_vs_fresh(base, edited)
        assert np.array_equal(patched.table, fresh.table)

    def test_boundary_edit_seeds_through_init(self):
        # Checkerboard row 0 of the cost board lives in the fixed boundary;
        # make it the new minimum so the change definitely propagates.
        base = make_checkerboard(48)
        payload = dict(base.payload)
        cost = payload["cost"].copy()
        cost[0, 10] -= 100.0
        payload["cost"] = cost
        edited = replace(base, payload=payload)
        patched, fresh = _patched_vs_fresh(base, edited)
        assert not np.array_equal(FRAMEWORK.solve(base, executor="cpu").table,
                                  fresh.table)
        assert np.array_equal(patched.table, fresh.table)

    def test_zero_edit_returns_base_table(self):
        base = make_levenshtein(32)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        clone = replace(base, name="same-bytes-different-name")
        patched = delta_patch(clone, base.payload, base_result,
                              platform=hetero_high(), options=DELTA_OPTS)
        assert patched.stats["delta_cone_cells"] == 0
        assert patched.stats["delta_probe"] == "none"
        assert np.array_equal(patched.table, base_result.table)

    def test_patch_never_mutates_the_base(self):
        base = make_levenshtein(32)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        snapshot = base_result.table.copy()
        edited = _edit_entry(base, "a", [31])
        delta_patch(edited, base.payload, base_result,
                    platform=hetero_high(), options=DELTA_OPTS)
        assert np.array_equal(base_result.table, snapshot)


# -- cone geometry and accounting ---------------------------------------------


class TestCone:
    def test_forward_offsets_negate_contributing(self):
        cs = ContributingSet.of("W", "NW", "N", "NE")
        assert set(forward_offsets(cs)) == {(0, 1), (1, 1), (1, 0), (1, -1)}

    def test_recomputed_cells_equal_cone_volume(self):
        base = make_levenshtein(96)
        edited = _edit_entry(base, "a", [40])
        patched, _ = _patched_vs_fresh(base, edited)
        s = patched.stats
        assert s["delta_recomputed_cells"] == s["delta_cone_cells"] > 0
        assert s["delta_cone_fraction"] == pytest.approx(
            s["delta_cone_cells"] / base.total_computed_cells
        )

    def test_suffix_cone_smaller_than_interior_cone(self):
        base = make_levenshtein(128)
        suffix, _ = _patched_vs_fresh(base, _edit_entry(base, "a", [127]))
        interior, _ = _patched_vs_fresh(base, _edit_entry(base, "a", [64]))
        assert (0 < suffix.stats["delta_cone_cells"]
                < interior.stats["delta_cone_cells"])

    def test_single_seed_horizontal_cone_is_a_widening_triangle(self):
        cs = ContributingSet.of("NW", "N", "NE")
        problem = make_grid_problem(cs, n=8)
        schedule = problem.schedule()
        si = np.array([2], dtype=np.int64)
        sj = np.array([4], dtype=np.int64)
        cone = forward_cone(schedule, cs, si, sj, problem.computed_shape)
        # rows 2..7, widening by one column on each side, clipped at 8
        assert cone.waves == 6
        assert cone.cells == sum(min(8, 1 + 2 * d) for d in range(6))
        assert (cone.rows[0], cone.cols[0]) == (2, 4)
        assert cone.bounds[1] == 1  # the first wave is that one cell

    def test_cone_cap_raises_delta_unsupported(self):
        cs = ContributingSet.of("NW", "N", "NE")
        problem = make_grid_problem(cs, n=16)
        schedule = problem.schedule()
        with pytest.raises(DeltaUnsupported, match="cone-too-large"):
            forward_cone(
                schedule, cs,
                np.array([0], dtype=np.int64), np.array([0], dtype=np.int64),
                problem.computed_shape, max_cells=3,
            )

    @settings(max_examples=150, deadline=None)
    @given(
        mask=st.integers(1, 15),
        rows=st.integers(1, 24),
        cols=st.integers(1, 24),
        data=st.data(),
    )
    def test_closure_matches_brute_force_fixpoint(self, mask, rows, cols,
                                                  data):
        cs = ContributingSet.from_mask(mask)
        k = data.draw(st.integers(1, 6), label="k")
        seeds = data.draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            min_size=k, max_size=k,
        ), label="seeds")
        expected = _brute_force_cone(cs, seeds, rows, cols)
        max_cells = data.draw(st.integers(1, rows * cols), label="max_cells")
        schedule = schedule_for(classify(cs), rows, cols)
        si = np.array([r for r, _ in seeds], dtype=np.int64)
        sj = np.array([c for _, c in seeds], dtype=np.int64)
        if len(expected) > max_cells:
            with pytest.raises(DeltaUnsupported, match="cone-too-large"):
                forward_cone(schedule, cs, si, sj, (rows, cols),
                             max_cells=max_cells)
        else:
            forward_cone(schedule, cs, si, sj, (rows, cols),
                         max_cells=max_cells)
        cone = forward_cone(schedule, cs, si, sj, (rows, cols))
        got = set(zip(cone.rows.tolist(), cone.cols.tolist()))
        assert got == expected
        assert cone.cells == len(expected)
        # Replay order: ascending (iteration, position), one wave per
        # iteration, and bounds split exactly where the iteration changes.
        t = schedule.iteration_of(cone.rows, cone.cols)
        pos = schedule.position_of(cone.rows, cone.cols)
        key = list(zip(t.tolist(), pos.tolist()))
        assert key == sorted(key)
        assert cone.bounds[0] == 0 and cone.bounds[-1] == cone.cells
        assert cone.waves == len(set(t.tolist()))
        for s, e in zip(cone.bounds[:-1], cone.bounds[1:]):
            assert e > s and len(set(t[s:e].tolist())) == 1

    @pytest.mark.parametrize("mask", range(1, 16))
    def test_closure_on_degenerate_shapes(self, mask):
        # Single-row and single-column tables, every single seed: C == 1 is
        # where the NE vector leaves the table and must not widen the cone.
        cs = ContributingSet.from_mask(mask)
        for rows, cols in [(1, 1), (1, 6), (6, 1), (2, 2)]:
            schedule = schedule_for(classify(cs), rows, cols)
            for r in range(rows):
                for c in range(cols):
                    cone = forward_cone(
                        schedule, cs, np.array([r]), np.array([c]),
                        (rows, cols),
                    )
                    got = set(zip(cone.rows.tolist(), cone.cols.tolist()))
                    assert got == _brute_force_cone(cs, [(r, c)], rows, cols)

    def test_oversized_cone_degrades_through_the_patch(self):
        base = make_levenshtein(64)
        edited = _edit_entry(base, "a", [0])  # head edit: cone ~ whole table
        base_result = FRAMEWORK.solve(base, executor="cpu")
        with pytest.raises(DeltaUnsupported, match="cone-too-large"):
            delta_patch(edited, base.payload, base_result,
                        platform=hetero_high(),
                        options=ExecOptions(delta=True, delta_max_cone=0.01))


# -- the flat-index replay ---------------------------------------------------


def _patch(base, edited, options=DELTA_OPTS):
    base_result = FRAMEWORK.solve(base, executor="cpu")
    return delta_patch(edited, base.payload, base_result,
                       platform=hetero_high(), options=options, executor="cpu")


#: (label, base problem factory, payload entry, flat indices edited).
PINNED_EDITS = [
    ("levenshtein-a40", lambda: make_levenshtein(96), "a", [40]),
    ("levenshtein-b90", lambda: make_levenshtein(96), "b", [90]),
    ("lcs-a60", lambda: make_lcs(64), "a", [60]),
    ("checkerboard-col0", lambda: make_checkerboard(48), "cost", [20 * 48]),
    ("checkerboard-lastcol", lambda: make_checkerboard(48), "cost",
     [30 * 48 + 47]),
    ("viterbi-obs50", lambda: make_viterbi(64), "obs", [50]),
]


class TestReplay:
    """The flat-index replay: out-of-table reads, stats, control, chaos."""

    @pytest.mark.parametrize(
        "label, factory, name, idx", PINNED_EDITS,
        ids=[e[0] for e in PINNED_EDITS],
    )
    def test_patch_matches_the_sequential_oracle(self, label, factory, name,
                                                 idx):
        # Checkerboard edits at column 0 / the last column read NW / NE
        # outside the table (inf), Viterbi's state 0 reads NW outside
        # (NEG), and Levenshtein / LCS replay integer tables.
        base = factory()
        edited = _edit_entry(base, name, idx)
        patched = _patch(base, edited)
        assert patched.stats["solver"] == "delta"
        assert patched.table.dtype == base.dtype
        assert np.array_equal(patched.table, _oracle(edited))

    def test_oob_value_reaches_edge_cells_through_the_sentinel(self):
        # The grid problem takes the min over its neighbours, so a negative
        # oob_value decides every edge cell that reads outside the table.
        cs = ContributingSet.of("NW", "N", "NE")
        base = replace(make_grid_problem(cs, n=16, seed=3), oob_value=-7)
        edited = _edit_entry(base, "grid", [5 * 16, 9 * 16 + 15])
        oracle = _oracle(edited)
        grid = edited.payload["grid"]
        assert np.array_equal(oracle[1:, 0], grid[1:, 0] - 7)
        assert np.array_equal(oracle[1:, -1], grid[1:, -1] - 7)
        patched = _patch(base, edited)
        assert patched.stats["delta_cone_cells"] > 0
        assert np.array_equal(patched.table, oracle)

    def test_unrepresentable_oob_value_is_never_cast_without_a_read(self):
        # Levenshtein's fixed row and column keep every read inside the
        # table, so an integer table with oob_value=inf solves fresh, and
        # must patch too.
        base = replace(make_levenshtein(32), oob_value=np.inf)
        edited = _edit_entry(base, "a", [30])
        patched = _patch(base, edited)
        assert patched.stats["delta_cone_cells"] > 0
        assert np.array_equal(patched.table, _oracle(edited))

    def test_stats_pinned_to_literal_values(self):
        # The cone, its waves and its fraction follow from the geometry
        # alone; any replay must report exactly these.
        expected = {
            "levenshtein-a40": (4760, 140, 0.5164930555555556),
            "levenshtein-b90": (270, 50, 0.029296875),
            "lcs-a60": (200, 53, 0.048828125),
            "checkerboard-col0": (406, 28, 0.1799645390070922),
            "checkerboard-lastcol": (171, 18, 0.07579787234042554),
            "viterbi-obs50": (224, 14, 0.21875),
        }
        for label, factory, name, idx in PINNED_EDITS:
            base = factory()
            s = _patch(base, _edit_entry(base, name, idx)).stats
            got = (s["delta_cone_cells"], s["delta_waves"],
                   s["delta_cone_fraction"])
            assert got == expected[label], label
            assert s["delta_recomputed_cells"] == s["delta_cone_cells"]

    @staticmethod
    def _tripwire(base, after_calls, action):
        """``base`` whose cell function runs ``action`` on call number
        ``after_calls``."""
        calls = [0]

        def cell(ctx):
            calls[0] += 1
            if calls[0] == after_calls:
                action()
            return base.cell(ctx)

        return replace(base, cell=cell), calls

    def test_cancel_mid_replay_surfaces_solve_cancelled(self):
        base = make_levenshtein(64)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        token = CancelToken()
        # The locality probe and its spot-check are two cell calls; call 5
        # is the third replayed wave.
        edited, calls = self._tripwire(_edit_entry(base, "a", [40]), 5,
                                       token.cancel)
        with pytest.raises(SolveCancelled):
            delta_patch(edited, base.payload, base_result,
                        platform=hetero_high(),
                        options=DELTA_OPTS.replace(cancel_token=token))
        assert calls[0] == 5

    def test_deadline_mid_replay_surfaces_service_timeout(self, monkeypatch):
        base = make_levenshtein(64)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        # Call 5 moves the deadline checks' clock past any deadline.
        late = SimpleNamespace(monotonic=lambda: float("inf"))
        edited, calls = self._tripwire(
            _edit_entry(base, "a", [40]), 5,
            lambda: monkeypatch.setattr(repro.cancel, "time", late),
        )
        deadline = time.monotonic() + 3600
        with pytest.raises(ServiceTimeout):
            delta_patch(edited, base.payload, base_result,
                        platform=hetero_high(),
                        options=DELTA_OPTS.replace(deadline=deadline))
        assert calls[0] == 5

    def test_exec_span_fault_mid_replay_degrades_to_the_oracle(self):
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [40])
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with SolveService(hetero_high(), config=cfg) as svc:
            svc.submit(SolveRequest(base)).result()
            # Each replayed wave is one exec.span check, and the patch runs
            # before any full-solve span: nth=3 fails the third wave.
            with inject_faults("exec.span:nth=3"):
                degraded = svc.submit(SolveRequest(edited)).result()
        assert degraded.stats.get("degraded") == "full-solve"
        [step] = degraded.stats["route"]
        assert step["tier"] == "delta"
        assert "InjectedFault" in step["reason"]
        assert "exec.span" in step["reason"]
        assert np.array_equal(degraded.table, _oracle(edited))


# -- the payload diff ---------------------------------------------------------


class TestPayloadDiff:
    def test_identical_payloads_diff_empty(self):
        p = make_levenshtein(16)
        d = payload_diff(p.payload, dict(p.payload))
        assert d["edited_entries"] == d["edited_elements"] == 0
        assert d["changed"] == {}

    def test_changed_indices_are_exact(self):
        p = make_levenshtein(16)
        edited = _edit_entry(p, "a", [3, 7])
        d = payload_diff(p.payload, edited.payload)
        assert d["edited_entries"] == 1
        assert d["edited_elements"] == 2
        assert sorted(d["changed"]["a"].tolist()) == [3, 7]

    def test_nan_to_nan_is_not_an_edit(self):
        a = {"x": np.array([np.nan, 1.0])}
        b = {"x": np.array([np.nan, 1.0])}
        assert payload_diff(a, b)["edited_elements"] == 0

    @pytest.mark.parametrize("other, msg", [
        ({"x": np.zeros(3), "y": 1}, "entry names"),
        ({"x": np.zeros(4)}, "shape moved"),
        ({"x": np.zeros(3, dtype=np.float32)}, "dtype moved"),
        ({"x": 5}, "ndarray vs non-ndarray"),
    ])
    def test_structural_drift_degrades(self, other, msg):
        base = {"x": np.zeros(3)}
        with pytest.raises(DeltaUnsupported, match=msg):
            payload_diff(base, other)

    def test_non_array_edit_counts_one_with_no_indices(self):
        d = payload_diff({"k": 1}, {"k": 2})
        assert d["edited_elements"] == 1
        assert d["changed"]["k"] is None


# -- payload locality ---------------------------------------------------------


class TestPayloadLocality:
    def test_declared_problems_probe_edit_sized(self):
        base = make_levenshtein(256)
        edited = _edit_entry(base, "a", [200])
        patched, _ = _patched_vs_fresh(base, edited)
        assert patched.stats["delta_probe"] == "locality"
        # one table row of candidates plus the spot-check sample
        assert patched.stats["delta_probed_cells"] < 2 * 256 + 256

    def test_undeclared_entry_falls_back_to_global_probe(self):
        base = make_grid_problem(ContributingSet.of("NW", "N"), n=24)
        base = replace(base, payload_locality=None)
        edited = _edit_entry(base, "grid", [100])
        patched, fresh = _patched_vs_fresh(base, edited)
        assert patched.stats["delta_probe"] == "global"
        assert patched.stats["delta_probed_cells"] == base.total_computed_cells
        assert np.array_equal(patched.table, fresh.table)

    def test_row_and_col_specs_map_candidates(self):
        p = make_levenshtein(16)
        cand = candidate_mask(p, {"a": np.array([4]), "b": np.array([9])})
        assert cand is not None
        mask, gi, gj = cand
        assert mask[5, :].all() and mask[:, 10].all()
        assert mask.sum() == 17 + 17 - 1
        assert len(gi) == len(gj) == 2 * 17

    def test_global_spec_and_non_array_edits_disable_mapping(self):
        p = make_levenshtein(16)
        assert candidate_mask(p, {"a": None}) is None
        q = replace(p, payload_locality={"a": "global", "b": ("col", 1)})
        assert candidate_mask(q, {"a": np.array([1])}) is None

    def test_dimension_mismatch_disables_mapping(self):
        p = make_checkerboard(8)
        q = replace(p, payload_locality={"cost": ("row", 0)})  # 2-D entry
        assert candidate_mask(q, {"cost": np.array([3])}) is None

    def test_lying_declaration_is_caught_and_degrades(self):
        base = make_checkerboard(64)
        lie = replace(base, payload_locality={"cost": ("cell", 30, 0)})
        base_result = FRAMEWORK.solve(lie, executor="cpu")
        payload = dict(lie.payload)
        payload["cost"] = payload["cost"] + 1.0  # dense edit: sample must hit
        edited = replace(lie, payload=payload)
        with pytest.raises(DeltaUnsupported, match="locality-violation"):
            delta_patch(edited, lie.payload, base_result,
                        platform=hetero_high(), options=DELTA_OPTS)

    def test_verify_locality_passes_on_honest_probe(self):
        base = make_levenshtein(32)
        table = FRAMEWORK.solve(base, executor="cpu").table
        checked = verify_locality(
            base, table, np.zeros(base.shape, dtype=bool), samples=64
        )
        assert checked == 64

    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ProblemSpecError, match="payload_locality"):
            replace(make_levenshtein(8),
                    payload_locality={"a": ("diagonal", 1)})
        with pytest.raises(ProblemSpecError, match="payload_locality"):
            replace(make_levenshtein(8),
                    payload_locality={"a": ("row", 1, 2)})


# -- the near-match key -------------------------------------------------------


class TestDeltaKey:
    def test_payload_bytes_and_executor_do_not_key(self):
        a = make_levenshtein(32, seed=0)
        b = make_levenshtein(32, seed=1)
        assert delta_key(a) == delta_key(b)

    def test_geometry_options_and_locality_key(self):
        base = make_levenshtein(32)
        assert delta_key(base) != delta_key(make_levenshtein(33))
        assert delta_key(base) != delta_key(
            base, options=ExecOptions(scan=False))
        relabeled = replace(base, payload_locality={"a": ("row", 2)})
        assert delta_key(base) != delta_key(relabeled)

    def test_applicability_gates(self):
        assert delta_applicable(make_levenshtein(16)) is None
        aux = replace(make_levenshtein(16), aux_specs={"p": np.dtype(np.int8)})
        assert delta_applicable(aux) == "aux-outputs"
        assert "delta_max_cone" in delta_applicable(
            make_levenshtein(16), ExecOptions(delta_max_cone=0.0))


# -- chaos: the delta.patch fault site ----------------------------------------


class TestFaultSite:
    def test_injected_fault_raises_before_any_work(self):
        base = make_levenshtein(32)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        edited = _edit_entry(base, "a", [31])
        with inject_faults("delta.patch:nth=1"):
            with pytest.raises(InjectedFault):
                delta_patch(edited, base.payload, base_result,
                            platform=hetero_high(), options=DELTA_OPTS)

    def test_service_degrades_bit_identically_with_reason(self):
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [47])
        fresh = FRAMEWORK.solve(edited, executor="cpu").table
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with inject_faults("delta.patch:nth=1"):
            with SolveService(hetero_high(), config=cfg) as svc:
                svc.submit(SolveRequest(base)).result()
                degraded = svc.submit(SolveRequest(edited)).result()
        assert degraded.stats.get("degraded") == "full-solve"
        [step] = degraded.stats["route"]
        assert step["tier"] == "delta"
        assert "InjectedFault" in step["reason"]
        assert np.array_equal(degraded.table, fresh)


# -- cache base index and serve wiring ----------------------------------------


class TestCacheBaseIndex:
    def test_put_with_base_key_registers_and_counts_candidates(self):
        base = make_levenshtein(24)
        result = FRAMEWORK.solve(base, executor="cpu")
        cache = ResultCache(capacity=4)
        cache.put("exact", result, base_key="near", payload=base.payload)
        assert cache.has_base("near")
        snapshot, frozen = cache.get_base("near")
        assert snapshot is base.payload
        assert not frozen.table.flags.writeable
        cache.note_delta_hit()
        stats = cache.stats()
        assert stats["base_entries"] == 1
        assert stats["delta_candidates"] == 1
        assert stats["delta_hits"] == 1

    def test_base_index_is_lru_bounded(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        cache = ResultCache(capacity=2)
        for i in range(4):
            cache.put(f"k{i}", result, base_key=f"b{i}", payload={})
        assert not cache.has_base("b0")
        assert cache.has_base("b3")

    def test_service_serves_near_duplicates_by_patching(self):
        metrics = get_metrics()
        before = metrics.counter("serve.cache.delta_hit").value
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [47])
        fresh = FRAMEWORK.solve(edited, executor="cpu").table
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with SolveService(hetero_high(), config=cfg) as svc:
            svc.submit(SolveRequest(base)).result()
            served = svc.submit(SolveRequest(edited)).result()
            stats = svc.cache.stats()
        assert served.stats["solver"] == "delta"
        assert np.array_equal(served.table, fresh)
        assert metrics.counter("serve.cache.delta_hit").value == before + 1
        assert stats["delta_candidates"] >= 1
        assert stats["delta_hits"] >= 1

    def test_delta_off_by_default(self):
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [47])
        with SolveService(hetero_high(),
                          config=ServiceConfig(workers=1)) as svc:
            svc.submit(SolveRequest(base)).result()
            served = svc.submit(SolveRequest(edited)).result()
        assert served.stats.get("solver") != "delta"


# -- lineages: one base per edited document ----------------------------------


def _edit_tail(problem: LDDPProblem, rng) -> LDDPProblem:
    """``problem`` with one symbol near the end of ``a`` changed."""
    n = problem.payload["a"].shape[0]
    return _edit_entry(problem, "a", [n - 1 - int(rng.integers(3))])


def _oracle(problem: LDDPProblem) -> np.ndarray:
    return FRAMEWORK.solve(problem, executor="sequential").table


class TestLineages:
    def test_alternating_documents_patch_against_their_own_base(self):
        rng = np.random.default_rng(0)
        docs = [make_levenshtein(48, seed=0), make_levenshtein(48, seed=1)]
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with SolveService(hetero_high(), config=cfg) as svc:
            for doc in docs:  # warm-up: each original becomes a base
                svc.submit(SolveRequest(doc)).result()
            for k in range(20):  # a 20-version chain, 10 per document
                docs[k % 2] = _edit_tail(docs[k % 2], rng)
                served = svc.submit(SolveRequest(docs[k % 2])).result()
                assert served.stats["solver"] == "delta"
                assert np.array_equal(served.table, _oracle(docs[k % 2]))
            stats = svc.cache.stats()
        assert stats["base_entries"] == len(docs)
        assert stats["delta_hits"] == 20

    def test_nearest_base_is_the_minimum_diff_one(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        far = {"a": np.arange(8) + 5}
        near = {"a": np.arange(8) + (np.arange(8) == 7)}
        cache = ResultCache(capacity=8)
        cache.put("k-near", result, base_key="key", payload=near)
        cache.put("k-far", result, base_key="key", payload=far)
        target = {"a": np.arange(8) + 2 * (np.arange(8) == 7)}
        assert cache.get_base("key", target)[0] is near
        assert cache.get_base("key")[0] is near  # now the most recent
        assert cache.get_base("key", {"a": far["a"] * (np.arange(8) > 0)})[0] is far

    def test_supersedes_replaces_the_patched_base(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        v0, v1, other = {"a": np.zeros(4)}, {"a": np.ones(4)}, {"a": None}
        cache = ResultCache(capacity=8)
        cache.put("v0", result, base_key="key", payload=v0)
        cache.put("o", result, base_key="key", payload=other)
        cache.put("v1", result, base_key="key", payload=v1, supersedes=v0)
        assert cache.stats()["base_entries"] == 2
        assert cache.get_base("key", v0)[0] is v1

    def test_per_key_cap_evicts_the_oldest_lineage(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        payloads = [{"a": np.full(4, i)} for i in range(BASES_PER_KEY + 1)]
        cache = ResultCache(capacity=64)
        for i, payload in enumerate(payloads):
            cache.put(f"k{i}", result, base_key="key", payload=payload)
        assert cache.stats()["base_entries"] == BASES_PER_KEY
        assert cache.get_base("key", payloads[0])[0] is not payloads[0]

    def test_total_capacity_lru_evicts_the_oldest_lineage(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        a0, a1, b = ({"a": np.full(4, i)} for i in range(3))
        cache = ResultCache(capacity=2)
        cache.put("a0", result, base_key="A", payload=a0)
        cache.put("a1", result, base_key="A", payload=a1)
        cache.get_base("A", a0)  # a0 is now more recent than a1
        cache.put("b", result, base_key="B", payload=b)
        assert cache.stats()["base_entries"] == 2
        assert cache.get_base("A", a1)[0] is a0
        assert cache.has_base("B")


    def test_concurrent_puts_keep_the_index_consistent(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        cache = ResultCache(capacity=6)
        errors = []

        def edit_chain(w):
            try:
                for i in range(200):
                    payload = {"a": np.full(4, 1000 * w + i)}
                    key = f"key{w % 3}"
                    base = cache.get_base(key, payload)
                    cache.put(f"{w}-{i}", result, base_key=key,
                              payload=payload,
                              supersedes=None if base is None else base[0])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=edit_chain, args=(w,))
                   for w in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        tokens = [t for ts in cache._lineages.values() for t in ts]
        assert sorted(tokens) == sorted(cache._bases)
        assert cache.stats()["base_entries"] == len(tokens) <= 6
        assert all(len(ts) <= BASES_PER_KEY
                   for ts in cache._lineages.values())


# -- coalesced edits: delta before the batch sweep ----------------------------


def _coalesced_edits(monkeypatch, *, fault=None, fail_batch=False):
    """Two queued edits of two same-shape documents, drained as one batch.

    A leader settled by its own prelude never drains, so the edits queue
    behind an uncacheable same-shape head that survives its claim (no cache
    key, so no delta probe) and drains them: the set is head plus edits.
    Returns the two delivered results, their edited problems, the batch
    sizes the coalescer saw and how many patches degraded. ``fault`` is
    injected after the warm-up; with ``fail_batch`` the batched run fails
    for every member, forcing the per-request fallback.
    """
    docs = [make_levenshtein(48, seed=0), make_levenshtein(48, seed=1)]
    edits = [_edit_entry(d, "a", [47]) for d in docs]
    head = make_levenshtein(48, seed=2)
    blocker = make_checkerboard(64)
    sizes = []
    cfg = ServiceConfig(workers=1, coalesce_window=0.05,
                        options=ExecOptions(delta=True))
    with SolveService(hetero_high(), config=cfg) as svc:
        for doc in docs:
            svc.submit(SolveRequest(doc)).result()
        process_batch = svc._process_batch

        def spy(members, **kwargs):
            sizes.append(len(members))
            process_batch(members, **kwargs)

        monkeypatch.setattr(svc, "_process_batch", spy)
        if fail_batch:
            monkeypatch.setattr(
                svc._backend, "execute_batch",
                lambda items, affinity=None: [RuntimeError("batch")] * len(items),
            )
        degraded = get_metrics().counter("serve.cache.delta_degraded")
        before = degraded.value
        with inject_faults(*([fault] if fault else [])):
            # Occupy the single worker so both edits queue together.
            hold = svc.submit(SolveRequest(blocker, cacheable=False))
            lead = svc.submit(SolveRequest(head, cacheable=False))
            pending = [svc.submit(SolveRequest(e)) for e in edits]
            hold.result()
            assert np.array_equal(lead.result().table, _oracle(head))
            results = [p.result() for p in pending]
    return results, edits, sizes, degraded.value - before


class TestCoalescedDelta:
    def test_coalesced_pair_is_served_by_two_patches_and_no_sweep(
        self, monkeypatch
    ):
        metrics = get_metrics()
        instances = metrics.counter("batch.instances").value
        results, edits, sizes, _ = _coalesced_edits(monkeypatch)
        assert 3 in sizes  # head + both edits
        assert [r.stats["solver"] for r in results] == ["delta", "delta"]
        assert metrics.counter("batch.instances").value == instances
        for result, edit in zip(results, edits):
            assert np.array_equal(result.table, _oracle(edit))

    def test_patch_fault_in_a_batch_is_counted_once(self, monkeypatch):
        results, edits, sizes, degraded_count = _coalesced_edits(
            monkeypatch, fault="delta.patch:nth=1")
        assert 3 in sizes  # head + both edits
        assert degraded_count == 1
        degraded = [r for r in results if r.stats.get("solver") != "delta"]
        assert len(degraded) == 1
        [step] = degraded[0].stats["route"]
        assert step["tier"] == "delta"
        assert "InjectedFault" in step["reason"]
        for result, edit in zip(results, edits):
            assert np.array_equal(result.table, _oracle(edit))

    def test_failed_batch_fallback_does_not_probe_again(self, monkeypatch):
        results, edits, sizes, degraded_count = _coalesced_edits(
            monkeypatch, fault="delta.patch:rate=1", fail_batch=True)
        assert 3 in sizes  # head + both edits
        assert degraded_count == 2
        for result, edit in zip(results, edits):
            assert result.stats["degraded"] == "full-solve"
            [step] = result.stats["route"]
            assert step["tier"] == "delta"
            assert "InjectedFault" in step["reason"]
            assert np.array_equal(result.table, _oracle(edit))


# -- delta needs the thread backend -------------------------------------------


class TestProcessBackendRejected:
    def test_config_rejects_delta_on_process_backend(self):
        with pytest.raises(ValueError, match="thread backend"):
            ServiceConfig(backend="process", options=ExecOptions(delta=True))
        ServiceConfig(backend="process", options=ExecOptions())

    def test_serve_cli_exits_with_the_message(self, capsys):
        argv = ["serve", "--requests", "1", "--size", "24", "--delta",
                "--backend", "process"]
        assert cli_main(argv) == 2
        assert "thread backend" in capsys.readouterr().err


# -- pricing ------------------------------------------------------------------


class TestPricing:
    def test_makespan_scales_with_cone_fraction(self):
        p = make_levenshtein(128)
        small = delta_makespan(p, hetero_high(), cone_fraction=0.05)
        large = delta_makespan(p, hetero_high(), cone_fraction=0.8)
        assert small < large

    def test_locality_declaration_prices_a_cheaper_probe(self):
        p = make_levenshtein(128)
        undeclared = replace(p, payload_locality=None)
        assert delta_makespan(p, hetero_high()) < delta_makespan(
            undeclared, hetero_high())

    @pytest.mark.parametrize("fraction", [0.01, 0.25, 1.0])
    @pytest.mark.parametrize("problem", [
        make_levenshtein(96),
        replace(make_levenshtein(96), payload_locality=None),
        make_checkerboard(64),
    ], ids=["declared", "undeclared", "checkerboard"])
    def test_price_equals_timeline(self, problem, fraction):
        """The admission price is the makespan of the patch's timeline for
        the cone, wave count and probe admission assumes."""
        cells = problem.total_computed_cells
        cone = int(fraction * cells)
        waves = round(fraction * strategy_for(problem).schedule.num_iterations)
        probe = cone if problem.payload_locality else cells
        timeline = delta_timeline(problem, hetero_high(), cone, waves,
                                  probed_cells=probe)
        assert delta_makespan(
            problem, hetero_high(), cone_fraction=fraction
        ) == timeline.makespan


# -- the global probe stays sound ---------------------------------------------


class TestGlobalProbe:
    def test_probe_marks_exactly_the_changed_cells(self):
        base = make_checkerboard(16)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        payload = dict(base.payload)
        cost = payload["cost"].copy()
        cost[8, 3] -= 100.0  # guaranteed new minimum at exactly one cell
        payload["cost"] = cost
        edited = replace(base, payload=payload)
        mask = probe_seeds(edited, base_result.table.copy())
        si, sj = np.nonzero(mask)
        assert (si.tolist(), sj.tolist()) == ([7], [3])  # local coords (fr=1)
