"""Compiled kernel plans: slice-based fast paths for the functional core.

Every functional solve funnels through ``evaluate_span``
(:mod:`repro.exec.base`). The generic path pays, per wavefront: two index
array allocations, one masked fancy-index gather per contributing neighbour,
and a fancy-index scatter. None of that depends on the table *values* — only
on geometry — so a :class:`KernelPlan` computes it once per
(schedule, contributing set, table shape, origin, dtype, oob) and reuses it
for every wavefront of every solve that shares the key.

Per wavefront ``t`` the plan derives a :class:`_SpanSpec` numerically from
``schedule.cells(t)`` and tiers it into one of three modes:

``slice``
    The wavefront's cells form an arithmetic sequence in row-major flat
    offsets (true for horizontal, vertical, anti-diagonal and knight-move
    wavefronts on a C-contiguous table: steps ``1``, ``C``, ``C-1`` and
    ``-(C-2)``). Every neighbour read and the write then become *basic*
    strided views of ``table.reshape(-1)`` — no index arrays, no gather, no
    scatter, no allocation. When the compile-time masks prove every lane
    in bounds, the views are handed to the cell function directly. When
    head/tail boundary lanes exist (no fixed boundary on that side), each
    neighbour is staged in a contiguous scratch buffer instead: interior
    lanes by one strided copy, out-of-bounds lanes by constant fill, and
    in-bounds boundary lanes by a tiny precompiled gather — the wavefront
    still takes a *single* cell-function call either way.

``index``
    Non-arithmetic wavefronts (the L-shaped rings) fall back to *cached*
    global index arrays plus per-neighbour in-bounds masks and compressed
    gather indices, with out-of-bounds fills written into a reusable
    per-thread scratch arena — steady-state wavefronts allocate only the
    gather outputs.

``generic``
    Degenerate geometry (empty interior): delegate to the generic path.

Correctness guards: a plan refuses to run on a table whose shape, dtype or
C-contiguity does not match its key (``reshape(-1)`` would copy, silently
dropping writes) and falls back to the generic path instead. Cell functions
are elementwise-pure by contract, so splitting a wavefront into
boundary/interior sub-batches cannot change any value — tables stay
bit-for-bit identical to the sequential oracle (asserted by hypothesis
property tests across all six patterns).

The two executors that store wavefronts contiguously (the streaming solver
and ``cpu-wavefront-major``, both through
:func:`repro.exec.streaming.sweep`) never touch a 2-D table. For them
:func:`read_geometry` splits each neighbour's reads into fixed-boundary
lanes (offsets into one packed boundary vector) and earlier-wavefront lanes
(canonical positions), and :meth:`KernelPlan.read_geometry` memoises that
split per wavefront.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.cellfunc import EvalContext, gather_neighbors
from ..core.schedule import WavefrontSchedule
from ..faults import check_fault
from ..types import ContributingSet
from .key import PlanKey

__all__ = ["KernelPlan", "evaluate_cells", "generic_span", "read_geometry"]


def generic_span(problem, schedule, table, aux, t, lo, hi, orow, ocol) -> int:
    """The generic masked path over span ``[lo, hi)`` of wavefront ``t``.

    ``orow``/``ocol`` give the global table offset of the schedule's region
    (the fixed boundary, plus a block origin for tiled executors).
    """
    ci, cj = schedule.cells(t)
    return evaluate_cells(problem, table, aux, ci[lo:hi] + orow, cj[lo:hi] + ocol)


def evaluate_cells(problem, table, aux, gi, gj) -> int:
    """Gather -> cell function -> scatter for the global cells ``(gi, gj)``."""
    nb = gather_neighbors(table, problem.contributing, gi, gj, problem.oob_value)
    ctx = EvalContext(
        i=gi, j=gj, w=nb["w"], nw=nb["nw"], n=nb["n"], ne=nb["ne"],
        payload=problem.payload, aux=aux,
    )
    values = problem.cell(ctx)
    table[gi, gj] = values
    return gi.shape[0]


def _flat_slice(start: int, step: int, n: int) -> slice:
    """Basic slice selecting ``start + step * arange(n)`` from a flat array."""
    if step > 0:
        return slice(start, start + step * n, step)
    stop = start + step * n
    return slice(start, stop if stop >= 0 else None, step)


class _SpanSpec:
    """Everything precomputed for one wavefront of one plan."""

    __slots__ = (
        "mode", "width", "pre", "suf", "step",
        "w0", "wslice", "nbr", "iview", "jview",
        "gi", "gj", "nbr_index",
    )


class _NbReads:
    """One neighbour's reads of one wavefront (see :func:`read_geometry`)."""

    __slots__ = ("nb", "name", "fixed", "fixed_off", "win", "win_pos")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def read_geometry(schedule, members, table_shape, origin, gi, gj):
    """Split every neighbour read of the global cells ``(gi, gj)`` by source.

    ``origin`` is the fixed boundary ``(fixed_rows, fixed_cols)`` and
    ``schedule`` covers the computed region behind it. Per neighbour in
    ``members`` the result holds two lane masks over the wavefront:

    * ``fixed`` lanes read the packed boundary vector at ``fixed_off`` —
      the fixed top rows row-major, then the fixed left columns of the
      rows below them, also row-major;
    * ``win`` lanes read an earlier wavefront at the source cell's
      canonical position ``win_pos`` within it.

    Every other lane is out of the table and reads the oob value. Returns a
    tuple of ``_NbReads``, one per neighbour.
    """
    R, C = table_shape
    fr, fc = origin
    out = []
    for nb in members:
        di, dj = nb.offset
        ni = gi + di
        nj = gj + dj
        oob = (ni < 0) | (ni >= R) | (nj < 0) | (nj >= C)
        fixed = ~oob & ((ni < fr) | (nj < fc))
        win = ~oob & ~fixed
        fi, fj = ni[fixed], nj[fixed]
        g = _NbReads()
        g.nb = nb
        g.name = nb.value.lower()
        g.fixed = _frozen(fixed)
        g.fixed_off = _frozen(np.where(
            fi < fr, fi * C + fj, fr * C + (fi - fr) * fc + fj
        ).astype(np.int64, copy=False))
        g.win = _frozen(win)
        g.win_pos = _frozen(np.asarray(schedule.position_of(
            ni[win] - fr, nj[win] - fc
        ), dtype=np.int64))
        out.append(g)
    return tuple(out)


class KernelPlan:
    """Precomputed index structure for one plan key (see :class:`PlanKey`).

    Plans are built lazily per wavefront and shared across problems and
    threads; the only mutable per-call state is the scratch arena, which is
    thread-local.
    """

    def __init__(
        self,
        key: PlanKey,
        schedule: WavefrontSchedule,
        contributing: ContributingSet,
        table_shape: tuple[int, int],
        origin: tuple[int, int],
        dtype: np.dtype,
        oob_value,
    ) -> None:
        self.key = key
        self.schedule = schedule
        self.contributing = contributing
        self.members = contributing.members()
        self.table_shape = tuple(int(x) for x in table_shape)
        self.orow, self.ocol = int(origin[0]), int(origin[1])
        self.dtype = np.dtype(dtype)
        self.oob_value = oob_value
        self._specs: dict[int, _SpanSpec] = {}
        self._cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._reads: dict[int, tuple[_NbReads, ...]] = {}
        self._compile_lock = threading.Lock()
        self._tls = threading.local()

    # -- identity ----------------------------------------------------------

    def signature(self) -> str:
        """Stable SHA-256 content signature of the plan key."""
        return self.key.signature()

    def span_modes(self) -> dict[str, int]:
        """Histogram of compiled span modes (slice/index/generic) so far."""
        out = {"slice": 0, "index": 0, "generic": 0}
        for spec in list(self._specs.values()):
            out[spec.mode] += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelPlan({self.key.pattern}, region={self.key.region}, "
            f"origin={self.key.origin}, dtype={self.key.dtype}, "
            f"spans={len(self._specs)})"
        )

    # -- compilation -------------------------------------------------------

    def _global_cells(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        got = self._cells.get(t)
        if got is None:
            li, lj = self.schedule.cells(t)
            got = (_frozen(li + self.orow), _frozen(lj + self.ocol))
            self._cells[t] = got
        return got

    def _spec(self, t: int) -> _SpanSpec:
        spec = self._specs.get(t)
        if spec is None:
            with self._compile_lock:
                spec = self._specs.get(t)
                if spec is None:
                    spec = self._compile_span(t)
                    self._specs[t] = spec
        return spec

    def _compile_span(self, t: int) -> _SpanSpec:
        R, C = self.table_shape
        gi, gj = self._global_cells(t)
        w = int(gi.shape[0])
        spec = _SpanSpec()
        spec.width = w
        if w == 0:
            spec.mode = "generic"
            return spec

        ok = np.ones(w, dtype=bool)
        nbs = []
        for nb in self.members:
            di, dj = nb.offset
            ni = gi + di
            nj = gj + dj
            m = (ni >= 0) & (ni < R) & (nj >= 0) & (nj < C)
            nbs.append((nb, ni, nj, m))
            ok &= m

        # Arithmetic test: cells form constant-stride runs in i, j and in
        # row-major flat offset. True for all but the two L-ring patterns.
        off = gi * C + gj
        if w == 1:
            step, istep, jstep, arith = 1, 0, 0, True
        else:
            doff = np.diff(off)
            step = int(doff[0])
            arith = step != 0 and bool((doff == step).all())
            dgi = np.diff(gi)
            istep = int(dgi[0])
            arith = arith and bool((dgi == istep).all())
            dgj = np.diff(gj)
            jstep = int(dgj[0])
            arith = arith and bool((dgj == jstep).all())
            arith = arith and abs(istep) <= 2 and abs(jstep) <= 2

        if arith:
            if bool(ok.all()):
                pre = suf = 0
            else:
                inb = np.flatnonzero(ok)
                if inb.size == 0:
                    spec.mode = "generic"
                    return spec
                pre = int(inb[0])
                suf = w - 1 - int(inb[-1])
                if not bool(ok[pre: w - suf].all()):
                    # out-of-bounds lanes interleaved with interior ones:
                    # no clean interior run (cannot happen for the shipped
                    # schedules, but the plan proves it rather than assume)
                    spec.mode = "generic"
                    return spec
            nint = w - pre - suf
            spec.mode = "slice"
            spec.pre = pre
            spec.suf = suf
            spec.step = step
            w0 = int(off[0])
            spec.w0 = w0
            spec.wslice = _flat_slice(w0, step, w)
            # ctx.i / ctx.j reuse the cached contiguous global index arrays
            # (frozen in _global_cells) — contiguous int64 keeps payload
            # gathers and index arithmetic in cell functions on the fast
            # ufunc paths, at no extra memory over the compile-time cache.
            spec.iview, spec.jview = gi, gj
            lanes = (
                np.concatenate([np.arange(pre), np.arange(w - suf, w)])
                if pre or suf else None
            )
            nbr = []
            for nb, ni, nj, m in nbs:
                dflat = nb.offset[0] * C + nb.offset[1]
                isl = _flat_slice(w0 + pre * step + dflat, step, nint)
                if lanes is None:
                    nbr.append((nb.value.lower(), dflat, isl,
                                None, None, None, None))
                else:
                    mb = m[lanes]
                    bpos = lanes[mb]
                    nbr.append((
                        nb.value.lower(), dflat, isl,
                        _frozen(lanes[~mb]), _frozen(bpos),
                        _frozen(ni[bpos]), _frozen(nj[bpos]),
                    ))
            spec.nbr = tuple(nbr)
            return spec

        # Non-arithmetic (L-rings): cache index arrays + masks instead.
        spec.mode = "index"
        spec.gi, spec.gj = gi, gj
        nbr = []
        for nb, ni, nj, m in nbs:
            name = nb.value.lower()
            if bool(m.all()):
                nbr.append((name, _frozen(ni), _frozen(nj), None, None, None))
            else:
                nbr.append((
                    name, _frozen(ni), _frozen(nj), _frozen(m),
                    _frozen(ni[m]), _frozen(nj[m]),
                ))
        spec.nbr_index = tuple(nbr)
        return spec

    # -- execution ---------------------------------------------------------

    def execute(self, problem, table, aux, t, lo, hi) -> tuple[int, bool]:
        """Compute span ``[lo, hi)`` of wavefront ``t``.

        Returns ``(cells_written, used_fast_path)``. Falls back to the
        generic path (``used_fast_path=False``) whenever the table does not
        match the plan's key or the wavefront has no usable structure.

        ``kernels.span`` is a fault-injection site: an injected failure here
        is caught by ``evaluate_span``'s dispatcher, which degrades the span
        to the generic path (``kernels.plan.degraded``).
        """
        check_fault("kernels.span")
        flags = table.flags
        if (
            table.shape != self.table_shape
            or table.dtype != self.dtype
            or not flags.c_contiguous
            or not flags.writeable
        ):
            return (
                generic_span(problem, self.schedule, table, aux, t, lo, hi,
                             self.orow, self.ocol),
                False,
            )
        spec = self._spec(t)
        if spec.mode == "generic":
            return (
                generic_span(problem, self.schedule, table, aux, t, lo, hi,
                             self.orow, self.ocol),
                False,
            )
        if spec.mode == "index":
            return self._execute_index(spec, problem, table, aux, lo, hi), True
        return self._execute_slice(spec, problem, table, aux, t, lo, hi), True

    def execute_batch(self, problem, stack, t) -> int:
        """One cell call computing wavefront ``t`` across a ``(B, R, C)`` stack.

        The batch generalisation of :meth:`execute`: neighbour reads become
        ``(B, width)`` views/buffers over ``stack.reshape(B, -1)``, ``ctx.i``
        / ``ctx.j`` broadcast across the batch axis, and one cell-function
        call fills the wavefront of every layer at once. Only valid when all
        layers hold *identical payload bytes* and the problem has no aux
        arrays (the caller — :mod:`repro.batch` — proves both).

        Raises (rather than silently degrading) when the stack does not
        match the plan's key or the wavefront has no batched structure; the
        batch executor then falls back to its per-instance sweep, which is
        value-identical because cell functions are elementwise-pure.
        Returns the total number of cells written (``B * width``).
        """
        check_fault("kernels.span")
        flags = stack.flags
        if (
            stack.ndim != 3
            or stack.shape[1:] != self.table_shape
            or stack.dtype != self.dtype
            or not flags.c_contiguous
            or not flags.writeable
        ):
            raise ValueError(
                f"stack {stack.shape}/{stack.dtype} does not match plan "
                f"{self.table_shape}/{self.dtype} (or is not a writeable "
                "C-contiguous array)"
            )
        spec = self._spec(t)
        if spec.width == 0:
            return 0
        if spec.mode == "generic":
            raise ValueError(f"wavefront {t} has no batched structure")
        B = int(stack.shape[0])
        if spec.mode == "index":
            return self._execute_index_batch(spec, problem, stack, B)
        return self._execute_slice_batch(spec, problem, stack, B)

    def _batch_buf(self, name: str, B: int, w: int) -> np.ndarray:
        arena = self._arena()
        key = f"batch:{name}"
        buf = arena.get(key)
        if buf is None or buf.shape[0] != B or buf.shape[1] < w:
            buf = np.empty((B, self.schedule.max_width), dtype=self.dtype)
            arena[key] = buf
        return buf[:, :w]

    def _execute_slice_batch(self, spec, problem, stack, B) -> int:
        w = spec.width
        flat2 = stack.reshape(B, -1)
        kwargs = {"w": None, "nw": None, "n": None, "ne": None}
        if spec.pre == 0 and spec.suf == 0:
            for name, _, isl, _, _, _, _ in spec.nbr:
                kwargs[name] = flat2[:, isl]
        else:
            ihi = w - spec.suf
            for name, _, isl, opos, bpos, ni_c, nj_c in spec.nbr:
                vals = self._batch_buf(name, B, w)
                if ihi > spec.pre:
                    np.copyto(vals[:, spec.pre:ihi], flat2[:, isl])
                if opos.size:
                    vals[:, opos] = self.oob_value
                if bpos.size:
                    vals[:, bpos] = stack[:, ni_c, nj_c]
                kwargs[name] = vals
        ctx = EvalContext(
            i=np.broadcast_to(spec.iview, (B, w)),
            j=np.broadcast_to(spec.jview, (B, w)),
            payload=problem.payload, aux={}, **kwargs,
        )
        flat2[:, spec.wslice] = problem.cell(ctx)
        return B * w

    def _execute_index_batch(self, spec, problem, stack, B) -> int:
        w = spec.width
        kwargs = {"w": None, "nw": None, "n": None, "ne": None}
        for name, ni, nj, mask, ni_c, nj_c in spec.nbr_index:
            if mask is None:
                kwargs[name] = stack[:, ni, nj]
                continue
            vals = self._batch_buf(name, B, w)
            vals[...] = self.oob_value
            vals[:, mask] = stack[:, ni_c, nj_c]
            kwargs[name] = vals
        ctx = EvalContext(
            i=np.broadcast_to(spec.gi, (B, w)),
            j=np.broadcast_to(spec.gj, (B, w)),
            payload=problem.payload, aux={}, **kwargs,
        )
        stack[:, spec.gi, spec.gj] = problem.cell(ctx)
        return B * w

    def _execute_slice(self, spec, problem, table, aux, t, lo, hi) -> int:
        w = spec.width
        flat = table.reshape(-1)
        if lo == 0 and hi == w:
            kwargs = {"w": None, "nw": None, "n": None, "ne": None}
            if spec.pre == 0 and spec.suf == 0:
                # neighbour views alias the live table; cell functions are
                # read-only over ctx inputs by contract (see cellfunc.py)
                for name, _, isl, _, _, _, _ in spec.nbr:
                    kwargs[name] = flat[isl]
            else:
                # boundary lanes exist: stage each neighbour in a contiguous
                # scratch buffer so the wavefront still takes one cell call
                arena = self._arena()
                ihi = w - spec.suf
                for name, _, isl, opos, bpos, ni_c, nj_c in spec.nbr:
                    buf = arena.get(name)
                    if buf is None or buf.shape[0] < w:
                        buf = np.empty(self.schedule.max_width,
                                       dtype=self.dtype)
                        arena[name] = buf
                    vals = buf[:w]
                    if ihi > spec.pre:
                        np.copyto(vals[spec.pre:ihi], flat[isl])
                    if opos.size:
                        vals[opos] = self.oob_value
                    if bpos.size:
                        vals[bpos] = table[ni_c, nj_c]
                    kwargs[name] = vals
            ctx = EvalContext(i=spec.iview, j=spec.jview,
                              payload=problem.payload, aux=aux, **kwargs)
            flat[spec.wslice] = problem.cell(ctx)
            return w
        # Sub-span (hetero split / per-cell oracle): boundary lanes through
        # the generic path, the interior overlap through re-derived views.
        done = 0
        ilo = spec.pre
        ihi = w - spec.suf
        if lo < min(hi, ilo):
            done += generic_span(problem, self.schedule, table, aux, t,
                                 lo, min(hi, ilo), self.orow, self.ocol)
        mlo = max(lo, ilo)
        mhi = min(hi, ihi)
        if mlo < mhi:
            n = mhi - mlo
            start = spec.w0 + mlo * spec.step
            wsl = _flat_slice(start, spec.step, n)
            kwargs = {"w": None, "nw": None, "n": None, "ne": None}
            for name, dflat, _, _, _, _, _ in spec.nbr:
                view = flat[_flat_slice(start + dflat, spec.step, n)]
                view.flags.writeable = False
                kwargs[name] = view
            iview = spec.iview[mlo:mhi]
            jview = spec.jview[mlo:mhi]
            ctx = EvalContext(i=iview, j=jview, payload=problem.payload,
                              aux=aux, **kwargs)
            flat[wsl] = problem.cell(ctx)
            done += n
        if max(lo, ihi) < hi:
            done += generic_span(problem, self.schedule, table, aux, t,
                                 max(lo, ihi), hi, self.orow, self.ocol)
        return done

    def _arena(self) -> dict:
        bufs = getattr(self._tls, "bufs", None)
        if bufs is None:
            bufs = self._tls.bufs = {}
        return bufs

    def _execute_index(self, spec, problem, table, aux, lo, hi) -> int:
        full = lo == 0 and hi == spec.width
        gi = spec.gi if full else spec.gi[lo:hi]
        gj = spec.gj if full else spec.gj[lo:hi]
        n = hi - lo
        kwargs = {"w": None, "nw": None, "n": None, "ne": None}
        arena = None
        for name, ni, nj, mask, ni_c, nj_c in spec.nbr_index:
            if mask is None:
                kwargs[name] = table[ni[lo:hi], nj[lo:hi]]
                continue
            if arena is None:
                arena = self._arena()
            buf = arena.get(name)
            if buf is None or buf.shape[0] < spec.width:
                buf = np.empty(self.schedule.max_width, dtype=self.dtype)
                arena[name] = buf
            vals = buf[:n]
            vals[...] = self.oob_value
            if full:
                vals[mask] = table[ni_c, nj_c]
            else:
                m = mask[lo:hi]
                vals[m] = table[ni[lo:hi][m], nj[lo:hi][m]]
            kwargs[name] = vals
        ctx = EvalContext(i=gi, j=gj, payload=problem.payload, aux=aux,
                          **kwargs)
        table[gi, gj] = problem.cell(ctx)
        return n

    # -- cached read geometry for the wavefront-major sweep ----------------

    def read_geometry(self, t: int):
        """``(gi, gj, reads)`` of wavefront ``t``, memoised per wavefront.

        ``reads`` is :func:`read_geometry` of the wavefront's global cells.
        Only meaningful for plans whose origin is the fixed boundary itself.
        """
        geo = self._reads.get(t)
        if geo is None:
            with self._compile_lock:
                geo = self._reads.get(t)
                if geo is None:
                    gi, gj = self._global_cells(t)
                    geo = read_geometry(
                        self.schedule, self.members, self.table_shape,
                        (self.orow, self.ocol), gi, gj,
                    )
                    self._reads[t] = geo
        gi, gj = self._global_cells(t)
        return gi, gj, geo
