"""Batch planning: which solve requests may share one stacked execution.

The paper's wavefront patterns (Table I) are *data-independent*: every
instance with the same contributing set and computed-region shape follows an
identical schedule, wavefront for wavefront. A fleet of small requests — the
serving workload — can therefore be stacked into one 3-D batch and swept
together, amortizing schedule construction, kernel-plan compilation, timing
simulation and per-wavefront dispatch across the whole stack.

Two instances are *batch-compatible* when nothing that shapes the sweep
differs: geometry (table shape, fixed boundary, contributing set), dtype,
out-of-bounds fill, aux specs, work factors, payload byte volume, the cell
and init function *code* (hashed with :mod:`repro.signature`, the same
machinery behind the serve cache), the executor name, the effective
:class:`~repro.exec.base.ExecOptions` and params, and solve-vs-estimate
mode. Payload *content* is deliberately absent: a batch of edit-distance
requests over 64 different string pairs shares one :func:`batch_key`.

:class:`BatchPlanner` groups items by that key and shards oversized or
incompatible groups: a group never exceeds ``max_batch`` instances, an item
whose key cannot be computed becomes a singleton group, and input order is
preserved within each group (results are re-scattered by ``item.index``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..exec.base import ExecOptions
from ..signature import hash_callable, hash_value, update_hash

__all__ = ["BatchItem", "BatchGroup", "BatchPlanner", "batch_key",
           "payload_fingerprint"]


def batch_key(
    problem: LDDPProblem,
    *,
    executor: str = "hetero",
    options: ExecOptions | None = None,
    params: HeteroParams | None = None,
    functional: bool = True,
) -> str | None:
    """SHA-256 compatibility key for stacking, or ``None`` when unkeyable.

    Everything that shapes the sweep or the shared timing model goes in;
    the problem *name* and the payload *bytes* stay out (instances in one
    batch differ exactly there). ``options`` should be the *effective*
    options for the run; its ``repr`` excludes the run-scoped
    ``deadline``/``cancel_token`` fields, so per-request deadlines never
    split a batch.
    """
    h = hashlib.sha256()
    update_hash(h, "batch-key")
    update_hash(h, "shape", repr(problem.shape).encode())
    update_hash(h, "fixed",
                f"{problem.fixed_rows}|{problem.fixed_cols}".encode())
    update_hash(h, "contributing", repr(problem.contributing).encode())
    update_hash(h, "dtype", str(problem.dtype).encode())
    update_hash(h, "oob", repr(problem.oob_value).encode())
    update_hash(h, "linear", repr(problem.linear).encode())
    update_hash(h, "work",
                f"{problem.cpu_work!r}|{problem.gpu_work!r}".encode())
    update_hash(h, "aux", repr(sorted(
        (k, str(np.dtype(v))) for k, v in problem.aux_specs.items()
    )).encode())
    update_hash(h, "payload-bytes", repr(problem.payload_nbytes()).encode())
    update_hash(h, "executor", executor.encode())
    update_hash(h, "options", repr(options or ExecOptions()).encode())
    update_hash(h, "params", repr(params).encode())
    update_hash(h, "functional", repr(functional).encode())
    try:
        hash_callable(h, problem.cell, "cell")
        if problem.init is not None:
            update_hash(h, "has-init")
            hash_callable(h, problem.init, "init")
    except Exception:
        # A cell/init whose identity cannot be content-keyed cannot prove
        # compatibility with anything — solve it per-instance.
        return None
    return h.hexdigest()


def payload_fingerprint(problem: LDDPProblem) -> str | None:
    """Content hash of the payload bytes, or ``None`` when unhashable.

    Used to pick the *stacked* execution tier: when every instance of a
    group carries identical payload bytes (and no aux outputs), one cell
    call can sweep the whole stack at once. Distinct payloads fall back to
    the per-instance *swept* tier — still one shared plan and stack.
    """
    h = hashlib.sha256()
    try:
        hash_value(h, problem.payload, "payload")
    except Exception:
        return None
    return h.hexdigest()


@dataclass
class BatchItem:
    """One instance inside a planned batch.

    ``index`` is the position in the caller's original sequence, used to
    scatter per-item outcomes back into input order. Per-item control is
    the ``deadline`` and ``cancel_token`` of ``options`` (or of the
    framework's options): the batch sweep checks both at every wavefront,
    so one expired request never stalls or fails its batch-mates.
    """

    index: int
    problem: LDDPProblem
    executor: str = "hetero"
    options: ExecOptions | None = None
    params: HeteroParams | None = None
    functional: bool = True
    key: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.key is None:
            self.key = batch_key(
                self.problem, executor=self.executor, options=self.options,
                params=self.params, functional=self.functional,
            )


@dataclass
class BatchGroup:
    """A set of batch-compatible items that will execute as one stack."""

    key: str | None
    items: list[BatchItem]

    @property
    def size(self) -> int:
        return len(self.items)

    def stackable(self) -> bool:
        """Whether one cell call may sweep the whole stack per wavefront.

        True iff every instance carries identical payload bytes and there
        are no aux output arrays (whose ``ctx.aux`` contract is per-table).
        Groups that are not stackable still share the stack, the schedule,
        the kernel plan and the timing model — only the cell call loops
        over instances.
        """
        if self.size < 2 or self.items[0].problem.aux_specs:
            return False
        fps = {payload_fingerprint(it.problem) for it in self.items}
        return len(fps) == 1 and None not in fps


class BatchPlanner:
    """Groups compatible instances into stacked batches and shards the rest.

    Parameters
    ----------
    max_batch:
        Hard cap on instances per group; larger compatible runs are sharded
        into consecutive chunks (each chunk is one stacked execution, so the
        cap bounds peak stack memory at ``max_batch * table_nbytes``).
    """

    def __init__(self, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch

    def plan(self, items: list[BatchItem]) -> list[BatchGroup]:
        """Partition ``items`` into execution groups, input order preserved.

        Items with equal keys group together (in first-seen order); an item
        with ``key=None`` is a singleton. Groups larger than ``max_batch``
        are sharded into consecutive chunks.
        """
        grouped: dict[str, list[BatchItem]] = {}
        order: list[tuple[str | None, list[BatchItem]]] = []
        for item in items:
            if item.key is None:
                order.append((None, [item]))
                continue
            bucket = grouped.get(item.key)
            if bucket is None:
                bucket = grouped[item.key] = []
                order.append((item.key, bucket))
            bucket.append(item)
        groups: list[BatchGroup] = []
        for key, bucket in order:
            for lo in range(0, len(bucket), self.max_batch):
                groups.append(BatchGroup(key, bucket[lo:lo + self.max_batch]))
        return groups
