"""repro.delta — incremental delta-solving for near-duplicate traffic.

Millions-of-users traffic is dominated by instances that differ from a
cached one by a small payload edit (an appended sequence suffix, one edited
row of an image).  Under the paper's local-dependency property a change can
only influence its *forward dependency cone*: cell (i, j) feeds exactly the
cells that list it as a contributing neighbour, so the edit's influence
propagates along the negated contributing offsets and — for any
dependency-compatible wavefront schedule — strictly forward in iteration
order.

The tier upgrades the serve layer's exact-match result cache into a
similarity-reuse layer:

1. :func:`delta_key` indexes cached results by the *delta-stable* parts of
   the batch compatibility key (shape / contributing set / dtype / cell
   code / options — payload bytes excluded), so a near-duplicate request
   can find a base instance its exact content signature missed.
2. :func:`payload_diff` structurally diffs the incoming payload against the
   base's stored snapshot (early-out when identical, degrade when shapes
   moved).
3. The seed probe finds the cells the edit actually changes.  With a
   declared ``LDDPProblem.payload_locality`` the changed payload elements
   map straight to a candidate set (:func:`candidate_mask`) and only those
   cells are re-evaluated (:func:`probe_cells`), plus a seeded spot-check
   (:func:`verify_locality`) that degrades when the declaration lies — the
   scan tier's verified-declaration idiom.  Without a declaration,
   :func:`probe_seeds` re-evaluates the whole computed region in one
   vectorized cell-function pass: always sound, table-sweep cost.
4. :func:`forward_cone` pushes the seeds through the pattern's forward
   dependency vectors and returns the cone's cells sorted by (iteration,
   position) with wave boundaries (a :class:`Cone`) — closed-form for
   contributing sets with W, one boolean row sweep otherwise, then one
   lexsort — clipped by ``ExecOptions.delta_max_cone`` so the work stays
   proportional to the cone, not the table.
5. :func:`delta_patch` copies the base table into a flat buffer with an
   ``oob_value`` sentinel slot, computes every gather and scatter index of
   the cone once, and replays each wave as one gather -> cell -> scatter
   — the generic span's contract, so bit-identical to a fresh solve by
   induction over the wavefront order.

Any failure (structural mismatch, oversized cone, ``delta.patch`` fault)
raises :class:`repro.errors.DeltaUnsupported`; the serve layer catches it
and degrades to a full solve bit-identically, recording a stats reason.
See ``docs/delta-solving.md``.
"""

from .cone import (
    Cone,
    candidate_mask,
    forward_cone,
    forward_offsets,
    probe_cells,
    probe_seeds,
    verify_locality,
)
from .diff import payload_diff, payload_distance
from .key import delta_key
from .patch import delta_applicable, delta_patch
from .timing import delta_makespan, delta_timeline

__all__ = [
    "delta_key",
    "payload_diff",
    "payload_distance",
    "probe_cells",
    "probe_seeds",
    "candidate_mask",
    "verify_locality",
    "forward_offsets",
    "Cone",
    "forward_cone",
    "delta_applicable",
    "delta_patch",
    "delta_timeline",
    "delta_makespan",
]
