"""Structural payload diff between a delta base and an incoming request.

The diff drives the seed probe (:mod:`repro.delta.cone`): for payload
entries with a declared read locality (``LDDPProblem.payload_locality``)
the changed *element indices* map directly to the only table cells that
could move, so the probe touches a handful of cells instead of the whole
table.  Entries without a declaration fall back to the global probe, which
re-evaluates every computed cell and therefore catches any divergence the
diff could describe.  Beyond seeding, the diff contributes

* an **early out** — byte-identical payloads mean an empty cone, no probe
  needed (this happens when two requests differ only in problem *name*,
  which the content signature keys but the recurrence does not);
* a **degrade signal** — payloads whose *structure* moved (different entry
  names, an array that changed shape or dtype) are a different instance
  family; patching across them is legal but rarely a win, so we surface
  ``DeltaUnsupported`` and let the serve layer run the full solve;
* **stats** — how many entries/elements were edited, reported alongside the
  cone size so operators can see edit-size → cone-size amplification;
* a **distance** — :func:`payload_distance`, the edited-element count the
  serve cache ranks a near-match key's bases by, so each request patches
  against its own document's latest version.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from ..errors import DeltaUnsupported

__all__ = ["payload_diff", "payload_distance"]


def _entry_diff(a: Any, b: Any) -> tuple[int, np.ndarray | None]:
    """``(edited_elements, changed_flat_indices)`` for one entry pair.

    ``changed_flat_indices`` is a flat index array into the entry for
    ndarrays, or ``None`` for a non-array edit (no index structure).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            raise DeltaUnsupported("payload-structure: ndarray vs non-ndarray")
        if a.shape != b.shape:
            raise DeltaUnsupported(
                f"payload-structure: shape moved {a.shape} -> {b.shape}"
            )
        if a.dtype != b.dtype:
            raise DeltaUnsupported(
                f"payload-structure: dtype moved {a.dtype} -> {b.dtype}"
            )
        idx = np.nonzero(np.asarray(a != b).ravel())[0]
        if a.dtype.kind == "f" and idx.size:
            # NaN != NaN elementwise, but both storing NaN is not an edit;
            # filter at the changed positions only — no full-table isnan.
            av, bv = a.ravel()[idx], b.ravel()[idx]
            idx = idx[~(np.isnan(av) & np.isnan(bv))]
        return int(idx.size), idx
    try:
        same = bool(a == b)
    except Exception:
        same = False
    return (0, np.empty(0, dtype=np.int64)) if same else (1, None)


def payload_diff(
    base: Mapping[str, Any], new: Mapping[str, Any]
) -> dict[str, Any]:
    """Diff two payload mappings entry by entry.

    Returns ``{"edited_entries": n, "edited_elements": m, "changed": c}``
    where ``m`` counts ndarray elements (a non-array edit counts 1) and
    ``c`` maps each *edited* entry name to its flat changed-element index
    array — or ``None`` for a non-array edit, which has no element
    structure to localize.  Raises :class:`DeltaUnsupported` when the
    payloads are not structurally comparable — different entry names, or an
    array whose shape/dtype moved.
    """
    base_keys, new_keys = set(base), set(new)
    if base_keys != new_keys:
        raise DeltaUnsupported(
            "payload-structure: entry names moved "
            f"{sorted(base_keys ^ new_keys)!r}"
        )
    edited_entries = 0
    edited_elements = 0
    changed: dict[str, np.ndarray | None] = {}
    for name in sorted(new_keys):
        edits, idx = _entry_diff(base[name], new[name])
        if edits:
            edited_entries += 1
            edited_elements += edits
            changed[name] = idx
    return {
        "edited_entries": edited_entries,
        "edited_elements": edited_elements,
        "changed": changed,
    }


def payload_distance(base: Mapping[str, Any], new: Mapping[str, Any]) -> float:
    """How many payload elements differ: ``payload_diff``'s edited-element
    count, or ``inf`` when the payloads are not structurally comparable."""
    try:
        return payload_diff(base, new)["edited_elements"]
    except DeltaUnsupported:
        return math.inf
