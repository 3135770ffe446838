"""Boundary enumeration over flight-recorder streams.

A *boundary* is one recorded synchronization point the explorer must
crash at: a cache write, a cache fill, a writeback flush, a shadow-page
flip, a registry update, or a service acknowledgement.  The taxonomy
itself (:data:`repro.obs.events.BOUNDARY_EVENT_KEYS`) lives with the
recorder; this module turns one enumeration run's serialized stream
into the explorer's work list.

Boundary identity is the event's recorder sequence number (``seq``):
because both execution engines emit byte-identical streams for one
seed, ``(seed, event_index)`` names the same instant in every re-run —
which is what makes every counterexample replayable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List

from repro.obs.events import is_boundary


@dataclass(frozen=True)
class Boundary:
    """One crash point: the event at ``index`` in the recorder stream."""

    #: The recorder sequence number — stable across deterministic re-runs.
    index: int
    kind: str
    op: str

    def key(self) -> str:
        """The census bucket this boundary belongs to, e.g. ``cache/write``."""
        return f"{self.kind}/{self.op}"

    def to_json_dict(self) -> Dict[str, Any]:
        """Wire form (checkpoint journals, worker payloads)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "Boundary":
        """Inverse of :meth:`to_json_dict`."""
        return cls(**data)


def enumerate_boundaries(events: List[Dict[str, Any]]) -> List[Boundary]:
    """Extract every crash-point boundary from a serialized event stream.

    ``events`` must be a complete stream (no ring eviction): the
    enumeration run uses a cap large enough that ``dropped == 0``,
    which :func:`repro.explore.explorer.run_enumeration` enforces.
    """
    return [
        Boundary(index=ev["seq"], kind=ev["kind"], op=ev["op"])
        for ev in events
        if is_boundary(ev["kind"], ev["op"])
    ]


def boundary_census(boundaries: List[Boundary]) -> Dict[str, int]:
    """Count boundaries per ``kind/op`` bucket (sorted keys)."""
    census: Dict[str, int] = {}
    for boundary in boundaries:
        key = boundary.key()
        census[key] = census.get(key, 0) + 1
    return dict(sorted(census.items()))
