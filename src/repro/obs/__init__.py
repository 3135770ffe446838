"""Observability: the flight recorder and crash forensics.

The Rio paper treats each crash trial as a black box — footnote 2 of
section 3.3 declares tracing how faults propagate "beyond the scope of
this paper".  In a simulation nothing is out of scope: every layer of
the stack emits :class:`Event` records into a bounded
:class:`FlightRecorder`, and :mod:`repro.obs.forensics` links one
trial's injection record to the first divergent store, the crash event
and the detector evidence.
"""

from repro.obs.events import (
    BOUNDARY_EVENT_KEYS,
    DEFAULT_EVENT_CAP,
    Event,
    FlightRecorder,
    events_digest,
    is_boundary,
)
from repro.obs.forensics import (
    ForensicReport,
    MissingBaseline,
    NoDivergence,
    build_forensic_report,
    first_divergence,
    format_forensic_report,
)

__all__ = [
    "BOUNDARY_EVENT_KEYS",
    "DEFAULT_EVENT_CAP",
    "Event",
    "FlightRecorder",
    "events_digest",
    "is_boundary",
    "ForensicReport",
    "MissingBaseline",
    "NoDivergence",
    "build_forensic_report",
    "first_divergence",
    "format_forensic_report",
]
