"""Per-trial crash forensics over flight-recorder streams.

Links a crash trial's injection record to the first kernel store it
influenced, the crash event, and the corruption evidence each detector
produced.  The rigorous attribution path re-runs the *same* trial
configuration with injection suppressed (a clean baseline stopped at
the faulted trial's op count) and diffs the two event streams:

* injector-origin events (kinds ``trial`` and ``fault``) are filtered
  out of both streams — by construction the baseline has none;
* events compare on ``(kind, op, payload)``.  ``vtime`` is excluded:
  after a text-flip the patched/unpatched instruction mix changes
  interpreted timing, and a timing skew is not data corruption;
* the first differing position is the **first divergence**, and the
  first store-class event at or after it is the **first divergent
  store** — the earliest point where the fault demonstrably reached
  kernel state (a cache write, a page flush, a registry update, or a
  trap that *stopped* such a store).

A trial with an injection is attributed only against its baseline
(:class:`MissingBaseline` otherwise); a stream with no injection — the
crash-point explorer's counterexamples — needs none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Kinds that only the injected run can contain (filtered before diffing).
INJECTOR_KINDS = ("trial", "fault")

#: (kind, op) pairs that represent a kernel store reaching — or being
#: stopped on its way to — file-cache state.
STORE_EVENT_KEYS = {
    ("trap", "protection"),
    ("trap", "kseg"),
    ("trap", "patch"),
    ("trap", "machine-check"),
    ("cache", "write"),
    ("cache", "fill"),
    ("wb", "flush"),
    ("registry", "update"),
    ("shadow", "end-write"),
}


class MissingBaseline(ReproError):
    """A trial with an injection was handed over without its clean
    baseline: there is nothing to diff it against."""


@dataclass(frozen=True)
class NoDivergence:
    """Typed "there is no divergent store" outcome.

    Some trials legitimately have no first divergent store: the crash
    fired at event index 0 with no prior store (the crash-point
    explorer's first boundary), the fault never influenced any recorded
    operation, or no fault was injected at all.  Reporting ``None``
    for those renders an empty section indistinguishable from "the
    builder forgot to look"; this type names the reason instead.
    """

    reason: str


def _comparable(event: Dict[str, Any]) -> Tuple[str, str, str]:
    """Diff key for one serialized event: kind, op, canonical payload."""
    return (
        event["kind"],
        event["op"],
        json.dumps(event.get("payload", {}), sort_keys=True, separators=(",", ":")),
    )


def _filtered(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [e for e in events if e["kind"] not in INJECTOR_KINDS]


def first_divergence(
    events: List[Dict[str, Any]], baseline: List[Dict[str, Any]]
) -> Tuple[Optional[int], Optional[Dict[str, Any]]]:
    """First position where the faulted stream departs from the baseline.

    Returns ``(index, event)`` where ``index`` is into the
    injector-filtered faulted stream and ``event`` is the faulted
    event at that position (``None`` when the faulted stream ended
    early — e.g. the crash truncated it while the baseline ran on).
    Returns ``(None, None)`` for identical streams.
    """
    f, b = _filtered(events), _filtered(baseline)
    for i in range(min(len(f), len(b))):
        if _comparable(f[i]) != _comparable(b[i]):
            return i, f[i]
    if len(f) != len(b):
        i = min(len(f), len(b))
        return i, (f[i] if i < len(f) else None)
    return None, None


@dataclass
class ForensicReport:
    """The causal chain for one crash trial, ready to format."""

    system: str
    fault: str
    seed: int
    #: the ``trial/inject`` marker event, if the trial got that far
    injection: Optional[Dict[str, Any]]
    #: serialized ``fault`` events: what the injector actually did
    fault_events: List[Dict[str, Any]]
    #: first event differing from the clean baseline
    first_divergence: Optional[Dict[str, Any]]
    #: first store-class event at/after the divergence, or a typed
    #: :class:`NoDivergence` naming why none exists (never a bare None)
    first_divergent_store: Any
    #: "baseline-diff" | "none"
    divergence_basis: str
    crash: Optional[Dict[str, Any]]
    detectors: List[str]
    events_total: int
    notes: List[str] = field(default_factory=list)
    #: sha256 of the post-recovery disk image (when the trial ran dissect)
    image_sha256: Optional[str] = None
    #: serialized findings from the independent dissect verifier
    dissect_findings: List[Dict[str, Any]] = field(default_factory=list)
    #: serialized ``DivergenceReport`` comparing fsck and dissect verdicts
    divergence: Optional[Dict[str, Any]] = None


def _detector_evidence(result: Dict[str, Any]) -> List[str]:
    """One line per detector that found (or prevented) corruption."""
    out: List[str] = []
    problems = result.get("memtest_problems") or []
    if problems:
        first = problems[0]
        out.append(
            f"memtest: {len(problems)} file problem(s); first: "
            f"{first.get('path', '?')} — {first.get('problem', '?')}"
        )
    mismatches = result.get("checksum_mismatches") or 0
    if mismatches:
        out.append(f"registry checksums: {mismatches} mismatched slot(s)")
    if result.get("static_copy_mismatch"):
        out.append("static copies: contents differ from pristine originals")
    if result.get("recovery_failed"):
        out.append("recovery: warm reboot / fsck could not restore the fs")
    if result.get("protection_trap"):
        out.append("protection trap: the wild store was stopped before the cache")
    divergence = result.get("divergence")
    if divergence and not divergence.get("agreed", True):
        out.append(
            "independent verifier: dissect disagreed with fsck about the "
            "post-recovery image (see the second-opinion section)"
        )
    return out


def _first_store_at_or_after(
    events: List[Dict[str, Any]], start_index: int
) -> Optional[Dict[str, Any]]:
    for ev in events[start_index:]:
        if (ev["kind"], ev["op"]) in STORE_EVENT_KEYS:
            return ev
    return None


def build_forensic_report(
    result: Dict[str, Any],
    events: List[Dict[str, Any]],
    baseline: Optional[List[Dict[str, Any]]] = None,
) -> ForensicReport:
    """Build the causal-chain report for one serialized trial.

    ``result`` is a ``CrashTestResult.to_json_dict()`` dict (must carry
    its ``config``), ``events`` the trial's serialized event stream,
    ``baseline`` the injection-suppressed re-run's stream — required when
    ``events`` hold an injection (:class:`MissingBaseline`).
    Pure function of its inputs — unit-testable on synthetic streams.
    """
    config = result.get("config") or {}
    notes: List[str] = []

    injection = next(
        (e for e in events if e["kind"] == "trial" and e["op"] == "inject"), None
    )
    fault_events = [e for e in events if e["kind"] == "fault"]
    crash = next((e for e in events if e["kind"] == "crash"), None)

    divergence: Optional[Dict[str, Any]] = None
    divergent_store: Any = None
    basis = "none"
    no_divergence_reason: Optional[str] = None

    if baseline is not None:
        idx, div = first_divergence(events, baseline)
        if idx is not None:
            basis = "baseline-diff"
            divergence = div
            divergent_store = _first_store_at_or_after(_filtered(events), idx)
            no_divergence_reason = (
                "no store-class event at or after the divergence point"
            )
            if div is None:
                notes.append(
                    "faulted stream ended before the baseline's — the crash "
                    "truncated it; divergence index is the truncation point"
                )
        else:
            no_divergence_reason = (
                "event stream identical to the clean baseline — the fault "
                "never influenced any recorded operation"
            )
            notes.append(no_divergence_reason)
    elif injection is not None:
        raise MissingBaseline(
            f"trial {config.get('system', '?')}/{config.get('fault_type', '?')} "
            "has an injection but no baseline to diff it against"
        )
    else:
        # No fault was ever injected — e.g. a crash-point-explorer trial
        # or a trial that died before its injection op.
        if crash is not None:
            crash_pos = events.index(crash)
            if _first_store_at_or_after(events[:crash_pos], 0) is None:
                no_divergence_reason = (
                    f"crash at event index {crash['seq']} with no prior "
                    "store — nothing to attribute"
                )
            else:
                no_divergence_reason = (
                    "no fault was injected before the crash; the stores on "
                    "record are ordinary workload stores, not divergence"
                )
            notes.append("trial crashed before any fault was injected")
        else:
            no_divergence_reason = (
                "no fault injected and no crash recorded — a clean run"
            )

    if divergent_store is None and crash is not None and basis != "none":
        # Trap-flavoured crashes *are* the stopped store.
        divergent_store = crash
        notes.append("no store-class event recorded; the crash event stands in")
    if divergent_store is None:
        divergent_store = NoDivergence(
            no_divergence_reason or "no divergent store identified"
        )

    return ForensicReport(
        system=config.get("system", result.get("system", "?")),
        fault=str(config.get("fault_type", "?")),
        seed=int(config.get("seed", -1)),
        injection=injection,
        fault_events=fault_events,
        first_divergence=divergence,
        first_divergent_store=divergent_store,
        divergence_basis=basis,
        crash=crash,
        detectors=_detector_evidence(result),
        events_total=len(events),
        notes=notes,
        image_sha256=result.get("image_sha256"),
        dissect_findings=list(result.get("dissect_findings") or []),
        divergence=result.get("divergence"),
    )


def _fmt_event(ev) -> str:
    if ev is None:
        return "(none)"
    if isinstance(ev, NoDivergence):
        return f"(none: {ev.reason})"
    payload = ev.get("payload") or {}
    body = ", ".join(f"{k}={payload[k]}" for k in sorted(payload))
    return f"#{ev['seq']} {ev['kind']}/{ev['op']} @{ev['vtime']}ns" + (
        f" [{body}]" if body else ""
    )


def format_forensic_report(report: ForensicReport) -> str:
    lines = [
        f"trial: system={report.system} fault={report.fault} seed={report.seed}",
        f"  injection:        {_fmt_event(report.injection)}",
    ]
    for ev in report.fault_events:
        lines.append(f"    fault action:   {_fmt_event(ev)}")
    lines += [
        f"  first divergence: {_fmt_event(report.first_divergence)}"
        f" (basis: {report.divergence_basis})",
        f"  first divergent store: {_fmt_event(report.first_divergent_store)}",
        f"  crash:            {_fmt_event(report.crash)}",
    ]
    if report.detectors:
        lines.append("  detector evidence:")
        for line in report.detectors:
            lines.append(f"    - {line}")
    else:
        lines.append("  detector evidence: none (no corruption detected)")
    if report.image_sha256:
        verdict = "agreed" if (report.divergence or {}).get("agreed", True) else "DIVERGED"
        lines.append(
            f"  second opinion:   dissect scanned image {report.image_sha256[:16]} "
            f"({len(report.dissect_findings)} finding(s)); fsck/dissect {verdict}"
        )
        for finding in report.dissect_findings[:5]:
            lines.append(
                f"    - {finding.get('kind', '?')} at {finding.get('where', '?')}: "
                f"{finding.get('detail', '')}"
            )
        for detail in (report.divergence or {}).get("details", []):
            lines.append(f"    divergence: {detail}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    lines.append(f"  events recorded: {report.events_total}")
    return "\n".join(lines)
