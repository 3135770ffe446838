"""The exhaustive crash-point explorer.

The fault campaigns sample the crash space: each trial injects one
random fault and sees where the system lands.  The explorer *sweeps* it:

1. **Enumerate** — run the workload once, to completion, under the
   flight recorder and extract every store/cache-write/writeback-flush/
   shadow-flip/registry-update/ack boundary from the stream
   (:mod:`repro.explore.boundaries`).
2. **Crash everywhere** — for each boundary, re-run the workload
   deterministically with a one-shot crash armed at that event's
   sequence number (:meth:`FlightRecorder.arm_crash`): the machine dies
   the instant the boundary event is recorded, before the store it
   announces lands.
3. **Check the spec** — warm-reboot, recover, and hold the recovered
   system to the declared crash-consistency spec
   (:mod:`repro.explore.spec`).  Any violation is a typed
   counterexample replayable by ``(seed, event_index)``.

Per-boundary trials are pure functions of ``(ExploreConfig,
Boundary)``, so they fan across cores through the shared worker pool's
:class:`~repro.reliability.pool.ParallelMap` with **no** sequential
coupling: the keyed verdict map — and therefore the whole report and
its digest — is bit-identical at any ``--jobs`` and on either
execution engine.  Finished trials checkpoint into a
:class:`~repro.reliability.journal.CampaignJournal` keyed
``(workload, "boundary", event_index)`` the moment they land, so an
interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.errors import SystemCrash
from repro.obs.events import events_digest
from repro.obs.forensics import build_forensic_report, format_forensic_report
from repro.reliability.pool import ParallelMap
from repro.reliability.journal import CampaignJournal

from repro.explore.boundaries import Boundary, boundary_census, enumerate_boundaries
from repro.explore.spec import SpecViolation, default_spec
from repro.explore.workloads import ExploreConfig, build_run


class ExploreError(RuntimeError):
    """The exploration could not produce a trustworthy sweep."""


# -- enumeration -------------------------------------------------------------


@dataclass
class EnumerationResult:
    """One clean workload run's serialized stream and its crash points."""

    events: List[Dict[str, Any]]
    digest: str
    boundaries: List[Boundary]


def run_enumeration(config: ExploreConfig) -> EnumerationResult:
    """Run the workload once, cleanly, and enumerate every boundary."""
    run = build_run(config)
    rec = run.recorder
    rec.start(cap=config.event_cap)
    run.execute()
    rec.stop()
    if run.crashed or not run.completed:
        raise ExploreError(
            f"enumeration run of workload {config.workload!r} did not complete "
            f"cleanly (crashed={run.crashed}); the sweep needs a crash-free "
            "baseline to enumerate boundaries from"
        )
    if rec.dropped:
        raise ExploreError(
            f"enumeration stream lost {rec.dropped} event(s) to ring "
            f"eviction; raise event_cap (currently {config.event_cap}) so "
            "boundary indices cover the whole run"
        )
    events = rec.to_json_list()
    return EnumerationResult(
        events=events,
        digest=events_digest(events),
        boundaries=enumerate_boundaries(events),
    )


# -- one boundary trial ------------------------------------------------------


@dataclass
class BoundaryVerdict:
    """What crashing at one boundary did to the spec."""

    boundary: Boundary
    #: The armed crash fired at exactly the enumerated event.
    fired: bool
    #: The workload observed the crash (traffic runs may still complete:
    #: the service absorbs the crash and the load finishes afterwards).
    crashed: bool
    completed: bool
    violations: List[SpecViolation]
    #: sha256 of the post-recovery disk image (dissect ran).
    image_sha256: Optional[str] = None
    #: Dumped counterexample artifacts (host paths; excluded from the
    #: canonical form so the report digest is location-independent).
    artifact_image: Optional[str] = None
    artifact_report: Optional[str] = None

    @property
    def ok(self) -> bool:
        """The crash fired and the spec held."""
        return self.fired and not self.violations

    def canonical_json_dict(self) -> Dict[str, Any]:
        """The digest-stable form: no host paths, sorted-key friendly."""
        return {
            "boundary": self.boundary.to_json_dict(),
            "fired": self.fired,
            "crashed": self.crashed,
            "completed": self.completed,
            "violations": [v.to_json_dict() for v in self.violations],
            "image_sha256": self.image_sha256,
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """Full wire form: canonical content plus artifact paths."""
        out = self.canonical_json_dict()
        out["artifact_image"] = self.artifact_image
        out["artifact_report"] = self.artifact_report
        return out

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "BoundaryVerdict":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            boundary=Boundary.from_json_dict(data["boundary"]),
            fired=data["fired"],
            crashed=data["crashed"],
            completed=data["completed"],
            violations=[
                SpecViolation.from_json_dict(v) for v in data["violations"]
            ],
            image_sha256=data.get("image_sha256"),
            artifact_image=data.get("artifact_image"),
            artifact_report=data.get("artifact_report"),
        )


def run_boundary_trial(
    config: ExploreConfig,
    boundary: Boundary,
    artifact_dir: Optional[str] = None,
) -> BoundaryVerdict:
    """Re-run the workload, crash at ``boundary``, check the spec.

    Raises :class:`ExploreError` on a determinism breach — the armed
    event never re-occurring, or re-occurring as a different
    ``kind/op`` than the enumeration recorded.
    """
    run = build_run(config)
    rec = run.recorder
    rec.start(cap=config.event_cap)
    observed: Dict[str, str] = {}

    def crash_hook(event) -> None:
        observed["kind"], observed["op"] = event.kind, event.op
        raise SystemCrash(
            f"explorer: armed crash at boundary {boundary.index} "
            f"({event.kind}/{event.op})"
        )

    rec.arm_crash(boundary.index, crash_hook)
    try:
        run.execute()
    finally:
        rec.disarm_crash()
        rec.stop()

    if not observed:
        raise ExploreError(
            f"determinism breach: boundary {boundary.index} "
            f"({boundary.key()}) enumerated but never re-occurred on replay"
        )
    if (observed["kind"], observed["op"]) != (boundary.kind, boundary.op):
        raise ExploreError(
            f"determinism breach: event {boundary.index} was "
            f"{boundary.key()} at enumeration but "
            f"{observed['kind']}/{observed['op']} on replay"
        )

    ctx = run.context(boundary.index, boundary.kind, boundary.op)
    violations = default_spec().check(ctx)
    verdict = BoundaryVerdict(
        boundary=boundary,
        fired=True,
        crashed=run.crashed,
        completed=run.completed,
        violations=violations,
        image_sha256=run.dissect.image_sha256 if run.dissect is not None else None,
    )
    if violations and artifact_dir:
        _dump_counterexample(config, boundary, run, rec, verdict, artifact_dir)
    return verdict


def _dump_counterexample(
    config: ExploreConfig, boundary: Boundary, run, rec, verdict, artifact_dir: str
) -> None:
    """Drop the violating trial's image + forensics next to the report.

    The image is a standard ``RIOIMG1`` container (``repro dissect``
    reads it back); the text report is the flight-recorder forensic
    chain with the spec violations appended.
    """
    os.makedirs(artifact_dir, exist_ok=True)
    stem = f"ce_{config.workload}_seed{config.seed}_ev{boundary.index}"
    if run.image is not None:
        image_path = os.path.join(artifact_dir, stem + ".img")
        dump_meta = {
            "workload": config.workload,
            "system": config.system,
            "seed": config.seed,
            "event_index": boundary.index,
            "boundary": boundary.key(),
        }
        from repro.fs.dissect import dump_image

        dump_image(image_path, run.image, meta=dump_meta)
        verdict.artifact_image = image_path
    warm = run.reboot.warm if run.reboot is not None else None
    synthetic_result = {
        "config": {
            "system": config.system,
            "fault_type": f"boundary:{boundary.key()}",
            "seed": config.seed,
        },
        "recovery_failed": run.recovery_error is not None,
        "checksum_mismatches": len(warm.checksum_mismatches) if warm is not None else 0,
        "image_sha256": verdict.image_sha256,
        "dissect_findings": [
            f.to_json_dict() for f in run.dissect.findings
        ]
        if run.dissect is not None
        else [],
        "divergence": run.divergence.to_json_dict()
        if run.divergence is not None
        else None,
    }
    forensic = build_forensic_report(synthetic_result, rec.to_json_list())
    lines = [
        format_forensic_report(forensic),
        "",
        f"spec violations at boundary {boundary.index} ({boundary.key()}):",
    ]
    for violation in verdict.violations:
        lines.append(f"  - [{violation.clause}] {violation.detail}")
    lines.append("replay: repro explore " + replay_command(config, boundary.index))
    report_path = os.path.join(artifact_dir, stem + ".txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict.artifact_report = report_path


def run_trial_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """:class:`ParallelMap` entry point — JSON dict in, JSON dict out."""
    config = ExploreConfig.from_json_dict(payload["config"])
    boundary = Boundary.from_json_dict(payload["boundary"])
    verdict = run_boundary_trial(
        config, boundary, artifact_dir=payload.get("artifact_dir")
    )
    return verdict.to_json_dict()


# -- the sweep ---------------------------------------------------------------


@dataclass
class ExploreReport:
    """The outcome of one exhaustive sweep."""

    config: ExploreConfig
    total_events: int
    enumeration_digest: str
    #: Enumerated boundaries per ``kind/op`` bucket.
    census: Dict[str, int]
    boundaries_total: int
    #: One verdict per crashed boundary, in event-index order.
    verdicts: List[BoundaryVerdict]
    #: Boundary keys given up on after repeated worker deaths.
    quarantined: List[Any] = field(default_factory=list)
    executed: int = 0
    from_checkpoint: int = 0

    @property
    def crashed_count(self) -> int:
        """Boundaries whose armed crash actually fired."""
        return sum(1 for v in self.verdicts if v.fired)

    @property
    def coverage_percent(self) -> float:
        """Crashed boundaries as a percentage of those enumerated."""
        if self.boundaries_total == 0:
            return 100.0
        return 100.0 * self.crashed_count / self.boundaries_total

    @property
    def complete(self) -> bool:
        """Every enumerated boundary produced a fired-crash verdict."""
        return self.crashed_count == self.boundaries_total

    @property
    def violations(self) -> List[SpecViolation]:
        """Every spec violation across all verdicts, boundary order."""
        out: List[SpecViolation] = []
        for verdict in self.verdicts:
            out.extend(verdict.violations)
        return out

    @property
    def counterexamples(self) -> List[BoundaryVerdict]:
        """The verdicts that violated at least one clause."""
        return [v for v in self.verdicts if v.violations]

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Per ``kind/op`` bucket: enumerated / crashed / violations."""
        out: Dict[str, Dict[str, int]] = {
            key: {"enumerated": count, "crashed": 0, "violations": 0}
            for key, count in self.census.items()
        }
        for verdict in self.verdicts:
            bucket = out.setdefault(
                verdict.boundary.key(),
                {"enumerated": 0, "crashed": 0, "violations": 0},
            )
            if verdict.fired:
                bucket["crashed"] += 1
            bucket["violations"] += len(verdict.violations)
        return out

    def report_digest(self) -> str:
        """sha256 over the sweep's canonical content.

        Covers the config fingerprint, the enumeration stream digest and
        every verdict's canonical form — but not host paths, job counts
        or checkpoint bookkeeping, so serial and parallel sweeps (and
        both execution engines) produce the same digest.
        """
        body = {
            "config": self.config.to_json_dict(),
            "enumeration_digest": self.enumeration_digest,
            "total_events": self.total_events,
            "census": self.census,
            "verdicts": [v.canonical_json_dict() for v in self.verdicts],
        }
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_json_dict(self) -> Dict[str, Any]:
        """Full machine-readable report (the ``--json`` output)."""
        return {
            "config": self.config.to_json_dict(),
            "total_events": self.total_events,
            "enumeration_digest": self.enumeration_digest,
            "census": self.census,
            "boundaries_total": self.boundaries_total,
            "coverage_percent": self.coverage_percent,
            "complete": self.complete,
            "breakdown": self.breakdown(),
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "quarantined": [list(key) for key in self.quarantined],
            "executed": self.executed,
            "from_checkpoint": self.from_checkpoint,
            "report_digest": self.report_digest(),
        }


def explore(
    config: ExploreConfig,
    *,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    progress=None,
) -> ExploreReport:
    """Enumerate every boundary, crash at each, check the spec.

    ``jobs`` fans per-boundary trials across worker processes (1 =
    in-process); ``checkpoint`` journals finished trials for resume;
    ``artifact_dir`` receives counterexample images + forensics.
    """
    enumeration = run_enumeration(config)
    boundaries = enumeration.boundaries
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)

    journal: Optional[CampaignJournal] = None
    cache: Dict[Any, Any] = {}
    if checkpoint:
        journal = CampaignJournal(
            checkpoint, {"explore": 1, "config": config.to_json_dict()}
        )
        cache = journal.load()  # raises CampaignResumeError on mismatch
        journal.open_for_append()

    verdict_dicts: Dict[int, Dict[str, Any]] = {}
    from_checkpoint = 0
    tasks: List[Any] = []
    for boundary in boundaries:
        key = (config.workload, "boundary", boundary.index)
        entry = cache.pop(key, None)
        if entry is not None:
            seed, result_dict = entry
            if seed == config.seed and result_dict is not None:
                verdict_dicts[boundary.index] = result_dict
                from_checkpoint += 1
                continue
        tasks.append(
            (
                key,
                {
                    "config": config.to_json_dict(),
                    "boundary": boundary.to_json_dict(),
                    "artifact_dir": artifact_dir,
                },
            )
        )

    pmap = ParallelMap(
        "repro.explore.explorer:run_trial_task", jobs=jobs, progress=progress
    )
    try:
        # Journal each verdict as it lands: the journal is keyed and
        # last-wins, so arrival order is free, and an interrupted sweep
        # keeps every trial that finished.
        for key, result_dict in pmap.stream(tasks):
            if result_dict is None:
                continue  # quarantined after repeated worker deaths
            verdict_dicts[key[2]] = result_dict
            if journal is not None:
                journal.append_trial(key, config.seed, result_dict)
    finally:
        if journal is not None:
            journal.close()

    verdicts = [
        BoundaryVerdict.from_json_dict(verdict_dicts[index])
        for index in sorted(verdict_dicts)
    ]
    return ExploreReport(
        config=config,
        total_events=len(enumeration.events),
        enumeration_digest=enumeration.digest,
        census=boundary_census(boundaries),
        boundaries_total=len(boundaries),
        verdicts=verdicts,
        quarantined=list(pmap.stats.quarantined),
        executed=pmap.stats.executed,
        from_checkpoint=from_checkpoint,
    )


def replay(
    config: ExploreConfig,
    event_index: int,
    artifact_dir: Optional[str] = None,
) -> BoundaryVerdict:
    """Re-run exactly one ``(seed, event_index)`` counterexample.

    Enumerates first (cheap — one clean run) so the index is validated
    against the actual boundary list before the crash is armed.
    """
    enumeration = run_enumeration(config)
    boundary = next(
        (b for b in enumeration.boundaries if b.index == event_index), None
    )
    if boundary is None:
        indices = [b.index for b in enumeration.boundaries]
        near = [i for i in indices if abs(i - event_index) <= 10] or indices[:8]
        raise ExploreError(
            f"event {event_index} is not a boundary of workload "
            f"{config.workload!r} seed {config.seed} "
            f"({len(indices)} boundaries; nearby indices: {near})"
        )
    return run_boundary_trial(config, boundary, artifact_dir=artifact_dir)


# -- rendering ---------------------------------------------------------------


#: ExploreConfig fields ``repro explore`` has no flag for; every other
#: field ``name`` is the flag ``--name`` (underscores dashed) and the
#: workload is the positional.
_NO_FLAG = ("fs_blocks", "event_cap")


def replay_command(config: ExploreConfig, event_index: int) -> str:
    """The ``repro explore`` argument string that replays one
    counterexample — every non-default config knob spelled out, so the
    printed command is the complete replayable identity.  A config the
    command line cannot express raises instead of printing a lie."""
    parts = [config.workload]
    for f in fields(ExploreConfig):
        value = getattr(config, f.name)
        if f.name == "workload" or (value == f.default and f.name not in ("system", "seed")):
            continue
        if f.name in _NO_FLAG:
            raise ExploreError(
                f"{f.name}={value!r} has no `repro explore` flag: "
                "this run cannot be replayed from the command line"
            )
        flag = "--" + f.name.replace("_", "-")
        parts.append(flag if value is True else f"{flag} {value}")
    parts.append(f"--replay {event_index}")
    return " ".join(parts)


def format_explore_report(report: ExploreReport) -> str:
    """Human-readable sweep summary (the ``repro explore`` output)."""
    config = report.config
    lines = [
        f"crash-point exploration: workload={config.workload} "
        f"system={config.system} seed={config.seed}",
        f"  events recorded: {report.total_events} "
        f"(stream digest {report.enumeration_digest[:16]})",
        f"  boundaries: {report.boundaries_total} across "
        f"{len(report.census)} kind(s)",
        f"  coverage: {report.crashed_count}/{report.boundaries_total} "
        f"boundaries crashed ({report.coverage_percent:.1f}%)"
        + ("" if report.complete else "  [INCOMPLETE]"),
        f"  trials: {report.executed} run, "
        f"{report.from_checkpoint} from checkpoint"
        + (f", {len(report.quarantined)} quarantined" if report.quarantined else ""),
        "  per-boundary-kind breakdown:",
    ]
    for key, bucket in sorted(report.breakdown().items()):
        lines.append(
            f"    {key:<18} {bucket['enumerated']:>4} enumerated, "
            f"{bucket['crashed']:>4} crashed, "
            f"{bucket['violations']:>3} violation(s)"
        )
    lines.append(
        "  spec clauses: " + ", ".join(default_spec().clause_ids())
    )
    violations = report.violations
    if not violations:
        lines.append("  violations: none — the spec held at every boundary")
    else:
        lines.append(f"  violations: {len(violations)}")
        shown = 0
        for verdict in report.counterexamples:
            for violation in verdict.violations:
                if shown >= 20:
                    break
                lines.append(
                    f"    event #{violation.event_index} "
                    f"({verdict.boundary.key()}): [{violation.clause}] "
                    f"{violation.detail}"
                )
                shown += 1
            if verdict.artifact_image:
                lines.append(f"      image:  {verdict.artifact_image}")
            if verdict.artifact_report:
                lines.append(f"      report: {verdict.artifact_report}")
        if len(violations) > shown:
            lines.append(f"    ... and {len(violations) - shown} more")
        first = report.counterexamples[0]
        lines.append(
            "  replay the first counterexample: repro explore "
            + replay_command(config, first.boundary.index)
        )
    lines.append(f"  report digest: {report.report_digest()}")
    return "\n".join(lines)
