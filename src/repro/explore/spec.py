"""The declared crash-consistency spec the explorer checks at every boundary.

The crash campaigns historically judged recovery with the ad-hoc
``_check_static_files`` probe (two pre-written copies compared after
reboot).  The explorer replaces that with a *declared*, composable spec
in the SquirrelFS tradition: a set of named clauses, each an
independently checkable predicate over one recovered-system context,
each reporting typed :class:`SpecViolation` records that name the exact
``(seed, event_index)`` crash point that produced them.

The default spec (:func:`default_spec`):

* **recovery-succeeds** — warm reboot + fsck + the durability audit all
  complete; fsck never declares the volume unrecoverable.
* **acked-data-durable** — every acknowledged operation (the promise
  ledger of :class:`repro.server.journal.AckJournal`) survives the
  crash: files hold exactly the acknowledged bytes, promised
  directories exist, promised absences stay absent.
* **metadata-atomic** — the recovered namespace is traversable: every
  directory reachable from the root lists and stats cleanly (a crash
  mid-update never leaves a half-written directory behind).
* **shadow-never-torn** — the warm reboot found no checksum-mismatched
  registry slots: a crash inside a shadow-page flip never exposes a
  torn page.
* **fsck-dissect-agree** — the independent on-disk verifier's second
  opinion agrees with fsck about the post-recovery image.
* **remote-tier-consistent** — with a tiered backing store: after
  recovery and reconcile, the image materialized from the object store
  *alone* mounts, passes the dissect second opinion, and reproduces
  every acknowledged operation (skipped when no backend is installed).

Each clause sees only the :class:`CrashContext` fields it declares an
interest in and skips (rather than fails) when a field is absent — a
context built from the basic workload has no service, a unit test's
context may have no live system at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import FileSystemError, NotADirectory

#: Directories visited per namespace walk before the walk declares a
#: cycle (the verifier's own bounded-walk discipline).
MAX_WALK_DIRS = 4096


@dataclass(frozen=True)
class SpecViolation:
    """One clause firing at one crash point."""

    clause: str
    detail: str
    #: The boundary's recorder sequence number — with the workload seed,
    #: the replayable identity of the counterexample.
    event_index: int
    seed: int
    workload: str

    def to_json_dict(self) -> Dict[str, Any]:
        """Wire form (verdict serialization, checkpoint journals)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SpecViolation":
        """Inverse of :meth:`to_json_dict`."""
        return cls(**data)


@dataclass
class CrashContext:
    """Everything one recovered trial exposes to the spec clauses."""

    workload: str
    seed: int
    event_index: int
    #: The recovered, live system (namespace walks); None in unit tests
    #: and when the reboot left the machine down.
    system: Any = None
    #: The :class:`repro.system.RebootReport` of the crash recovery.
    reboot: Any = None
    #: Recovery died outright (reboot or audit raised): the description.
    recovery_error: Optional[str] = None
    #: Lost-acknowledgement descriptions from the durability audit(s).
    lost: List[str] = field(default_factory=list)
    #: The independent verifier's :class:`DissectReport` (or None).
    dissect: Any = None
    #: The fsck-vs-dissect :class:`DivergenceReport` (or None).
    divergence: Any = None
    #: The remote-tier :class:`~repro.backend.audit.RemoteCheck` (or
    #: None when the system has no backing store).
    remote: Any = None


class SpecClause:
    """One named predicate; subclasses override :meth:`check`."""

    clause_id = "?"

    def check(self, ctx: CrashContext) -> List[str]:
        """Return one detail string per violation (empty = clause holds)."""
        raise NotImplementedError

    def violations(self, ctx: CrashContext) -> List[SpecViolation]:
        """Wrap :meth:`check` details into typed violations."""
        return [
            SpecViolation(
                clause=self.clause_id,
                detail=detail,
                event_index=ctx.event_index,
                seed=ctx.seed,
                workload=ctx.workload,
            )
            for detail in self.check(ctx)
        ]


class RecoverySucceeds(SpecClause):
    """Recovery must complete and fsck must not give up."""

    clause_id = "recovery-succeeds"

    def check(self, ctx: CrashContext) -> List[str]:
        """Fires on a recovery error or an unrecoverable fsck verdict."""
        details: List[str] = []
        if ctx.recovery_error is not None:
            details.append(f"recovery failed: {ctx.recovery_error}")
        fsck = ctx.reboot.fsck if ctx.reboot is not None else None
        if fsck is not None and fsck.unrecoverable:
            details.append("fsck declared the file system unrecoverable")
        return details


class AckedDataDurable(SpecClause):
    """No acknowledged operation may be lost to the crash."""

    clause_id = "acked-data-durable"

    def check(self, ctx: CrashContext) -> List[str]:
        """Fires once per lost acknowledgement the audit reported."""
        return [f"lost acknowledgement: {entry}" for entry in ctx.lost]


class MetadataAtomic(SpecClause):
    """The recovered namespace must be fully traversable."""

    clause_id = "metadata-atomic"

    def check(self, ctx: CrashContext) -> List[str]:
        """BFS-walks the recovered namespace; fires on any failed
        readdir/stat (and on a runaway walk past :data:`MAX_WALK_DIRS`)."""
        if ctx.system is None:
            return []
        vfs = ctx.system.vfs
        try:
            # Each directory is read once: a child's probe listing rides
            # the queue to the turn that walks it.
            queue = [("/", vfs.readdir("/"))]
        except FileSystemError as exc:
            return [f"readdir / failed after recovery: {exc}"]
        details: List[str] = []
        visited = 0
        while queue:
            path, names = queue.pop(0)
            visited += 1
            if visited > MAX_WALK_DIRS:
                details.append(
                    f"namespace walk exceeded {MAX_WALK_DIRS} directories "
                    "(cycle or runaway tree after recovery)"
                )
                break
            for name in names:
                child = path.rstrip("/") + "/" + name
                try:
                    vfs.stat(child)
                except FileSystemError as exc:
                    details.append(f"stat {child} failed after recovery: {exc}")
                    continue
                try:
                    listing = vfs.readdir(child)
                except NotADirectory:
                    continue  # a file: nothing further to walk
                except FileSystemError as exc:
                    details.append(f"readdir {child} failed after recovery: {exc}")
                    continue
                queue.append((child, listing))
        return details


class ShadowPagesNeverTorn(SpecClause):
    """The warm reboot must never find a checksum-mismatched page."""

    clause_id = "shadow-never-torn"

    def check(self, ctx: CrashContext) -> List[str]:
        """Fires when the warm reboot saw checksum-mismatched slots."""
        warm = ctx.reboot.warm if ctx.reboot is not None else None
        if warm is None or not warm.checksum_mismatches:
            return []
        mismatches = warm.checksum_mismatches
        slots = ", ".join(str(slot) for slot in mismatches)
        return [
            f"warm reboot found {len(mismatches)} torn page(s) "
            f"(registry slot(s) {slots})"
        ]


class FsckDissectAgree(SpecClause):
    """fsck and the independent verifier must agree about the image."""

    clause_id = "fsck-dissect-agree"

    def check(self, ctx: CrashContext) -> List[str]:
        """Fires once per divergence detail between the two judges."""
        divergence = ctx.divergence
        if divergence is None or divergence.agreed:
            return []
        return [f"fsck/dissect divergence: {reason}" for reason in divergence.details]


class RemoteTierConsistent(SpecClause):
    """After recovery, the remote tier alone must pay every ack.

    Judges the :class:`~repro.backend.audit.RemoteCheck`: the post-
    recovery reconcile must complete (a crash mid-upload legitimately
    leaves the object store behind the local disk — fsck-remote healing
    it from the local authority is correct operation, not a violation),
    and the image materialized from the object store alone must mount,
    agree with the dissect second opinion, and reproduce every
    acknowledged operation *the local disk still pays* — an ack the
    local authority itself lost (a UFS crash dropping unflushed writes)
    is :class:`AckedDataDurable`'s finding, and a remote tier that
    agrees with local about it is consistent, not divergent.  Skips
    when the trial has no backing store.
    """

    clause_id = "remote-tier-consistent"

    def check(self, ctx: CrashContext) -> List[str]:
        """Fires on audit errors, undeclared deferrals, lost acks over
        the materialized image, unreconciled findings, or divergence."""
        remote = ctx.remote
        if remote is None:
            return []
        details: List[str] = []
        if remote.error is not None:
            details.append(f"remote audit error: {remote.error}")
            return details
        if remote.deferred:
            details.append(
                "remote reconcile deferred outside a declared outage window"
            )
            return details
        reconcile = remote.reconcile
        if reconcile is not None and not reconcile.ok:
            details.append(
                "remote fsck left the tier unreconciled: "
                f"needs_batch={reconcile.needs_batch} "
                f"unrepaired={reconcile.unrepaired}"
            )
        # Audit entries lead with their identity ("file /a/b: ...");
        # skip losses the local audit reported too — the tiers agree.
        locally_lost = {entry.split(":", 1)[0] for entry in ctx.lost}
        for entry in remote.lost:
            if entry.split(":", 1)[0] in locally_lost:
                continue
            details.append(f"remote tier lost acknowledgement: {entry}")
        divergence = remote.divergence
        if divergence is not None and not divergence.agreed:
            details.extend(
                f"remote image fsck/dissect divergence: {reason}"
                for reason in divergence.details
            )
        return details


class CrashSpec:
    """A composable conjunction of spec clauses."""

    def __init__(self, clauses: List[SpecClause]) -> None:
        self.clauses = list(clauses)

    def clause_ids(self) -> List[str]:
        """The clause names, declaration order."""
        return [clause.clause_id for clause in self.clauses]

    def check(self, ctx: CrashContext) -> List[SpecViolation]:
        """Check every clause; returns all violations, clause order."""
        out: List[SpecViolation] = []
        for clause in self.clauses:
            out.extend(clause.violations(ctx))
        return out


def default_spec() -> CrashSpec:
    """The spec the explorer holds every crash point to."""
    return CrashSpec(
        [
            RecoverySucceeds(),
            AckedDataDurable(),
            MetadataAtomic(),
            ShadowPagesNeverTorn(),
            FsckDissectAgree(),
            RemoteTierConsistent(),
        ]
    )
