"""The remote-tier recovery audit: can the object store alone pay the acks?

The local-tier audit (:meth:`AckJournal.audit`) asks the recovered file
system to produce every acknowledged byte.  This module asks a harder
question of the remote tier: after recovery and reconcile, *throw the
local disk away* — materialize the full device image from the object
store, fsck it, mount it on a scratch machine, and replay the promise
ledger against that.  ``ok`` means no acknowledged operation depends on
a dirty block that never uploaded: the remote tier alone reconstructs
every promise.

The dissect second opinion rides along, exactly as in the local
campaigns: the materialized image (not the scratch disk fsck repaired)
is dissected and compared with the scratch fsck's verdict, findings fsck
itself disclosed filtered out (:func:`~repro.fs.dissect.second_opinion`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.backend.common import BackendOutage
from repro.backend.fsck_remote import RemoteFsckReport, fsck_remote
from repro.backend.tiered import TieredStore
from repro.fs.types import BLOCK_SIZE


@dataclass
class RemoteCheck:
    """Everything one remote-tier recovery audit concluded."""

    #: The reconcile pass that ran first (None when it never started).
    reconcile: Optional[RemoteFsckReport] = None
    #: Acked operations the materialized image could not reproduce.
    lost: List[str] = field(default_factory=list)
    #: fsck-vs-dissect agreement over the materialized image.
    divergence: Any = None
    #: sha256 of the materialized image (digest material).
    image_sha256: Optional[str] = None
    #: Repairs the scratch fsck applied to the materialized image.
    image_fsck_fixes: int = 0
    #: The store was unreachable; the audit could not run.
    deferred: bool = False
    #: The audit machinery itself failed (never expected; spec-fatal).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """The remote tier alone honored every acknowledged operation."""
        if self.error is not None or self.deferred:
            return False
        if self.lost:
            return False
        if self.reconcile is not None and not self.reconcile.ok:
            return False
        if self.divergence is not None and not self.divergence.agreed:
            return False
        return True

    def to_json_dict(self) -> dict:
        """JSON-safe wire form for reports and digests."""
        return {
            "reconcile": self.reconcile.to_json_dict() if self.reconcile else None,
            "lost": list(self.lost),
            "divergence": (
                self.divergence.to_json_dict()
                if self.divergence is not None
                else None
            ),
            "image_sha256": self.image_sha256,
            "image_fsck_fixes": self.image_fsck_fixes,
            "deferred": self.deferred,
            "error": self.error,
            "ok": self.ok,
        }


def mount_materialized(store: TieredStore):
    """Materialize the remote tier and boot a scratch system from it.

    Returns ``(system, reboot_report, image)``: a fresh simulated
    machine whose root disk holds exactly the object store's
    reconstruction, taken through the ordinary cold recovery chain
    (fsck, then mount).  Raises :class:`BackendOutage` when the store
    is unreachable.
    """
    image = store.materialize()
    system, report = _mount_image(image)
    return system, report, image


def _mount_image(image: bytes):
    """Boot a scratch system over an installed raw image (cold path)."""
    from repro.fs.dissect import install
    from repro.system import SystemSpec, build_system

    blocks = len(image) // BLOCK_SIZE
    system = build_system(SystemSpec(fs_type="ufs", policy="ufs", fs_blocks=blocks))
    system.crash("remote-tier audit mount", kind="audit")
    install(system.disk, image)
    report = system.reboot(preserve_memory=False)
    return system, report


def remote_recovery_audit(system, journal) -> RemoteCheck:
    """Run the full remote-tier audit over a recovered system.

    Sequence: flush the recovered local state and drain the upload
    queue (the recovered reality is what remote must mirror), reconcile
    with ``fsck_remote --batch --force``, materialize, dissect, scratch-
    mount, and audit the promise ledger against the scratch VFS.  An
    outage at any step defers the whole audit (``deferred=True``) — the
    spec treats a deferral during a declared outage window as
    legitimate, an undeclared one as a violation.
    """
    store = system.backing
    if store is None:
        return RemoteCheck(error="system has no backing store installed")
    check = RemoteCheck()
    try:
        if system.disk is not None:
            system.settle()
        store.drain_uploads()
        check.reconcile = fsck_remote(store, batch=True, force=True)
        if check.reconcile.deferred:
            check.deferred = True
            return check
        image = store.materialize()
    except BackendOutage:
        check.deferred = True
        return check
    check.image_sha256 = hashlib.sha256(image).hexdigest()

    from repro.fs.dissect import second_opinion

    scratch, reboot_report = _mount_image(image)
    check.image_fsck_fixes = reboot_report.fsck.fix_count
    _scan, check.divergence = second_opinion(image, reboot_report.fsck, disclosed=True)
    audit = journal.audit(scratch.vfs)
    check.lost = list(audit.lost)
    return check
