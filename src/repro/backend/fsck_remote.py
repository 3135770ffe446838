"""Remote-tier fsck: reconcile the local cache against the object store.

s3ql's fsck model, pointed at the tiered store's remote schema.  The
local disk is the recovery authority — it survived the crash, its own
fsck already ran — so every divergence is resolved *toward* the local
image:

* **stale map** — ``map/<block>`` names a hash that does not match the
  local block's current content (a crash rolled the local block back,
  or an upload committed content the crash then discarded).  Repair:
  re-upload the local content.
* **missing object** — a map entry points at an ``obj/`` blob that does
  not exist (crash between the ``backend/commit`` map flip and a retry
  that never happened, or a repair interrupted mid-flight).  Repair:
  re-upload the local content with a forced blob put.
* **unmapped block** — a non-zero local block with no map entry (a
  crash discarded the dirty queue before the block ever uploaded).
  Repair: upload it.  All-zero local blocks stay unmapped — zeros are
  the materialization default.
* **orphan object** — an ``obj/`` blob no map entry references (crash
  between the ``backend/upload`` blob put and the map flip).  Deleting
  data needs consent: repaired only under ``batch``, otherwise counted
  in ``needs_batch`` and left in place.
* **refcount drift** — ``ref/<hash>`` disagrees with the number of map
  entries actually naming ``<hash>`` (crash between the map flip and
  the refcount writes).  Repair: rewrite the true count.

Flag semantics follow s3ql: ``--batch`` consents to every repair
without prompting (this repo has no prompts, so non-batch simply
*reports* consent-needing findings instead of acting on them);
``--force`` checks even when a valid seal says the tiers are already
reconciled.

The check runs inside :meth:`ChaosRegistry.calm` when a chaos registry
is installed — recovery is never chaos-denied, matching how the disk
tier's fsck is exempt from fault injection — but a *real* outage
(:meth:`ObjectStoreBackend.set_down`) still rejects every request, in
which case the whole check defers (``deferred=True``) exactly like
s3ql refusing to fsck an unreachable bucket.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.backend.common import BackendOutage
from repro.backend.tiered import (
    OBJ_PREFIX,
    REF_PREFIX,
    TieredStore,
    content_hash,
    obj_key,
    ref_key,
)
from repro.fs.types import SECTORS_PER_BLOCK


@dataclass
class RemoteFsckReport:
    """What one remote-tier check found, fixed, and left behind."""

    batch: bool = False
    force: bool = False
    #: The seal matched: local and remote verified reconciled, no scan.
    sealed: bool = False
    #: The store was unreachable; nothing was verified.
    deferred: bool = False
    scanned_blocks: int = 0
    stale_maps: int = 0
    missing_objects: int = 0
    unmapped_blocks: int = 0
    orphan_objects: int = 0
    refcount_drift: int = 0
    #: Repairs successfully applied.
    repairs: int = 0
    #: Consent-needing findings left in place because ``batch`` was off.
    needs_batch: int = 0
    #: Repairs attempted but not applied (store went down mid-repair).
    unrepaired: int = 0
    findings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Everything verified and every finding repaired."""
        return not self.deferred and self.needs_batch == 0 and self.unrepaired == 0

    @property
    def clean(self) -> bool:
        """Nothing was wrong in the first place."""
        return not self.deferred and not self.findings

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe wire form (digest material)."""
        return asdict(self)

    def format(self) -> str:
        """Human-readable transcript (the CLI's output)."""
        lines = ["remote fsck" + (" --batch" if self.batch else "")
                 + (" --force" if self.force else "")]
        if self.deferred:
            lines.append("  DEFERRED: object store unreachable; nothing verified")
            return "\n".join(lines)
        if self.sealed:
            lines.append("  seal valid: local and remote already reconciled")
            return "\n".join(lines)
        lines.append(f"  scanned {self.scanned_blocks} blocks")
        for finding in self.findings:
            lines.append(f"  - {finding}")
        lines.append(
            f"  stale={self.stale_maps} missing={self.missing_objects} "
            f"unmapped={self.unmapped_blocks} orphans={self.orphan_objects} "
            f"drift={self.refcount_drift}"
        )
        lines.append(
            f"  repairs={self.repairs} needs_batch={self.needs_batch} "
            f"unrepaired={self.unrepaired} -> "
            + ("clean" if self.clean else ("ok" if self.ok else "NOT ok"))
        )
        return "\n".join(lines)


def fsck_remote(
    store: TieredStore, *, batch: bool = False, force: bool = False
) -> RemoteFsckReport:
    """Check (and under ``batch``, fully repair) the remote tier.

    Never raises for store weather: an outage at any point returns a
    ``deferred`` report.  After a clean ``batch`` run the remote tier
    is a faithful mirror of the local disk — every non-zero local
    block mapped to a blob holding its exact content, no orphans, no
    drift — and a fresh seal records that.
    """
    report = RemoteFsckReport(batch=batch, force=force)
    chaos = store.remote.chaos
    calm = chaos.calm() if chaos is not None else nullcontext()
    with calm:
        try:
            _check(store, report, batch=batch, force=force)
        except BackendOutage:
            report.deferred = True
    return report


def _check(store: TieredStore, report: RemoteFsckReport, *, batch: bool, force: bool) -> None:
    """The scan/repair body; raises :class:`BackendOutage` to defer."""
    remote = store.remote
    store.with_retries(store._ensure_mirror)

    if not force and not store.dirty_blocks():
        seal = store.with_retries(store.read_seal)
        if seal is not None and seal == store.seal_payload():
            report.sealed = True
            return

    total_blocks = store.disk.num_sectors // SECTORS_PER_BLOCK
    report.scanned_blocks = total_blocks
    obj_hashes = {
        key[len(OBJ_PREFIX):]
        for key in store.with_retries(lambda: remote.list(OBJ_PREFIX))
    }

    # Pass 0: reconcile refcounts against the map mirror FIRST.  Later
    # repair uploads decrement the old content's count and delete blobs
    # that reach zero — with a drifted count that could delete a blob
    # another map entry still references, so the counts must be true
    # before any repair runs.
    referenced: Dict[str, int] = {}
    for digest in store._map.values():
        referenced[digest] = referenced.get(digest, 0) + 1
    stored_refs = {
        key[len(REF_PREFIX):]
        for key in store.with_retries(lambda: remote.list(REF_PREFIX))
    }
    for digest in sorted(set(referenced) | stored_refs):
        true_count = referenced.get(digest, 0)
        if true_count == 0:
            # Blob present: the orphan sweep (pass 2) owns it and its
            # ref key.  Ref with neither blob nor map: consent-gated.
            if digest not in obj_hashes:
                report.refcount_drift += 1
                report.findings.append(
                    f"ref {digest[:16]}: counts a blob that does not exist"
                )
                if batch:
                    store.with_retries(lambda d=digest: remote.delete(ref_key(d)))
                    report.repairs += 1
                else:
                    report.needs_batch += 1
            continue
        stored = None
        if digest in stored_refs:
            raw = store.with_retries(lambda d=digest: remote.get(ref_key(d)))
            stored = int(raw.decode("ascii"))
        if stored != true_count:
            report.refcount_drift += 1
            report.findings.append(
                f"ref {digest[:16]}: stored {stored} but {true_count} "
                "map entries reference it"
            )
            store.with_retries(
                lambda d=digest, c=true_count: remote.put(ref_key(d), str(c).encode("ascii"))
            )
            report.repairs += 1
    store._refs = dict(referenced)

    # Pass 1: every local block against its map entry (local is truth).
    # Repairs go through the ordinary upload transaction, which keeps
    # the map/ref mirrors and the remote schema consistent as it goes;
    # obj_hashes tracks the additions so a hash uploaded by an earlier
    # repair is not re-flagged as missing.
    for block in range(total_blocks):
        data = bytes(store.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        local_hash = content_hash(data)
        mapped = store._map.get(block)
        if mapped is None:
            if data.count(0) != len(data):  # not all zero
                report.unmapped_blocks += 1
                report.findings.append(
                    f"block {block}: local content never uploaded"
                )
                _repair_upload(store, report, block, local_hash, obj_hashes)
        elif mapped != local_hash:
            report.stale_maps += 1
            report.findings.append(
                f"block {block}: map names {mapped[:16]} but local holds "
                f"{local_hash[:16]}"
            )
            _repair_upload(store, report, block, local_hash, obj_hashes)
        elif mapped not in obj_hashes:
            report.missing_objects += 1
            report.findings.append(
                f"block {block}: mapped object {mapped[:16]} missing"
            )
            _repair_upload(
                store, report, block, local_hash, obj_hashes, force_blob=True
            )

    # Pass 2: orphan objects (blobs no surviving map entry references).
    # Deleting data needs batch consent.
    live = set(store._map.values())
    current_objs = {
        key[len(OBJ_PREFIX):]
        for key in store.with_retries(lambda: remote.list(OBJ_PREFIX))
    }
    for digest in sorted(current_objs - live):
        report.orphan_objects += 1
        report.findings.append(f"object {digest[:16]}: orphaned (unreferenced)")
        if batch:
            store.with_retries(lambda d=digest: remote.delete(obj_key(d)))
            store.with_retries(lambda d=digest: remote.delete(ref_key(d)))
            report.repairs += 1
        else:
            report.needs_batch += 1

    # Reconciled (as far as consent allowed): seal when fully clean.
    if report.needs_batch == 0 and report.unrepaired == 0 and not store.dirty_blocks():
        store.with_retries(store.write_seal)


def _repair_upload(
    store: TieredStore,
    report: RemoteFsckReport,
    block: int,
    local_hash: str,
    obj_hashes,
    *,
    force_blob: bool = False,
) -> None:
    """Re-upload one local block as a repair (local is the authority)."""
    if store.upload_now(block, force=force_blob):
        report.repairs += 1
        obj_hashes.add(local_hash)
    else:
        report.unrepaired += 1
