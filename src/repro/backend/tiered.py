"""The tiered store: local disk as a write-back cache for an object store.

s3ql's ``block_cache`` translated into this repo's vocabulary.  The
local simulated disk stays the first persistence tier and the
authority; behind it sits a :class:`~repro.backend.common.LocalBackend`
holding one immutable blob per distinct block *content*:

* ``obj/<sha256>`` — the 8 KiB block payload, stored once per distinct
  content (dedup-by-content-hash);
* ``map/<block>`` — which content hash block number ``<block>``
  currently holds (the commit point of an upload);
* ``ref/<sha256>`` — how many map entries reference the blob (refcount;
  a blob is deleted when its count reaches zero);
* ``seal`` — a digest pair binding the local image to the remote map,
  written only when the store is fully drained and reconciled.  A valid
  seal is ``repro fsck-remote``'s fast path; any later upload or local
  write invalidates it by construction (the digests stop matching).

**The dirty queue.**  Every writeback flush of a local block calls
:meth:`note_flush`, which appends the block to an ordered dirty set.
When the set reaches ``dirty_threshold`` — or a durability point
(sync/fsync/close under a write-through policy) drains explicitly —
:meth:`drain_uploads` uploads the dirty blocks to the remote tier.

**An ack never waits for an upload.**  On a write-back store
(``dirty_threshold > 1``) those two drains *post* their batch
(``sync=False``): every request of the upload transaction is issued on
the object-store link in order and the CPU goes back to work while the
link carries them (see :mod:`repro.backend.common`).  One batch is in
flight while the next accumulates — a posting drain first waits for
the previous one to land, the only back-pressure there is.  A
write-through store, every explicit ``drain_uploads()`` and every
``fsck_remote`` repair wait request by request.

**The snapshot-once invariant.**  A drain snapshots the dirty set
*once* and uploads exactly that batch.  Blocks re-dirtied while a slow
(possibly remote) drain is in flight are *not* appended to the running
batch — they wait for the next drain — so a writer racing a drain can
never extend it unboundedly.  The re-entrancy guard makes nested
threshold triggers (a flush issued *by* the drain's own machinery)
no-ops.

**Crash semantics.**  The dirty queue, the map/refcount mirrors, and
the read-ahead buffer are ordinary kernel memory: a machine crash
(:meth:`on_machine_crash`) discards them all, and posted writes that
had not landed at the crash instant never happened — the remote tier
holds a prefix of the issued request stream.  Recovery rebuilds the
mirrors from a remote listing and re-reconciles remote against the
local disk (:func:`repro.backend.fsck_remote.fsck_remote`) — the local
tier is always the recovery authority, so a crash between the
``backend/upload`` and ``backend/commit`` boundaries at worst strands
an orphan blob for fsck-remote to sweep.

Each upload emits two flight-recorder boundary events *before* the
remote state they announce changes — ``backend/upload`` before the
blob put, ``backend/commit`` before the map flip — so ``repro
explore`` enumerates and crashes inside every upload transaction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from heapq import nsmallest
from typing import Dict, List, Optional

from repro.backend.common import BackendOutage, LocalBackend, TransientBackendError
from repro.fs.types import BLOCK_SIZE, SECTORS_PER_BLOCK

#: Key namespaces of the remote schema (see module docstring).
OBJ_PREFIX = "obj/"
MAP_PREFIX = "map/"
REF_PREFIX = "ref/"
SEAL_KEY = "seal"


def obj_key(content_hash: str) -> str:
    """Remote key of the blob holding content ``content_hash``."""
    return OBJ_PREFIX + content_hash


def map_key(block: int) -> str:
    """Remote key of block ``block``'s map entry."""
    return f"{MAP_PREFIX}{block:08d}"


def ref_key(content_hash: str) -> str:
    """Remote key of the refcount for content ``content_hash``."""
    return REF_PREFIX + content_hash


def block_of_map_key(key: str) -> int:
    """Inverse of :func:`map_key`."""
    return int(key[len(MAP_PREFIX):])


def content_hash(data: bytes) -> str:
    """The dedup identity of one block payload."""
    return hashlib.sha256(data).hexdigest()


#: Retries per upload on :class:`TransientBackendError` before the block
#: is deferred to the next drain.
MAX_RETRIES = 3
#: Virtual-time backoff charged per retry (doubles per attempt).
RETRY_BACKOFF_NS = 1_000_000


@dataclass(frozen=True)
class TieredConfig:
    """Write-back policy of one tiered store."""

    #: Dirty blocks accumulated before a drain triggers automatically.
    #: 1 makes the store write-through (every flush uploads immediately).
    dirty_threshold: int = 8
    #: Blocks prefetched after each remote read (0 disables read-ahead).
    readahead: int = 2


@dataclass
class TieredStats:
    """What the tiered store did (observability and benchmarks)."""

    uploads: int = 0
    bytes_uploaded: int = 0
    #: Uploads whose blob already existed remotely (content dedup).
    dedup_hits: int = 0
    #: Uploads skipped because the mapped content was already current.
    unchanged_skips: int = 0
    retries: int = 0
    #: Uploads deferred to a later drain because the store was down.
    outage_deferrals: int = 0
    drains: int = 0
    remote_reads: int = 0
    readahead_fills: int = 0
    readahead_hits: int = 0

    def to_json_dict(self) -> Dict[str, int]:
        """JSON-safe counter summary for reports and digests."""
        return dict(self.__dict__)


class TieredStore:
    """Local disk in front, deduplicating object store behind.

    The store is passive until wired: :meth:`note_flush` is called from
    the writeback flush boundary (see :mod:`repro.fs.cache`), drains
    are triggered by thresholds and the policy-level durability hooks
    (see :mod:`repro.fs.writeback`), and recovery reconciliation runs
    from :meth:`repro.system.System.reboot`.
    """

    def __init__(
        self,
        disk,
        remote: LocalBackend,
        *,
        clock=None,
        config: Optional[TieredConfig] = None,
    ) -> None:
        self.disk = disk
        self.remote = remote
        self.clock = clock
        self.config = config or TieredConfig()
        #: Flight recorder for upload/commit boundary events; installed
        #: once by the owning system (the recorder survives machine
        #: resets, so this never needs re-pointing).
        self.recorder = None
        self.stats = TieredStats()
        # Ordered dirty set (dict for insertion order + O(1) membership).
        self._dirty: Dict[int, None] = {}
        self._draining = False
        # In-memory mirrors of the remote map/refcount schema.  These
        # live in kernel memory: a machine crash invalidates them and
        # recovery rebuilds them from a remote listing.
        self._map: Dict[int, str] = {}
        self._refs: Dict[str, int] = {}
        # A fresh store starts empty on both sides: mirror is valid.
        self._mirror_valid = True
        # Single-use read-ahead buffer: block -> payload.
        self._readahead: Dict[int, bytes] = {}

    # -- wiring ---------------------------------------------------------

    def attach(self, clock) -> None:
        """Point the store (and its backend) at the machine clock."""
        self.clock = clock
        self.remote.attach(clock)

    def on_machine_crash(self, crash_ns: int) -> None:
        """The machine died at ``crash_ns``: every in-memory structure
        here dies with it.

        The dirty queue, the map/refcount mirrors, and the read-ahead
        buffer are ordinary kernel heap — none of it survives a crash.
        The remote tier keeps whatever writes had landed by the crash
        instant (posted ones still on the link are severed); reconciling
        it against the surviving local disk is recovery's job
        (:func:`repro.backend.fsck_remote.fsck_remote`).
        """
        self.remote.sever(crash_ns)
        self._dirty.clear()
        self._readahead.clear()
        self._map.clear()
        self._refs.clear()
        self._mirror_valid = False
        self._draining = False

    def _ensure_mirror(self) -> None:
        """Rebuild the map/refcount mirrors from a remote listing."""
        if self._mirror_valid:
            return
        remote = self.remote
        new_map: Dict[int, str] = {}
        new_refs: Dict[str, int] = {}
        for key in remote.list(MAP_PREFIX):
            new_map[block_of_map_key(key)] = remote.get(key).decode("ascii")
        for key in remote.list(REF_PREFIX):
            new_refs[key[len(REF_PREFIX):]] = int(remote.get(key).decode("ascii"))
        self._map = new_map
        self._refs = new_refs
        self._mirror_valid = True

    # -- the write path -------------------------------------------------

    def note_flush(self, block: int) -> None:
        """A local flush of ``block`` just hit the disk queue.

        Appends the block to the ordered dirty set (re-flushing moves
        it to the tail: last write wins, upload order follows flush
        order) and triggers a drain at the threshold.
        """
        self._readahead.pop(block, None)
        self._dirty.pop(block, None)
        self._dirty[block] = None
        if (
            not self._draining
            and len(self._dirty) >= self.config.dirty_threshold
        ):
            self.drain_uploads(sync=False)

    def drain_uploads(self, *, sync: bool = True) -> bool:
        """Upload every *currently* dirty block, in flush order.

        The dirty set is snapshotted **once**; blocks re-dirtied while
        the drain is in flight wait for the next drain (see the module
        docstring for why).  Returns True when the batch fully
        committed; False when an outage deferred part of it (the
        deferred blocks stay dirty).

        ``sync=False`` (the threshold and the policy durability points)
        posts the batch on a write-back store — committed then means
        issued — after waiting out the previous posted batch; a
        write-through store waits for every request regardless.

        A drain never writes the seal: an empty queue only means this
        store uploaded everything *it* was told about, not that the
        remote mirrors the whole local image (blocks written before the
        store was installed — mkfs — never pass through
        :meth:`note_flush`).  Only ``fsck_remote``'s full clean scan
        may make that claim.
        """
        if self._draining:
            return False
        self._draining = True
        self.stats.drains += 1
        sync = sync or self.config.dirty_threshold <= 1
        try:
            if not sync:
                self.remote.drain()  # one posted batch in flight, no more
            batch = list(self._dirty)  # the one and only snapshot
            for block in batch:
                if not self._upload_block(block, sync):
                    return False
            return True
        finally:
            self._draining = False

    def _upload_block(self, block: int, sync: bool) -> bool:
        """Drain one block: pop it from the dirty set, then upload.

        Popping first means a concurrent re-dirty re-queues the block
        for the *next* drain instead of racing this one.  An outage
        re-queues it too (at the tail) and stops the drain.
        """
        self._dirty.pop(block, None)
        if self.upload_now(block, sync=sync):
            return True
        self._dirty[block] = None
        return False

    def upload_now(
        self, block: int, *, force: bool = False, sync: bool = True
    ) -> bool:
        """Upload ``block``'s current local content to the remote tier.

        The upload transaction, in order: the ``backend/upload``
        boundary event, the blob put (skipped on a dedup hit), the
        ``backend/commit`` boundary event, the map flip, then the
        refcount adjustments.  A crash between upload and commit
        strands at worst an orphan blob; a crash after the map flip but
        before the refcount writes leaves refcount drift — both are
        exactly the findings ``repro fsck-remote`` repairs.

        Transient failures retry with clock-charged backoff; an outage
        (or an exhausted retry budget) returns False and the caller
        keeps the block dirty.  ``force`` re-puts the blob even when
        the map already holds the current hash (fsck's missing-object
        repair); ``sync=False`` posts the transaction's writes.
        """
        data = self.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
        digest = content_hash(data)
        old = self._map.get(block)
        if old == digest and not force:
            self.stats.unchanged_skips += 1
            return True
        try:
            fresh_blob = self._commit_with_retries(
                block, digest, data, old, force, sync
            )
        except BackendOutage:
            self.stats.outage_deferrals += 1
            return False
        self.stats.uploads += 1
        self.stats.bytes_uploaded += len(data)
        if not fresh_blob:
            self.stats.dedup_hits += 1
        return True

    def _commit_with_retries(
        self, block: int, digest: str, data: bytes, old: Optional[str],
        force: bool, sync: bool,
    ) -> bool:
        """Retry loop around one upload transaction.

        The transaction is idempotent (absolute refcount values are
        recomputed from the unchanged mirror), so a retry after a
        partial failure simply re-issues the same puts.  Retry budget
        exhausted degrades to an outage: defer, never drop.
        """
        attempts = 0
        while True:
            try:
                return self._commit_once(block, digest, data, old, force, sync)
            except BackendOutage:
                raise
            except TransientBackendError:
                attempts += 1
                self.stats.retries += 1
                if attempts > MAX_RETRIES:
                    raise BackendOutage(
                        f"upload of block {block} exhausted {MAX_RETRIES} retries"
                    )
                if self.clock is not None:
                    self.clock.consume(RETRY_BACKOFF_NS << (attempts - 1))

    def _commit_once(
        self, block: int, digest: str, data: bytes, old: Optional[str],
        force: bool, sync: bool,
    ) -> bool:
        """One attempt at the upload transaction; returns blob freshness.

        Boundary events are emitted *before* the remote writes they
        announce, mirroring the store/flush boundary discipline — an
        armed crash at the event sequence number dies with the remote
        untouched by this attempt's writes.  The writes are waited for
        or posted as one (``sync``); posted, the link's FIFO order is
        what keeps blob -> map -> refs in transaction order.
        """
        put, delete = self.remote.put, self.remote.delete
        if not sync:
            put, delete = partial(put, sync=False), partial(delete, sync=False)
        refs = self._refs
        fresh_blob = refs.get(digest, 0) == 0
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit(
                "backend", "upload",
                block=block, content=digest[:16], bytes=len(data),
            )
        if fresh_blob or force:
            put(obj_key(digest), data)
        if rec is not None and rec.enabled:
            rec.emit("backend", "commit", block=block, content=digest[:16])
        put(map_key(block), digest.encode("ascii"))
        if old != digest:
            put(ref_key(digest), str(refs.get(digest, 0) + 1).encode("ascii"))
            old_count = refs.get(old, 1) - 1 if old is not None else 0
            if old is not None:
                if old_count <= 0:
                    delete(obj_key(old))
                    delete(ref_key(old))
                else:
                    put(ref_key(old), str(old_count).encode("ascii"))
            # Every remote write was issued: fold the result into the mirror.
            refs[digest] = refs.get(digest, 0) + 1
            if old is not None:
                if old_count <= 0:
                    refs.pop(old, None)
                else:
                    refs[old] = old_count
        self._map[block] = digest
        return fresh_blob

    # -- the read path --------------------------------------------------

    def get_block(self, block: int) -> Optional[bytes]:
        """Read one block from the remote tier (None when unmapped).

        Sequential read-ahead: a remote read prefetches the next
        ``readahead`` mapped blocks into a single-use buffer, so a
        linear scan pays one latency round-trip per window instead of
        per block.
        """
        self._ensure_mirror()
        cached = self._readahead.pop(block, None)
        if cached is not None:
            self.stats.readahead_hits += 1
            return cached
        digest = self._map.get(block)
        if digest is None:
            return None
        data = self.remote.get(obj_key(digest))
        self.stats.remote_reads += 1
        window = self.config.readahead
        if window:
            for nxt in nsmallest(window, (b for b in self._map if b > block)):
                if nxt not in self._readahead:
                    self._readahead[nxt] = self.remote.get(
                        obj_key(self._map[nxt])
                    )
                    self.stats.readahead_fills += 1
        return data

    def materialize(self) -> bytes:
        """The full device image, reconstructed from the remote tier alone.

        Unmapped blocks come back as zeros — a block with no map entry
        either was never flushed or holds all-zero content fsck-remote
        chose not to map, so zeros reconstruct it exactly.  This
        is the remote-recovery audit's raw material: if the image
        mounts and replays every acknowledged op, the remote tier alone
        is sufficient to honor the promise ledger.
        """
        self._ensure_mirror()
        total_blocks = self.disk.num_sectors // SECTORS_PER_BLOCK
        image = bytearray(total_blocks * BLOCK_SIZE)
        for block in range(total_blocks):
            data = self.get_block(block)
            if data is not None:
                image[block * BLOCK_SIZE:(block + 1) * BLOCK_SIZE] = data
        return bytes(image)

    # -- the seal -------------------------------------------------------

    def local_image_sha256(self) -> str:
        """Digest of the entire local device (the seal's local half)."""
        return hashlib.sha256(
            bytes(self.disk.peek(0, self.disk.num_sectors))
        ).hexdigest()

    def map_digest(self) -> str:
        """Digest of the remote block map (the seal's remote half)."""
        self._ensure_mirror()
        h = hashlib.sha256()
        for block in sorted(self._map):
            h.update(f"{block}:{self._map[block]}\n".encode("ascii"))
        return h.hexdigest()

    def seal_payload(self) -> bytes:
        """The canonical seal blob for the current local+remote state."""
        return (
            f"image:{self.local_image_sha256()}\n"
            f"maps:{self.map_digest()}\n"
        ).encode("ascii")

    def write_seal(self) -> bool:
        """Record that local and remote are reconciled (fsck fast path).

        Refuses while blocks are dirty; returns False (never raises) on
        a transient failure or outage — a missing seal only costs the
        next fsck-remote a full scan.
        """
        if self._dirty:
            return False
        try:
            self.remote.put(SEAL_KEY, self.seal_payload())
        except TransientBackendError:
            return False
        return True

    def read_seal(self) -> Optional[bytes]:
        """The stored seal blob, or None when absent."""
        try:
            return self.remote.get(SEAL_KEY)
        except KeyError:
            return None

    # -- observability --------------------------------------------------

    def dirty_blocks(self) -> List[int]:
        """The dirty queue, in flush order (observability)."""
        return list(self._dirty)

    def mapped_blocks(self) -> List[int]:
        """Every block with a remote map entry, sorted."""
        self._ensure_mirror()
        return sorted(self._map)
