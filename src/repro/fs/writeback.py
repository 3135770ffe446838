"""Write-back policies: when does data become permanent?

Each policy reproduces one row of Table 2's "Data Permanent" column:

===========================  ==================================================
``rio``                      never written for reliability; memory *is* stable
``ufs_delayed``              data+metadata delayed 0-30 s (the "no-order"
                             optimal system of [Ganger94])
``advfs``                    metadata journaled sequentially, async; data 0-30 s
``ufs``                      data async after 64 KB / non-sequential / 30 s;
                             metadata synchronous (the Digital Unix default)
``wt_close``                 ufs + fsync on every close
``wt_write``                 synchronous data on every write (mount "sync"),
                             fsync on close — the only configuration with
                             reliability guarantees equal to Rio's
===========================  ==================================================

The MFS row of Table 2 is a separate file system (:mod:`repro.fs.mfs`),
not a policy.
"""

from __future__ import annotations

from dataclasses import dataclass


def _emit(fs, op: str, **payload) -> None:
    """Emit a ``wb`` policy-decision event when a recorder is running.

    The per-page flush events come from the cache layer; these record
    *why* a flush happened (threshold, fsync, the 30-second daemon).
    """
    rec = fs.kernel.recorder
    if rec.enabled:
        rec.emit("wb", op, **payload)


def _drain_backend(fs) -> None:
    """Push the tiered store's upload queue at a durability point.

    The flush boundary is the upload boundary: wherever a policy makes
    data locally permanent (sync, fsync, write-through close), the
    remote tier gets the same batch — issued, not awaited: the call
    promises the *local* tier, so a write-back store posts the batch and
    only a write-through one waits.  The drain snapshots the dirty set
    *once* per call — the flushes issued just above may still be
    retiring, and any page re-dirtied while a slow remote drain is in
    flight waits for the *next* durability point instead of extending
    this one unboundedly (see
    :meth:`repro.backend.tiered.TieredStore.drain_uploads`).

    No-op (one attribute read) on systems without a backing store, so
    the classic single-tier stack is byte-for-byte unchanged.
    """
    backing = fs.kernel.backing
    if backing is not None:
        backing.drain_uploads(sync=False)


class WritePolicy:
    """Base policy: every hook is a no-op; subclasses override."""

    name = "base"
    data_permanent = "undefined"
    #: True if metadata updates are written synchronously in place.
    sync_metadata = False

    def on_data_write(self, fs, ino: int, page, offset: int, length: int) -> None:
        """Called after each file-data write lands in the UBC."""

    def on_metadata_pages(self, fs, pages) -> None:
        """Called once per operation with the metadata pages it dirtied,
        in update order."""

    def on_close(self, fs, ino: int) -> None:
        pass

    def on_fsync(self, fs, ino: int) -> None:
        _emit(fs, "fsync", ino=ino)
        fs.flush_file(ino, sync=True)
        fs.flush_metadata(sync=True)
        _drain_backend(fs)

    def on_sync(self, fs) -> None:
        _emit(fs, "sync", policy=self.name)
        fs.flush_data(sync=False)
        fs.flush_metadata(sync=False)
        _drain_backend(fs)

    def periodic(self, fs) -> None:
        """The 30-second update daemon."""


class RioPolicy(WritePolicy):
    """No reliability-induced writes at all (section 2.3): files in memory
    are as permanent as files on disk, so sync and fsync return
    immediately and nothing is flushed — disk writes happen only when a
    cache overflows."""

    name = "rio"
    data_permanent = "after write, synchronous (memory is stable)"

    def on_fsync(self, fs, ino: int) -> None:
        return  # "we modify sync and fsync calls to return immediately"

    def on_sync(self, fs) -> None:
        return


@dataclass
class _FileStream:
    accumulated: int = 0
    last_end: int | None = None


class UFSDefaultPolicy(WritePolicy):
    """Digital Unix UFS: asynchronous data after 64 KB is collected, on a
    non-sequential write, or at the 30-second update; synchronous metadata
    "to enforce ordering constraints" [Ganger94]."""

    name = "ufs"
    data_permanent = "data: after 64 KB, asynchronous; metadata: synchronous"
    sync_metadata = True
    ASYNC_THRESHOLD = 64 * 1024
    #: FFS orders crash-critical metadata (inodes, directories, indirect
    #: blocks) with synchronous writes; free-map updates may be delayed.
    SYNC_CLASSES = frozenset({"inode", "dir", "indirect", "super"})

    def __init__(self) -> None:
        self._streams: dict[int, _FileStream] = {}

    def on_data_write(self, fs, ino: int, page, offset: int, length: int) -> None:
        stream = self._streams.setdefault(ino, _FileStream())
        sequential = stream.last_end is None or offset == stream.last_end
        stream.last_end = offset + length
        stream.accumulated += length
        if stream.accumulated >= self.ASYNC_THRESHOLD or not sequential:
            _emit(
                fs, "async-flush",
                ino=ino,
                reason="threshold" if sequential else "non-sequential",
            )
            fs.flush_file(ino, sync=False)
            stream.accumulated = 0

    def on_metadata_pages(self, fs, pages) -> None:
        for page in pages:
            fs.flush_meta_page(page, sync=page.meta_class in self.SYNC_CLASSES)

    def on_close(self, fs, ino: int) -> None:
        self._streams.pop(ino, None)

    def periodic(self, fs) -> None:
        _emit(fs, "periodic", policy=self.name)
        fs.flush_data(sync=False)


class DelayedPolicy(WritePolicy):
    """The enhanced "no-order" UFS: *all* data and metadata delayed until
    the next update run — fastest disk-based option, but "risks losing 30
    seconds of both data and metadata"."""

    name = "ufs_delayed"
    data_permanent = "after 0-30 seconds, asynchronous"

    def periodic(self, fs) -> None:
        _emit(fs, "periodic", policy=self.name)
        fs.flush_data(sync=False)
        fs.flush_metadata(sync=False)


class WriteThroughOnClosePolicy(UFSDefaultPolicy):
    """UFS plus an fsync on every close: data permanent at close time."""

    name = "wt_close"
    data_permanent = "after close, synchronous"

    def on_close(self, fs, ino: int) -> None:
        fs.flush_file(ino, sync=True)
        fs.flush_metadata(sync=True)
        _drain_backend(fs)
        super().on_close(fs, ino)


class WriteThroughOnWritePolicy(UFSDefaultPolicy):
    """Mount option "sync": every write is synchronous.  The only
    disk-based configuration whose reliability matches Rio's."""

    name = "wt_write"
    data_permanent = "after write, synchronous"

    def on_data_write(self, fs, ino: int, page, offset: int, length: int) -> None:
        fs.flush_page_sync(page)

    def on_close(self, fs, ino: int) -> None:
        fs.flush_file(ino, sync=True)
        fs.flush_metadata(sync=True)
        _drain_backend(fs)
        super().on_close(fs, ino)


class AdvFSPolicy(WritePolicy):
    """Journalling: metadata updates appended sequentially to an on-disk
    log (cheap positioning), applied in place at checkpoints; data delayed
    like the no-order system."""

    name = "advfs"
    data_permanent = "after 0-30 seconds, asynchronous (metadata logged)"

    def on_metadata_pages(self, fs, pages) -> None:
        for page in pages:
            fs.journal_metadata(page)

    def on_fsync(self, fs, ino: int) -> None:
        _emit(fs, "fsync", ino=ino)
        fs.flush_file(ino, sync=True)
        fs.journal_commit()
        _drain_backend(fs)

    def periodic(self, fs) -> None:
        _emit(fs, "periodic", policy=self.name)
        fs.flush_data(sync=False)
        fs.journal_checkpoint()


WRITE_POLICIES = {
    policy.name: policy
    for policy in (
        RioPolicy,
        UFSDefaultPolicy,
        DelayedPolicy,
        WriteThroughOnClosePolicy,
        WriteThroughOnWritePolicy,
        AdvFSPolicy,
    )
}


def make_policy(name: str) -> WritePolicy:
    """Instantiate a policy by its Table 2 name."""
    if name not in WRITE_POLICIES:
        raise KeyError(f"unknown write policy {name!r}; know {sorted(WRITE_POLICIES)}")
    return WRITE_POLICIES[name]()
