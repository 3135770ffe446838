"""AdvFS: the journalling file system of Table 2.

"AdvFS is a journalling file system that reduces the penalty of metadata
updates by writing metadata sequentially to a log."  Metadata updates are
appended as *extent records* (the changed byte range of the changed
block, as real journals log deltas rather than whole blocks) to an
on-disk journal — cheap, sequential, asynchronous.  The in-place copies
are written only at checkpoints.  After a crash, replaying the journal
brings the metadata up to date, then fsck verifies the result.

Journal layout (inside the region the superblock reserves):

* block ``journal_start``: the journal header — magic and current epoch;
* after it: records, each a 512-byte header (magic, epoch, sequence,
  target block, byte offset, length, payload checksum) followed by a
  sector-padded payload.

A checkpoint writes all dirty metadata in place, bumps the epoch and
resets the head; recovery applies only records of the current epoch, in
sequence order, stopping at the first invalid (e.g. torn) record.
"""

from __future__ import annotations

import struct

from repro.errors import ConfigurationError
from repro.fs.cache import CachePage
from repro.fs.ondisk import Superblock, CorruptStructure
from repro.fs.types import BLOCK_SIZE, SECTORS_PER_BLOCK
from repro.fs.ufs import UFS
from repro.fs.writeback import AdvFSPolicy
from repro.util.checksum import fletcher32

JOURNAL_HEADER_MAGIC = 0x414C4F47  # "ALOG"
RECORD_MAGIC = 0x4A524543  # "JREC"
_HEADER_FMT = struct.Struct("<IIQ")  # magic, epoch, committed_seq
_RECORD_FMT = struct.Struct("<IIQIIII")
# magic, epoch, seq, block_no, offset, length, checksum
SECTOR = 512


def _record_sectors(length: int) -> int:
    """Header sector plus sector-padded payload."""
    return 1 + -(-length // SECTOR)


class AdvFS(UFS):
    """UFS with journaled metadata."""

    def __init__(self, kernel, dev: int, policy=None) -> None:
        super().__init__(kernel, dev, policy or AdvFSPolicy())
        self._epoch = 1
        self._seq = 0
        self._cursor_sector = 0  # relative to the record area

    # -- geometry -----------------------------------------------------------

    def _record_area_start(self) -> int:
        return (self.sb.journal_start + 1) * SECTORS_PER_BLOCK

    def _record_area_sectors(self) -> int:
        return (self.sb.journal_blocks - 1) * SECTORS_PER_BLOCK

    # -- mount ---------------------------------------------------------------

    def mount(self) -> None:
        super().mount()
        if not self.sb.journal_blocks:
            raise ConfigurationError("AdvFS requires a journal region (journal_blocks > 0)")
        header = self.disk.peek(self.sb.journal_start * SECTORS_PER_BLOCK, 1)
        magic, epoch, _seq = _HEADER_FMT.unpack(header[: _HEADER_FMT.size])
        self._epoch = (epoch + 1) if magic == JOURNAL_HEADER_MAGIC else 1
        self._seq = 0
        self._cursor_sector = 0
        self._write_journal_header(sync=True)

    def _write_journal_header(self, *, sync: bool) -> None:
        header = _HEADER_FMT.pack(JOURNAL_HEADER_MAGIC, self._epoch, self._seq)
        self.disk.write(
            self.sb.journal_start * SECTORS_PER_BLOCK,
            header + b"\x00" * (BLOCK_SIZE - len(header)),
            sync=sync,
        )

    # -- journaling (called by AdvFSPolicy) ----------------------------------------

    def journal_metadata(self, page: CachePage) -> None:
        """Append this page's recent extents to the log (asynchronously)."""
        if page.disk_block is None:
            raise ConfigurationError("journaling a page with no disk placement")
        extents = page.journal_extents or [(0, BLOCK_SIZE)]
        page.journal_extents = []
        # Coalesce into one covering extent per page per operation — the
        # logical-record granularity of a real journal.
        start = min(off for off, _ in extents)
        end = max(off + length for off, length in extents)
        length = end - start
        if self._cursor_sector + _record_sectors(length) > self._record_area_sectors():
            self.journal_checkpoint()
        payload = self.kernel.memory.read(
            page.pfn * BLOCK_SIZE + start, length
        )
        self._seq += 1
        header = _RECORD_FMT.pack(
            RECORD_MAGIC,
            self._epoch,
            self._seq,
            page.disk_block,
            start,
            length,
            fletcher32(payload),
        )
        padded = payload + b"\x00" * (-len(payload) % SECTOR)
        record = header + b"\x00" * (SECTOR - _RECORD_FMT.size) + padded
        self.disk.write(
            self._record_area_start() + self._cursor_sector, record, sync=False
        )
        self._cursor_sector += _record_sectors(length)

    def journal_commit(self) -> None:
        """Force the log to disk (fsync semantics for metadata)."""
        self.disk.drain()

    def journal_checkpoint(self) -> None:
        """Write dirty metadata in place and truncate the log."""
        self.flush_metadata(sync=False)
        self._epoch += 1
        self._seq = 0
        self._cursor_sector = 0
        self._write_journal_header(sync=False)


def advfs_recover(disk) -> int:
    """Post-crash journal replay (offline; run before fsck).

    Returns the number of records applied.
    """
    try:
        sb = Superblock.from_bytes(disk.peek(0, SECTORS_PER_BLOCK))
    except CorruptStructure:
        return 0  # fsck will deal with the superblock first
    if not sb.journal_blocks:
        return 0
    header = disk.peek(sb.journal_start * SECTORS_PER_BLOCK, 1)
    magic, epoch, _ = _HEADER_FMT.unpack(header[: _HEADER_FMT.size])
    if magic != JOURNAL_HEADER_MAGIC:
        return 0
    area_start = (sb.journal_start + 1) * SECTORS_PER_BLOCK
    area_sectors = (sb.journal_blocks - 1) * SECTORS_PER_BLOCK
    applied = 0
    expected_seq = 1
    cursor = 0
    while cursor + 1 <= area_sectors:
        raw_header = disk.peek(area_start + cursor, 1)
        fields = _RECORD_FMT.unpack(raw_header[: _RECORD_FMT.size])
        rec_magic, rec_epoch, seq, block_no, offset, length, checksum = fields
        if (
            rec_magic != RECORD_MAGIC
            or rec_epoch != epoch
            or seq != expected_seq
            or length == 0
            or length > BLOCK_SIZE
            or offset + length > BLOCK_SIZE
            or not 0 <= block_no < sb.total_blocks
        ):
            break  # end of valid log
        payload_sectors = -(-length // SECTOR)
        if cursor + 1 + payload_sectors > area_sectors:
            break
        payload = disk.peek(area_start + cursor + 1, payload_sectors)[:length]
        if fletcher32(payload) != checksum:
            break  # torn record: the log ends here
        block = bytearray(disk.peek(block_no * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        block[offset : offset + length] = payload
        disk.poke(block_no * SECTORS_PER_BLOCK, bytes(block))
        applied += 1
        expected_seq += 1
        cursor += 1 + payload_sectors
    return applied
