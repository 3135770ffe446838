"""On-disk structure serialization: superblock, inodes, directory entries.

All structures are little-endian, fixed-size records so that corruption is
byte-level and detectable: the superblock and every inode carry magic
numbers that ``fsck`` validates, exactly the kind of "consistency checks
present in a production operating system" the paper credits for limiting
crash damage.

Layout version 2 grows the superblock into a proper FFS-style record:

* a ``version`` field and a fixed 256-byte checksummed header, so a torn
  or stale superblock is detectable even when the magic survives;
* a Fletcher-32 checksum over the header (checksum field zeroed during
  the computation);
* cylinder-group-style *region summaries* — one 16-byte record per
  on-disk region (superblock, bitmap, inode table, journal, data,
  backup superblock) — derived from the geometry at serialization time
  and cross-validated against it at parse time.

Deserializers never raise a bare ``struct.error``: every failure mode —
truncation, bad magic, unsupported version, checksum mismatch, impossible
geometry, summary disagreement — raises :class:`CorruptStructure`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.errors import FileSystemError
from repro.fs.types import (
    BLOCK_SIZE,
    FileType,
    MAX_NAME,
    N_DIRECT,
    PTRS_PER_INDIRECT,
    ROOT_INO,
)
from repro.util.checksum import fletcher32

SUPERBLOCK_MAGIC = 0x52494F46  # "RIOF"
#: On-disk layout version.  v1 had an unversioned, unchecksummed
#: superblock; v2 (current) adds the version/checksum header and the
#: region summary table.
ONDISK_VERSION = 2
#: The checksummed span at the start of the superblock's block.
SUPERBLOCK_HEADER_SIZE = 256
#: Byte offset of the checksum field inside the header.
SUPERBLOCK_CHECKSUM_OFFSET = 48
#: Byte offset of the first region summary record.
REGION_SUMMARY_OFFSET = 64
#: Magic of one region summary record ("RG", little-endian).
REGION_SUMMARY_MAGIC = 0x4752
REGION_SUMMARY_SIZE = 16

INODE_MAGIC = 0x494E
INODE_SIZE = 128
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
DIRENT_SIZE = 32
DIRENTS_PER_BLOCK = BLOCK_SIZE // DIRENT_SIZE

# magic, version, header_size, 9 geometry/identity words, clean,
# mount_count, summary_count, pad, checksum, pad to REGION_SUMMARY_OFFSET.
_SB_HEADER_FMT = struct.Struct("<IHH" + "I" * 9 + "BBBB" + "I" + "12x")
_SB_SUMMARY_FMT = struct.Struct("<HBxIII")
_INODE_FMT = struct.Struct("<HBxHxxQQ" + "I" * N_DIRECT + "II")
_DIRENT_FMT = struct.Struct("<IB27s")
_INDIRECT_FMT = struct.Struct(f"<{PTRS_PER_INDIRECT}I")

assert _SB_HEADER_FMT.size == REGION_SUMMARY_OFFSET
assert _SB_SUMMARY_FMT.size == REGION_SUMMARY_SIZE


class CorruptStructure(FileSystemError):
    """A deserialized structure failed its validity checks."""


class RegionKind(enum.IntEnum):
    """What a region summary record describes."""

    SUPER = 1
    BITMAP = 2
    INODE = 3
    JOURNAL = 4
    DATA = 5
    BACKUP = 6


@dataclass
class Superblock:
    """File system geometry and state.  Lives in block 0."""

    total_blocks: int
    bitmap_start: int
    bitmap_blocks: int
    inode_start: int
    inode_blocks: int
    data_start: int
    journal_start: int = 0
    journal_blocks: int = 0
    root_ino: int = ROOT_INO
    clean: bool = True
    mount_count: int = 0

    @property
    def num_inodes(self) -> int:
        return self.inode_blocks * INODES_PER_BLOCK

    def region_summaries(self) -> list[tuple[RegionKind, int, int]]:
        """The (kind, start, blocks) summary records this geometry implies.

        Derived, never stored in the dataclass: serialization writes them
        and deserialization cross-checks them against the geometry words,
        so a corruption that flips one but not the other is detectable.
        """
        regions = [
            (RegionKind.SUPER, 0, 1),
            (RegionKind.BITMAP, self.bitmap_start, self.bitmap_blocks),
            (RegionKind.INODE, self.inode_start, self.inode_blocks),
        ]
        if self.journal_blocks:
            regions.append((RegionKind.JOURNAL, self.journal_start, self.journal_blocks))
        regions.append(
            (RegionKind.DATA, self.data_start, self.total_blocks - 1 - self.data_start)
        )
        regions.append((RegionKind.BACKUP, self.total_blocks - 1, 1))
        return regions

    def to_bytes(self) -> bytes:
        # Field widths are enforced by masking (as Inode does): a
        # fault-corrupted in-core superblock serializes to its on-disk
        # truncation rather than raising a host-level struct error.
        summaries = self.region_summaries()
        header = bytearray(SUPERBLOCK_HEADER_SIZE)
        _SB_HEADER_FMT.pack_into(
            header,
            0,
            SUPERBLOCK_MAGIC,
            ONDISK_VERSION,
            SUPERBLOCK_HEADER_SIZE,
            self.total_blocks & 0xFFFFFFFF,
            self.bitmap_start & 0xFFFFFFFF,
            self.bitmap_blocks & 0xFFFFFFFF,
            self.inode_start & 0xFFFFFFFF,
            self.inode_blocks & 0xFFFFFFFF,
            self.data_start & 0xFFFFFFFF,
            self.journal_start & 0xFFFFFFFF,
            self.journal_blocks & 0xFFFFFFFF,
            self.root_ino & 0xFFFFFFFF,
            1 if self.clean else 0,
            self.mount_count & 0xFF,
            len(summaries),
            0,
            0,  # checksum placeholder
        )
        for index, (kind, start, blocks) in enumerate(summaries):
            _SB_SUMMARY_FMT.pack_into(
                header,
                REGION_SUMMARY_OFFSET + index * REGION_SUMMARY_SIZE,
                REGION_SUMMARY_MAGIC,
                int(kind) & 0xFF,
                start & 0xFFFFFFFF,
                blocks & 0xFFFFFFFF,
                0,
            )
        checksum = fletcher32(bytes(header))
        struct.pack_into("<I", header, SUPERBLOCK_CHECKSUM_OFFSET, checksum)
        return bytes(header) + b"\x00" * (BLOCK_SIZE - SUPERBLOCK_HEADER_SIZE)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Superblock":
        if len(data) < SUPERBLOCK_HEADER_SIZE:
            raise CorruptStructure("superblock truncated")
        (
            magic,
            version,
            header_size,
            total_blocks,
            bitmap_start,
            bitmap_blocks,
            inode_start,
            inode_blocks,
            data_start,
            journal_start,
            journal_blocks,
            root_ino,
            clean,
            mount_count,
            summary_count,
            _pad,
            checksum,
        ) = _SB_HEADER_FMT.unpack_from(data, 0)
        if magic != SUPERBLOCK_MAGIC:
            raise CorruptStructure(f"bad superblock magic {magic:#x}")
        if version != ONDISK_VERSION:
            raise CorruptStructure(f"unsupported layout version {version}")
        if header_size != SUPERBLOCK_HEADER_SIZE:
            raise CorruptStructure(f"bad superblock header size {header_size}")
        zeroed = bytearray(data[:SUPERBLOCK_HEADER_SIZE])
        zeroed[SUPERBLOCK_CHECKSUM_OFFSET : SUPERBLOCK_CHECKSUM_OFFSET + 4] = b"\x00" * 4
        if fletcher32(bytes(zeroed)) != checksum:
            raise CorruptStructure("superblock checksum mismatch (torn or stale write)")
        sb = cls(
            total_blocks=total_blocks,
            bitmap_start=bitmap_start,
            bitmap_blocks=bitmap_blocks,
            inode_start=inode_start,
            inode_blocks=inode_blocks,
            data_start=data_start,
            journal_start=journal_start,
            journal_blocks=journal_blocks,
            root_ino=root_ino,
            clean=bool(clean),
            mount_count=mount_count,
        )
        sb._validate_geometry()
        expected = sb.region_summaries()
        if summary_count != len(expected):
            raise CorruptStructure(
                f"superblock summary count {summary_count} != {len(expected)}"
            )
        for index, (kind, start, blocks) in enumerate(expected):
            record = _SB_SUMMARY_FMT.unpack_from(
                data, REGION_SUMMARY_OFFSET + index * REGION_SUMMARY_SIZE
            )
            if record != (REGION_SUMMARY_MAGIC, int(kind), start, blocks, 0):
                raise CorruptStructure(
                    f"superblock region summary {index} disagrees with geometry"
                )
        return sb

    def _validate_geometry(self) -> None:
        """Raise :class:`CorruptStructure` unless the regions are ordered
        and non-overlapping: super < bitmap < inodes [< journal] < data,
        with the backup superblock in the last block."""
        if not (0 < self.data_start <= self.total_blocks):
            raise CorruptStructure("superblock geometry invalid")
        if self.bitmap_start < 1 or self.bitmap_blocks < 1:
            raise CorruptStructure("superblock bitmap region invalid")
        if self.bitmap_blocks * BLOCK_SIZE * 8 < self.total_blocks:
            raise CorruptStructure("superblock bitmap too small for total blocks")
        if self.inode_start < self.bitmap_start + self.bitmap_blocks:
            raise CorruptStructure("superblock inode region overlaps bitmap")
        if self.inode_blocks < 1:
            raise CorruptStructure("superblock inode region empty")
        metadata_end = self.inode_start + self.inode_blocks
        if self.journal_blocks:
            if self.journal_start < metadata_end:
                raise CorruptStructure("superblock journal region overlaps inodes")
            metadata_end = self.journal_start + self.journal_blocks
        if self.data_start < metadata_end:
            raise CorruptStructure("superblock data region overlaps metadata")
        if not (0 < self.root_ino < self.num_inodes):
            raise CorruptStructure(f"superblock root inode {self.root_ino} out of range")


@dataclass
class Inode:
    """An on-disk inode (128 bytes)."""

    ino: int
    ftype: FileType = FileType.FREE
    nlink: int = 0
    size: int = 0
    mtime_ns: int = 0
    direct: list[int] = field(default_factory=lambda: [0] * N_DIRECT)
    indirect: int = 0
    generation: int = 0

    @property
    def is_allocated(self) -> bool:
        return self.ftype != FileType.FREE

    def to_bytes(self) -> bytes:
        # Field widths are enforced by masking: a fault-corrupted in-core
        # inode (e.g. nlink driven negative) serializes to its on-disk
        # truncation, as real hardware would store it, rather than
        # raising a host-level struct error.
        if len(self.direct) != N_DIRECT:
            raise FileSystemError(
                f"inode {self.ino}: {len(self.direct)} direct pointers"
            )
        return _INODE_FMT.pack(
            INODE_MAGIC,
            int(self.ftype) & 0xFF,
            self.nlink & 0xFFFF,
            self.size & (1 << 64) - 1,
            self.mtime_ns & (1 << 64) - 1,
            *[block & 0xFFFFFFFF for block in self.direct],
            self.indirect & 0xFFFFFFFF,
            self.generation & 0xFFFFFFFF,
        ) + b"\x00" * (INODE_SIZE - _INODE_FMT.size)

    @classmethod
    def from_bytes(cls, ino: int, data: bytes, *, strict: bool = True) -> "Inode":
        if len(data) < _INODE_FMT.size:
            raise CorruptStructure(f"inode {ino} truncated")
        fields = _INODE_FMT.unpack_from(data)
        magic, ftype_raw, nlink, size, mtime = fields[:5]
        direct = list(fields[5 : 5 + N_DIRECT])
        indirect, generation = fields[5 + N_DIRECT :]
        if magic != INODE_MAGIC:
            if strict:
                raise CorruptStructure(f"inode {ino}: bad magic {magic:#x}")
            ftype_raw = FileType.FREE
        ftype = _FILE_TYPES.get(ftype_raw)
        if ftype is None:
            if strict:
                raise CorruptStructure(f"inode {ino}: bad type {ftype_raw}")
            ftype = FileType.FREE
        return cls(
            ino=ino,
            ftype=ftype,
            nlink=nlink,
            size=size,
            mtime_ns=mtime,
            direct=direct,
            indirect=indirect,
            generation=generation,
        )


_FILE_TYPES = {int(t): t for t in FileType}  # raw type byte -> FileType
_INODE_TAG_FMT = struct.Struct(f"<HB{INODE_SIZE - 3}x")  # one slot's magic, type
_LIVE_TYPES = frozenset(int(t) for t in FileType if t is not FileType.FREE)


def allocated_slots(block: bytes | bytearray | memoryview) -> list[bool]:
    """Per inode slot of one inode-table block: would a non-strict decode
    (bad magic or bad type reads as free) find the inode allocated?  The
    mount-time free-inode scan's question, answered a block at a time."""
    return [
        magic == INODE_MAGIC and ftype in _LIVE_TYPES
        for magic, ftype in _INODE_TAG_FMT.iter_unpack(block)
    ]


@dataclass(frozen=True)
class DirEntry:
    """A fixed-size directory record (32 bytes)."""

    ino: int
    name: str

    def to_bytes(self) -> bytes:
        encoded = self.name.encode()
        if not 0 < len(encoded) <= MAX_NAME:
            raise FileSystemError(f"name length {len(encoded)} invalid")
        if b"\x00" in encoded:
            raise FileSystemError("name contains NUL")
        return _DIRENT_FMT.pack(self.ino & 0xFFFFFFFF, len(encoded), encoded)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DirEntry | None":
        """Parse one record; returns None for an empty (ino==0) slot or a
        record too mangled to interpret."""
        if len(data) < DIRENT_SIZE:
            return None
        ino, name_len, raw = _DIRENT_FMT.unpack_from(data)
        if ino == 0:
            return None
        name = _dirent_name(name_len, raw)
        return None if name is None else cls(ino=ino, name=name)


def _dirent_name(name_len: int, raw: bytes) -> str | None:
    """The name held by a non-empty record's ``(name_len, name field)``,
    or None when the record is too mangled to interpret."""
    if name_len == 0 or name_len > MAX_NAME:
        return None
    raw = raw[:name_len]
    if b"\x00" in raw:
        return None
    try:
        return raw.decode()
    except UnicodeDecodeError:
        return None


def _dirent_records(data: bytes | bytearray | memoryview):
    """``(ino, name_len, name field)`` of every whole record in ``data``."""
    whole = len(data) - len(data) % DIRENT_SIZE
    return _DIRENT_FMT.iter_unpack(data if whole == len(data) else data[:whole])


def pack_dirents(entries: list[DirEntry], nblocks: int) -> bytes:
    """Serialize directory entries into ``nblocks`` worth of records."""
    out = bytearray()
    for entry in entries:
        out += entry.to_bytes()
    capacity = nblocks * BLOCK_SIZE
    if len(out) > capacity:
        raise FileSystemError("directory overflow")
    return bytes(out) + b"\x00" * (capacity - len(out))


def parse_dirents(data: bytes) -> list[DirEntry]:
    """Parse every valid record out of directory content bytes."""
    entries = []
    for ino, name_len, raw in _dirent_records(data):
        if ino and (name := _dirent_name(name_len, raw)) is not None:
            entries.append(DirEntry(ino=ino, name=name))
    return entries


def scan_dirents(data: bytes | bytearray | memoryview):
    """Every whole slot of directory content bytes, in order, as
    ``(byte offset, ino word, record)``.  ``record`` is None for an empty
    slot (``ino == 0``) and for one too mangled to interpret — which a
    repairing caller tells apart by the ino word."""
    offset = 0
    for ino, name_len, raw in _dirent_records(data):
        name = _dirent_name(name_len, raw) if ino else None
        yield offset, ino, None if name is None else DirEntry(ino=ino, name=name)
        offset += DIRENT_SIZE


def free_dirent_offset(data: bytes | bytearray | memoryview) -> int | None:
    """Byte offset of the first empty (``ino == 0``) slot in directory
    content bytes, or None when every whole slot is taken."""
    for index, record in enumerate(_dirent_records(data)):
        if record[0] == 0:
            return index * DIRENT_SIZE
    return None


def indirect_pointers(block: bytes | bytearray | memoryview) -> tuple[int, ...]:
    """The block numbers held by one single-indirect block (0 = unmapped)."""
    if len(block) < BLOCK_SIZE:
        raise CorruptStructure("indirect block truncated")
    return _INDIRECT_FMT.unpack_from(block)


def find_dirent(data: bytes, name: str) -> tuple[int, DirEntry] | None:
    """``(byte offset, record)`` of the first valid record named ``name``
    in directory content bytes, or None.

    Compares the encoded name and builds a :class:`DirEntry` only for the
    hit.  A record equal to a well-formed encoded name is itself valid
    (length in range, no NUL, decodable), and a mangled one matches
    nothing, so the outcome is that of parsing every record first.
    """
    want = name.encode()
    size = len(want)
    if not 0 < size <= MAX_NAME or b"\x00" in want:
        return None
    offset = 0
    for ino, name_len, raw in _dirent_records(data):
        if ino and name_len == size and raw[:size] == want:
            return offset, DirEntry(ino=ino, name=name)
        offset += DIRENT_SIZE
    return None
