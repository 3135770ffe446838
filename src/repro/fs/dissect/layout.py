"""The RIOF on-disk layout, declared independently for the verifier.

This module is the dissect layer's *own statement* of the documented
layout (docs/API.md, DESIGN.md "on-disk layout v2"): every constant and
record definition here is re-derived from the format specification, not
imported from ``repro.fs.ondisk``.  If the kernel-side serializers drift
from the documented layout — the shared-bug blind spot an independent
verifier exists to close — the two disagree and the disagreement is
observable, instead of both sides silently agreeing on the same bug.

Layout summary (all little-endian, 8 KB blocks of 16 512-byte sectors):

    block 0                superblock (256-byte checksummed header)
    bitmap_start ..        block allocation bitmap, 1 bit per block
    inode_start ..         inode table, 128-byte slots
    [journal_start ..]     AdvFS journal (optional)
    data_start ..          file/directory data + single-indirect blocks
    total_blocks - 1       backup superblock
"""

from __future__ import annotations

from repro.fs.dissect.cstructs import CStruct

BLOCK_SIZE = 8192
SECTOR_SIZE = 512
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE

SUPERBLOCK_MAGIC = 0x52494F46  # "RIOF"
ONDISK_VERSION = 2
SUPERBLOCK_HEADER_SIZE = 256
SUPERBLOCK_CHECKSUM_OFFSET = 48
REGION_SUMMARY_OFFSET = 64
REGION_SUMMARY_MAGIC = 0x4752  # "RG"
REGION_SUMMARY_SIZE = 16

INODE_MAGIC = 0x494E  # "NI" on disk ("IN" little-endian)
INODE_SIZE = 128
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
N_DIRECT = 12
PTRS_PER_INDIRECT = BLOCK_SIZE // 4
MAX_FILE_BLOCKS = N_DIRECT + PTRS_PER_INDIRECT

DIRENT_SIZE = 32
DIRENTS_PER_BLOCK = BLOCK_SIZE // DIRENT_SIZE
MAX_NAME = 27

ROOT_INO = 2

#: Inode type codes (the verifier's own copy of the FileType enum).
FTYPE_FREE = 0
FTYPE_REGULAR = 1
FTYPE_DIRECTORY = 2
FTYPE_SYMLINK = 3
FTYPE_NAMES = {
    FTYPE_FREE: "free",
    FTYPE_REGULAR: "regular",
    FTYPE_DIRECTORY: "directory",
    FTYPE_SYMLINK: "symlink",
}

#: Region summary ``kind`` codes.
REGION_SUPER = 1
REGION_BITMAP = 2
REGION_INODE = 3
REGION_JOURNAL = 4
REGION_DATA = 5
REGION_BACKUP = 6
REGION_NAMES = {
    REGION_SUPER: "super",
    REGION_BITMAP: "bitmap",
    REGION_INODE: "inode",
    REGION_JOURNAL: "journal",
    REGION_DATA: "data",
    REGION_BACKUP: "backup",
}

SUPERBLOCK = CStruct(
    "superblock",
    """
    uint32 magic;
    uint16 version;
    uint16 header_size;
    uint32 total_blocks;
    uint32 bitmap_start;
    uint32 bitmap_blocks;
    uint32 inode_start;
    uint32 inode_blocks;
    uint32 data_start;
    uint32 journal_start;
    uint32 journal_blocks;
    uint32 root_ino;
    uint8  clean;
    uint8  mount_count;
    uint8  summary_count;
    uint8  pad0;
    uint32 checksum;
    char   pad1[12];
    """,
)

REGION_SUMMARY = CStruct(
    "region_summary",
    """
    uint16 magic;
    uint8  kind;
    char   pad0[1];
    uint32 start;
    uint32 blocks;
    uint32 reserved;
    """,
)

INODE = CStruct(
    "inode",
    """
    uint16 magic;
    uint8  ftype;
    char   pad0[1];
    uint16 nlink;
    char   pad1[2];
    uint64 size;
    uint64 mtime_ns;
    uint32 direct[12];
    uint32 indirect;
    uint32 generation;
    """,
)

DIRENT = CStruct(
    "dirent",
    """
    uint32 ino;
    uint8  name_len;
    char   name[27];
    """,
)

#: A single-indirect block: one array of block pointers, 0 = unmapped.
INDIRECT = CStruct("indirect", f"uint32 ptr[{PTRS_PER_INDIRECT}];")

assert SUPERBLOCK.size == REGION_SUMMARY_OFFSET
assert REGION_SUMMARY.size == REGION_SUMMARY_SIZE
assert INODE.size == 80 and INODE.size <= INODE_SIZE
assert DIRENT.size == DIRENT_SIZE
assert INDIRECT.size == BLOCK_SIZE


def fletcher32(data: bytes) -> int:
    """The verifier's own Fletcher-32 (16-bit words, zero-padded tail).

    Deliberately re-implemented rather than imported from
    ``repro.util.checksum``: the checksum is part of the on-disk format,
    so the verifier must compute it from the format's definition.
    """
    if len(data) % 2:
        data = data + b"\x00"
    sum1 = 0xFFFF
    sum2 = 0xFFFF
    words = len(data) // 2
    index = 0
    while index < words:
        block_end = min(index + 359, words)
        while index < block_end:
            sum1 += data[2 * index] | (data[2 * index + 1] << 8)
            sum2 += sum1
            index += 1
        sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
        sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
    sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    return (sum2 << 16) | sum1


def superblock_checksum(header: bytes) -> int:
    """The expected checksum of a 256-byte superblock header."""
    zeroed = bytearray(header[:SUPERBLOCK_HEADER_SIZE])
    zeroed[SUPERBLOCK_CHECKSUM_OFFSET : SUPERBLOCK_CHECKSUM_OFFSET + 4] = b"\x00" * 4
    return fletcher32(bytes(zeroed))
