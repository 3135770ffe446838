"""Shared file system constants and small value types."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.disk.model import SECTOR_SIZE

#: File system block size — one block per 8 KB file-cache page, as in the
#: paper ("40 bytes of information are needed for each 8 KB file cache page").
BLOCK_SIZE = 8192

#: Disk sectors per file system block.
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE

#: Inode number of the root directory (inode 0 is reserved/invalid,
#: inode 1 is the lost+found anchor by convention).
ROOT_INO = 2

#: Maximum file name length (fixed-size directory records).
MAX_NAME = 27

#: Direct block pointers per inode; one single-indirect block extends this.
N_DIRECT = 12

#: Block pointers held by one indirect block (u32 entries).
PTRS_PER_INDIRECT = BLOCK_SIZE // 4

#: Largest representable file.
MAX_FILE_BLOCKS = N_DIRECT + PTRS_PER_INDIRECT
MAX_FILE_SIZE = MAX_FILE_BLOCKS * BLOCK_SIZE


class FileType(enum.IntEnum):
    FREE = 0
    REGULAR = 1
    DIRECTORY = 2
    SYMLINK = 3


class FileId(NamedTuple):
    """Identifies a file the way the registry does: device + inode number.

    A tuple, so that the page cache's per-file index hashes it in C."""

    dev: int
    ino: int
