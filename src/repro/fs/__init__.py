"""File systems: UFS (with fsck), AdvFS (journaling), MFS (memory-only).

Everything is byte-level: superblocks, inodes, directories and bitmaps are
serialized structures in real (simulated) disk sectors and cache pages, so
crashes corrupt real state, ``fsck`` repairs real damage, and the warm
reboot restores real bytes.

The cache layer below the file systems mirrors Digital Unix (section 2):
metadata lives in the traditional **buffer cache** (wired kernel virtual
memory); regular file data lives in the **UBC**, which "is not mapped into
the kernel's virtual address space; instead it is accessed using physical
addresses" — i.e. through KSEG, which is exactly why Rio must force KSEG
through the TLB to protect it.
"""

from repro.fs.types import (
    BLOCK_SIZE,
    FileId,
    FileType,
    ROOT_INO,
    Whence,
)
from repro.fs.ondisk import DirEntry, Inode, Superblock
from repro.fs.ufs import UFS, UFSParams
from repro.fs.mfs import MemoryFileSystem
from repro.fs.advfs import AdvFS
from repro.fs.fsck import FsckReport, fsck
from repro.fs.writeback import (
    WritePolicy,
    WRITE_POLICIES,
    make_policy,
)
from repro.fs.cache import BufferCache, CachePage, UnifiedBufferCache

__all__ = [
    "BLOCK_SIZE",
    "FileId",
    "FileType",
    "ROOT_INO",
    "Whence",
    "DirEntry",
    "Inode",
    "Superblock",
    "UFS",
    "UFSParams",
    "MemoryFileSystem",
    "AdvFS",
    "FsckReport",
    "fsck",
    "WritePolicy",
    "WRITE_POLICIES",
    "make_policy",
    "BufferCache",
    "CachePage",
    "UnifiedBufferCache",
]
