"""The block bitmap allocator.

The bitmap is ordinary file system metadata: it lives in on-disk blocks,
is cached in the buffer cache, and is updated through the same guarded
write path as everything else — so it is corruptible by crashes and
repairable by ``fsck`` (which rebuilds it from the reachable inodes).
"""

from __future__ import annotations

from repro.errors import KernelPanic, NoSpace
from repro.fs.types import BLOCK_SIZE

BITS_PER_BLOCK = BLOCK_SIZE * 8


class BlockAllocator:
    """Allocates data blocks for one mounted file system.

    ``fs`` must provide ``sb`` (the superblock), ``kernel`` (for the
    bitmap lock and the chaos registry), ``read_meta`` and
    ``write_meta``.  A next-fit cursor keeps consecutive allocations
    mostly sequential, which matters for the disk timing model.
    """

    def __init__(self, fs) -> None:
        self.fs = fs
        self._cursor = fs.sb.data_start

    def _bit_location(self, block_no: int) -> tuple[int, int, int]:
        """Return (bitmap block number, byte offset, bit index).

        An out-of-range block number at runtime means some structure's
        block pointer is corrupt — a kernel consistency check ("bad block
        number"), i.e. a panic, not a harness configuration error."""
        sb = self.fs.sb
        if not 0 <= block_no < sb.total_blocks:
            raise KernelPanic(f"bad block number {block_no}")
        index = block_no // BITS_PER_BLOCK
        if index >= sb.bitmap_blocks:
            raise KernelPanic(f"block {block_no} beyond bitmap")
        within = block_no % BITS_PER_BLOCK
        return sb.bitmap_start + index, within // 8, within % 8

    def is_allocated(self, block_no: int) -> bool:
        blk, byte_off, bit = self._bit_location(block_no)
        byte = self.fs.read_meta(blk, byte_off, 1, meta_class="bitmap")[0]
        return bool(byte & (1 << bit))

    def _set_bit(self, block_no: int, value: bool) -> None:
        blk, byte_off, bit = self._bit_location(block_no)
        byte = self.fs.read_meta(blk, byte_off, 1, meta_class="bitmap")[0]
        if value:
            byte |= 1 << bit
        else:
            byte &= ~(1 << bit)
        self.fs.write_meta(blk, byte_off, bytes([byte]), meta_class="bitmap")

    def alloc(self) -> int:
        """Allocate one data block; next-fit from the cursor.

        ``NoSpace`` — genuine or chaos-injected — is raised *outside*
        the bitmap lock section: an exception unwinding through a held
        kernel lock leaks it (that is a crash path in this kernel), and
        running out of blocks is an ordinary error, not a crash.
        """
        chaos = self.fs.kernel.chaos
        if chaos is not None and chaos.should_fail("fail_disk_full"):
            # Denied before the bitmap is touched: the fs looks exactly
            # as if it had genuinely run out of blocks.
            raise NoSpace("chaos: file system full")
        sb = self.fs.sb
        span = sb.total_blocks - sb.data_start
        with self.fs.kernel.locks.lock("bitmap"):
            for step in range(span):
                candidate = sb.data_start + (self._cursor - sb.data_start + step) % span
                if not self.is_allocated(candidate):
                    self._set_bit(candidate, True)
                    self._cursor = candidate + 1
                    return candidate
        raise NoSpace("file system full")

    def free(self, block_no: int) -> None:
        if block_no < self.fs.sb.data_start:
            # Another consistency check: data paths never free metadata.
            raise KernelPanic(f"bfree: freeing metadata block {block_no}")
        with self.fs.kernel.locks.lock("bitmap"):
            if not self.is_allocated(block_no):
                # Freeing a free block means the bitmap or the caller's
                # block pointers are corrupt — a classic kernel
                # consistency check.
                raise KernelPanic(f"bfree: block {block_no} already free")
            self._set_bit(block_no, False)
