"""The swap partition: destination of the warm reboot's memory dump.

Section 2.2: "Before the VM and file system are initialized, we dump all of
physical memory to the swap partition."  The dump is performed by a healthy,
booting kernel — unlike a crash dump taken by a dying one — so it always
succeeds; this class provides the bounded disk window it lands in.

Nothing reads the dump back: step 2 of the warm reboot is handed the
in-memory image (a fidelity note — the paper's user-level restore reads
the dump from swap, and charging that read would move every recovery's
virtual time).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.disk.device import SimulatedDisk
from repro.disk.model import SECTOR_SIZE
from repro.util.sparse import SparseBytes


class SwapPartition:
    """A contiguous window of a disk reserved for swap / memory dumps."""

    def __init__(self, disk: SimulatedDisk, start_sector: int, num_sectors: int) -> None:
        if start_sector < 0 or start_sector + num_sectors > disk.num_sectors:
            raise ConfigurationError("swap partition outside disk")
        self.disk = disk
        self.start_sector = start_sector
        self.num_sectors = num_sectors
        self.size_bytes = num_sectors * SECTOR_SIZE

    def dump_memory_image(self, image: bytes | bytearray | memoryview | SparseBytes) -> None:
        """Write a physical-memory image to swap: one synchronous,
        timed request, like the real dump.  Memory is whole pages and a
        page is whole sectors, so an image that is not whole sectors is
        refused, as is one larger than the partition."""
        if not isinstance(image, SparseBytes):
            image = memoryview(image).cast("B")
        nbytes = len(image)
        if nbytes > self.size_bytes:
            raise ConfigurationError(
                f"memory image ({nbytes} B) exceeds swap ({self.size_bytes} B)"
            )
        if nbytes % SECTOR_SIZE:
            raise ConfigurationError(
                f"memory image ({nbytes} B) is not whole {SECTOR_SIZE}-byte sectors"
            )
        if nbytes:
            self.disk.write(self.start_sector, image, sync=True)
