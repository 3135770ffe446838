"""The swap partition: destination of the warm reboot's memory dump.

Section 2.2: "Before the VM and file system are initialized, we dump all of
physical memory to the swap partition."  The dump is performed by a healthy,
booting kernel — unlike a crash dump taken by a dying one — so it always
succeeds; this class provides the bounded disk window it lands in.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.disk.device import SimulatedDisk
from repro.util.sparse import SparseBytes


class SwapPartition:
    """A contiguous window of a disk reserved for swap / memory dumps."""

    def __init__(self, disk: SimulatedDisk, start_sector: int, num_sectors: int) -> None:
        if start_sector < 0 or start_sector + num_sectors > disk.num_sectors:
            raise ConfigurationError("swap partition outside disk")
        self.disk = disk
        self.start_sector = start_sector
        self.num_sectors = num_sectors
        self.size_bytes = num_sectors * disk.sector_size

    def dump_memory_image(
        self, image: bytes | bytearray | memoryview | SparseBytes, *, sync: bool = True
    ) -> None:
        """Write a physical-memory image to swap (timed, like the real dump)."""
        if not isinstance(image, SparseBytes):
            image = memoryview(image).cast("B")
        nbytes = len(image)
        if nbytes > self.size_bytes:
            raise ConfigurationError(
                f"memory image ({nbytes} B) exceeds swap ({self.size_bytes} B)"
            )
        sector_size = self.disk.sector_size
        body = nbytes - nbytes % sector_size
        if body:
            whole = image if body == nbytes else image[:body]
            self.disk.write(self.start_sector, whole, sync=sync)
        if body < nbytes:
            # A ragged image (none of the shipped geometries produces
            # one: memory is whole pages, pages are whole sectors) pads
            # only its tail sector, written as a second, sequential
            # request — never a padded copy of the whole image.
            tail = bytes(image[body:]).ljust(sector_size, b"\x00")
            self.disk.write(self.start_sector + body // sector_size, tail, sync=sync)

    def read_memory_image(self, nbytes: int) -> bytes:
        """Read back the dumped image (timed, flat).

        Fidelity note: in the paper the user-level restore reads the dump
        from swap; here step 2 of the warm reboot is handed the in-memory
        image instead (reading 16 MB back would add virtual time the
        shipped numbers never charged), so only tests and tools call
        this."""
        if nbytes > self.size_bytes:
            raise ConfigurationError("requested more bytes than swap holds")
        nsectors = -(-nbytes // self.disk.sector_size)
        return self.disk.read(self.start_sector, nsectors)[:nbytes]
