"""Disk geometry and timing model.

The constants describe a mid-1990s SCSI disk of the class attached to the
paper's DEC 3000/600 workstations (a few MB/s of media bandwidth, ~10 ms
random access).  The exact values are calibration constants — Table 2's
*shape* (who wins and by what factor) comes from how many disk operations
each file system issues and whether they block, not from these numbers.
"""

from __future__ import annotations

from repro.hw.clock import NS_PER_MS, NS_PER_SEC


#: Bytes per sector: the SCSI disks' 512-byte sector, sixteen to a file
#: system block.
SECTOR_SIZE = 512
#: Average seek time for a random access.
SEEK_MS = 8.0
#: Average rotational latency (half a revolution at 5400 rpm).
ROTATIONAL_MS = 5.5
#: Sustained media bandwidth.
BANDWIDTH_BYTES_PER_SEC = 5 * 1024 * 1024
#: Fixed controller/driver overhead per request.
OVERHEAD_MS = 0.3

_POSITIONING_NS = int((SEEK_MS + ROTATIONAL_MS) * NS_PER_MS)
_OVERHEAD_NS = int(OVERHEAD_MS * NS_PER_MS)


def positioning_ns(*, sequential: bool) -> int:
    """Head positioning cost: waived when the access continues the
    previous one (the property journaling and LFS exploit)."""
    return 0 if sequential else _POSITIONING_NS


def transfer_ns(nbytes: int) -> int:
    return int(nbytes * NS_PER_SEC / BANDWIDTH_BYTES_PER_SEC)


def service_ns(nbytes: int, *, sequential: bool) -> int:
    """Total service time for one request of ``nbytes``."""
    return _OVERHEAD_NS + positioning_ns(sequential=sequential) + transfer_ns(nbytes)
