"""Simulated disks: sector stores with a timing model and crash semantics.

Three properties of real disks matter to the paper and are modelled here:

* **Speed.**  Disk throughput is "far slower than memory throughput"; the
  timing model (seek + rotation + transfer, with a sequential-access fast
  path that benefits journaling) is what makes write-through file systems
  slow in Table 2.
* **Asynchrony.**  Async writes sit in the request queue and "make no firm
  guarantees about when the data is safe"; a crash discards queued requests
  that never reached the platter — this is where delayed-write systems
  mechanically lose data.
* **Torn writes.**  "a disk sector being written during a system crash can
  be corrupted": the sector in flight at crash time is scrambled.
"""

from repro.disk.model import SECTOR_SIZE
from repro.disk.device import DiskRequest, DiskStats, SimulatedDisk
from repro.disk.swap import SwapPartition

__all__ = [
    "SECTOR_SIZE",
    "DiskRequest",
    "DiskStats",
    "SimulatedDisk",
    "SwapPartition",
]
