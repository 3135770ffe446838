"""Warm reboot (section 2.2).

Two-step flow, exactly as in the paper:

1. **Early boot, before VM / file system initialisation**: dump all of
   physical memory to the swap partition ("while a standard crash dump
   often fails, this dump is performed on a healthy, booting system and
   will always work"), then restore *metadata* buffers to their disk
   blocks using the disk address stored in the registry — "so that the
   file system is intact before being checked for consistency by fsck".

2. **After the system is completely booted**: a user-level process reads
   the dump and restores the UBC's dirty file pages "using normal system
   calls such as open and write" (here: the file system's by-inode write
   interface, since inode numbers are what the registry records).

The checksum audit of the dump image — detection, not recovery — also
lives here so reliability campaigns can distinguish intact, corrupt and
mid-write ("changing") buffers.

The image every function here takes is anything with ``len`` and
``bytes``-style slicing: the machine's sparse
:meth:`~repro.hw.memory.PhysicalMemory.snapshot` on the reboot path, flat
bytes in tests and tools.  Its contents are outside input — on a system
without protection a wild store can have rewritten the registry — so an
entry is only acted on if what it points at exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import (
    RegistryEntry,
    find_registry_in_image,
    read_entries_from_image,
)
from repro.disk.swap import SwapPartition
from repro.fs.types import BLOCK_SIZE, SECTORS_PER_BLOCK
from repro.hw.machine import Machine
from repro.util.checksum import fletcher32
from repro.util.sparse import SparseBytes


@dataclass
class WarmRebootReport:
    """Everything the campaign needs to know about one warm reboot."""

    registry_found: bool = False
    dumped_bytes: int = 0
    valid_entries: int = 0
    metadata_restored: int = 0
    ubc_entries: int = 0
    ubc_restored: int = 0
    ubc_skipped: int = 0
    changing_entries: int = 0
    #: Registry slots whose page bytes no longer match their checksum —
    #: direct corruption caught by the detection apparatus.
    checksum_mismatches: list[int] = field(default_factory=list)
    #: Registry slots of dirty entries that were not restored because the
    #: entry itself is impossible: its page range leaves memory, or (for
    #: metadata) its disk block leaves the device.
    invalid_entries: list[int] = field(default_factory=list)


def audit_checksums(image, entries: list[RegistryEntry], report: WarmRebootReport) -> None:
    """Compare each valid entry's recorded checksum against the dump."""
    for entry in entries:
        if entry.changing:
            # Mid-write at crash time: cannot be classified by checksum.
            report.changing_entries += 1
            continue
        page = image[entry.phys_addr : entry.phys_addr + entry.size]
        if fletcher32(page) != entry.checksum:
            report.checksum_mismatches.append(entry.slot)


def dump_and_recover_metadata(
    machine: Machine,
    swap: SwapPartition,
    block_devices: dict[int, object],
    *,
    audit: bool = True,
) -> tuple[SparseBytes, list[RegistryEntry], WarmRebootReport]:
    """Step 1 of the warm reboot (run on the freshly reset machine,
    before any kernel state is rebuilt over the old memory image)."""
    report = WarmRebootReport()
    rec = machine.recorder
    image = machine.memory.snapshot()
    report.dumped_bytes = len(image)
    swap.dump_memory_image(image)
    if rec.enabled:
        rec.emit("reboot", "dump", bytes=report.dumped_bytes)

    location = find_registry_in_image(image)
    if location is None:
        if rec.enabled:
            rec.emit("reboot", "registry-scan", found=False)
        return image, [], report
    report.registry_found = True
    base_offset, capacity = location
    entries = read_entries_from_image(image, base_offset, capacity)
    report.valid_entries = len(entries)
    if rec.enabled:
        rec.emit("reboot", "registry-scan", found=True, valid_entries=len(entries))
    if audit:
        audit_checksums(image, entries, report)
        if rec.enabled:
            rec.emit(
                "reboot", "audit",
                mismatched_slots=list(report.checksum_mismatches),
                changing=report.changing_entries,
            )

    invalid = []
    for entry in entries:
        if not entry.is_metadata or entry.disk_block is None or not entry.dirty:
            continue
        disk = block_devices.get(entry.dev)
        if disk is None:
            continue
        if (
            entry.phys_addr + max(entry.size, BLOCK_SIZE) > len(image)
            or (entry.disk_block + 1) * SECTORS_PER_BLOCK > disk.num_sectors
        ):
            invalid.append(entry.slot)
            continue
        data = image[entry.phys_addr : entry.phys_addr + BLOCK_SIZE]
        disk.write(entry.disk_block * SECTORS_PER_BLOCK, data, sync=True)
        report.metadata_restored += 1
    if rec.enabled:
        rec.emit("reboot", "metadata-restore", restored=report.metadata_restored)
    _note_invalid(report, rec, "metadata", invalid)
    return image, entries, report


def _note_invalid(report: WarmRebootReport, rec, step: str, slots: list[int]) -> None:
    """Book the entries one restore step refused.  The event exists only
    when there are any, so a healthy reboot's stream is unchanged."""
    if slots:
        report.invalid_entries += slots
        if rec.enabled:
            rec.emit("reboot", "invalid-entries", step=step, slots=slots)


def restore_ubc(fs, image, entries: list[RegistryEntry], report: WarmRebootReport) -> None:
    """Step 2: the user-level restore of dirty UBC pages.

    ``fs`` must provide ``inode_exists(ino)``, ``inode_size(ino)`` and
    ``write(ino, offset, data)`` — the by-inode equivalents of the
    open/write syscalls the paper's restore process uses.
    """
    invalid = []
    for entry in entries:
        if entry.is_metadata:
            continue
        report.ubc_entries += 1
        if not entry.dirty:
            continue  # the disk copy is current
        if entry.phys_addr + entry.size > len(image):
            invalid.append(entry.slot)
            continue
        if not fs.inode_exists(entry.ino):
            # The file died before the crash reached it (e.g. unlinked but
            # its registry entry was mid-flight) — nothing to restore into.
            report.ubc_skipped += 1
            continue
        size = fs.inode_size(entry.ino)
        if entry.file_offset >= size:
            report.ubc_skipped += 1
            continue
        length = min(entry.size, size - entry.file_offset)
        data = image[entry.phys_addr : entry.phys_addr + length]
        fs.write(entry.ino, entry.file_offset, data)
        report.ubc_restored += 1
    rec = fs.kernel.recorder
    if rec.enabled:
        rec.emit(
            "reboot", "ubc-restore",
            entries=report.ubc_entries,
            restored=report.ubc_restored,
            skipped=report.ubc_skipped,
        )
    _note_invalid(report, rec, "ubc", invalid)
