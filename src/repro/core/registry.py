"""The Rio registry (section 2.2).

"Instead of understanding and protecting all intermediate data structures,
we keep and protect a separate area of memory, which we call the registry,
that contains all information needed to find, identify, and restore files
in memory.  For each buffer in the file cache, the registry contains the
physical memory address, file id (device number and inode number), file
offset, and size."

Ours adds three fields the rest of the paper implies: flags (valid /
dirty / changing / metadata), the disk block for metadata buffers (used by
warm reboot to restore metadata "using the disk address stored in the
registry"), and the detection checksum of section 3.2.  48 bytes per 8 KB
page — the same order as the paper's 40.

The registry lives in a fixed run of frames at the top of physical memory,
headed by a magic number, so a rebooting kernel can find it by address
with no intermediate data structures.  During normal operation the kernel
reads and writes it through the bus (so protection applies); after a crash
the recovery path reads it straight out of the raw memory image.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, NoSpace
from repro.hw.bus import AccessContext, MemoryBus
from repro.hw.mmu import KSEG_BASE

REGISTRY_MAGIC = 0x52494F5245470001  # "RIOREG" v1
HEADER_SIZE = 64
ENTRY_SIZE = 48
NO_DISK_BLOCK = (1 << 64) - 1

FLAG_VALID = 1
FLAG_DIRTY = 2
FLAG_CHANGING = 4
FLAG_META = 8

_HEADER_FMT = struct.Struct("<QIIQ")  # magic, capacity, entry_size, base_paddr
_ENTRY_FMT = struct.Struct("<QIIQIIQII")
# phys_addr, dev, ino, file_offset, size, flags, disk_block, checksum, pad

#: The stored fields of an entry, in ``_ENTRY_FMT`` order — what
#: :meth:`Registry.update_fields` accepts.
ENTRY_FIELDS = (
    "phys_addr", "dev", "ino", "file_offset", "size", "flags", "disk_block", "checksum",
)
_FIELD_INDEX = {name: index for index, name in enumerate(ENTRY_FIELDS)}
_PHYS_ADDR = _FIELD_INDEX["phys_addr"]
_FLAGS = _FIELD_INDEX["flags"]
_DISK_BLOCK = _FIELD_INDEX["disk_block"]
_CHECKSUM = _FIELD_INDEX["checksum"]
_PAD = len(ENTRY_FIELDS)

_REG_CTX = AccessContext(procedure="registry_update")


@dataclass
class RegistryEntry:
    """A decoded registry entry."""

    slot: int
    phys_addr: int = 0
    dev: int = 0
    ino: int = 0
    file_offset: int = 0
    size: int = 0
    flags: int = 0
    disk_block: Optional[int] = None
    checksum: int = 0

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    @property
    def dirty(self) -> bool:
        return bool(self.flags & FLAG_DIRTY)

    @property
    def changing(self) -> bool:
        return bool(self.flags & FLAG_CHANGING)

    @property
    def is_metadata(self) -> bool:
        return bool(self.flags & FLAG_META)

    def fields(self) -> tuple:
        """The entry as one ``_ENTRY_FMT`` record (see :data:`ENTRY_FIELDS`)."""
        disk_block = NO_DISK_BLOCK if self.disk_block is None else self.disk_block
        return (
            self.phys_addr, self.dev, self.ino, self.file_offset, self.size,
            self.flags, disk_block, self.checksum, 0,
        )

    def to_bytes(self) -> bytes:
        return _ENTRY_FMT.pack(*self.fields())

    @classmethod
    def from_bytes(cls, slot: int, data: bytes) -> "RegistryEntry":
        return cls.from_fields(slot, _ENTRY_FMT.unpack_from(data))

    @classmethod
    def from_fields(cls, slot: int, fields: tuple) -> "RegistryEntry":
        """Build an entry from one unpacked ``_ENTRY_FMT`` record."""
        phys_addr, dev, ino, file_offset, size, flags, disk_block, checksum, _pad = fields
        return cls(
            slot=slot,
            phys_addr=phys_addr,
            dev=dev,
            ino=ino,
            file_offset=file_offset,
            size=size,
            flags=flags,
            disk_block=None if disk_block == NO_DISK_BLOCK else disk_block,
            checksum=checksum,
        )


def _no_window(pfns=None) -> None:
    """Window operation of a registry whose frames nothing protects."""


def capacity_for(region_bytes: int) -> int:
    """How many entries fit in a registry region of this size."""
    return (region_bytes - HEADER_SIZE) // ENTRY_SIZE


class Registry:
    """The live registry, accessed through the bus via KSEG addresses."""

    def __init__(
        self,
        bus: MemoryBus,
        base_paddr: int,
        region_bytes: int,
        protection=None,
    ) -> None:
        self.bus = bus
        self.base_paddr = base_paddr
        self.region_bytes = region_bytes
        self.capacity = capacity_for(region_bytes)
        if self.capacity <= 0:
            raise ConfigurationError("registry region too small")
        # Every registry store happens between these two calls, over the
        # frames it touches (``format``: all of them).  They are the
        # protection manager's ``open_registry_window`` /
        # ``close_registry_window`` (a registry nothing protects gets
        # no-ops) and, like them, not exception-safe: a store that crashes
        # the machine leaves exactly those frames open.
        if protection is None:
            self._open_window = self._close_window = _no_window
        else:
            self._open_window = protection.open_registry_window
            self._close_window = protection.close_registry_window
        self._page_size = bus.memory.page_size
        self._free_slots: list[int] = list(range(self.capacity - 1, -1, -1))

    # -- addressing --------------------------------------------------------

    @property
    def base_vaddr(self) -> int:
        return KSEG_BASE + self.base_paddr

    def entry_vaddr(self, slot: int) -> int:
        if not 0 <= slot < self.capacity:
            raise ConfigurationError(f"registry slot {slot} out of range")
        return self.base_vaddr + HEADER_SIZE + slot * ENTRY_SIZE

    # -- initialisation --------------------------------------------------------

    def format(self) -> None:
        """Write the header and zero all entries (boot of a cold system)."""
        self._open_window()
        header = _HEADER_FMT.pack(
            REGISTRY_MAGIC, self.capacity, ENTRY_SIZE, self.base_paddr
        )
        self.bus.store(self.base_vaddr, header, _REG_CTX)
        # One store per registry page, through the bus: a page that is
        # protected outside a window still traps.
        page_size = self._page_size
        addr = self.base_vaddr + HEADER_SIZE
        end = addr + self.capacity * ENTRY_SIZE
        while addr < end:
            take = min(end - addr, page_size - addr % page_size)
            self.bus.store(addr, bytes(take), _REG_CTX)
            addr += take
        self._close_window()
        self._free_slots = list(range(self.capacity - 1, -1, -1))

    # -- slot management ----------------------------------------------------------

    def alloc_slot(self) -> int:
        """Claim a free slot (in-kernel free list; VALID flags are the
        crash-surviving truth)."""
        if not self._free_slots:
            raise NoSpace("registry full")
        return self._free_slots.pop()

    def free_slot(self, slot: int) -> None:
        """Invalidate and recycle a slot."""
        self.write_entry(RegistryEntry(slot=slot))  # flags=0: invalid
        self._free_slots.append(slot)

    # -- entry access ---------------------------------------------------------------

    def write_entry(self, entry: RegistryEntry) -> None:
        """Serialize an entry through the protection window."""
        self._store_fields(entry.slot, self.entry_vaddr(entry.slot), entry.fields())

    def _store_fields(self, slot: int, vaddr: int, fields) -> None:
        """Every entry store: pack the record, emit ``registry/update``,
        then one window — over the frame the entry lies in, two when the
        slot straddles a page edge — around one 48-byte bus store."""
        raw = _ENTRY_FMT.pack(*fields)
        rec = self.bus.recorder
        if rec is not None and rec.enabled:
            rec.emit(
                "registry", "update",
                slot=slot, flags=fields[_FLAGS],
                phys_addr=fields[_PHYS_ADDR], checksum=fields[_CHECKSUM],
            )
        paddr = vaddr - KSEG_BASE
        first = paddr // self._page_size
        last = (paddr + ENTRY_SIZE - 1) // self._page_size
        pfns = (first,) if first == last else (first, last)
        self._open_window(pfns)
        self.bus.store(vaddr, raw, _REG_CTX)
        self._close_window(pfns)

    def read_entry(self, slot: int) -> RegistryEntry:
        """Parse the entry stored in ``slot``."""
        return RegistryEntry.from_bytes(
            slot, self.bus.load(self.entry_vaddr(slot), ENTRY_SIZE, _REG_CTX)
        )

    # Read-modify-write in place: one 48-byte load, the unpacked record
    # edited by index, one pack, one store — no RegistryEntry on the way.

    def _load_fields(self, vaddr: int) -> list:
        fields = list(_ENTRY_FMT.unpack(self.bus.load(vaddr, ENTRY_SIZE, _REG_CTX)))
        fields[_PAD] = 0  # as RegistryEntry.to_bytes writes it
        return fields

    def update_flags(self, slot: int, *, set_flags: int = 0, clear_flags: int = 0) -> None:
        """Read-modify-write of an entry's flag bits."""
        vaddr = self.entry_vaddr(slot)
        fields = self._load_fields(vaddr)
        fields[_FLAGS] = (fields[_FLAGS] | set_flags) & ~clear_flags
        self._store_fields(slot, vaddr, fields)

    def update_fields(self, slot: int, /, **fields) -> None:
        """Read-modify-write of stored entry fields, by name: any of
        :data:`ENTRY_FIELDS` (``disk_block=None`` stores
        :data:`NO_DISK_BLOCK`); anything else is a
        :class:`ConfigurationError` and changes nothing."""
        vaddr = self.entry_vaddr(slot)
        if not fields.keys() <= _FIELD_INDEX.keys():
            unknown = next(name for name in fields if name not in _FIELD_INDEX)
            raise ConfigurationError(f"no registry field {unknown!r}")
        record = self._load_fields(vaddr)
        for name, value in fields.items():
            record[_FIELD_INDEX[name]] = value
        if record[_DISK_BLOCK] is None:
            record[_DISK_BLOCK] = NO_DISK_BLOCK
        self._store_fields(slot, vaddr, record)

    def valid_entries(self) -> list[RegistryEntry]:
        """All entries with the VALID flag set."""
        return [e for slot in range(self.capacity) if (e := self.read_entry(slot)).valid]


# -- post-crash access (raw memory image, no kernel required) -----------------


def find_registry_in_image(image, page_size: int) -> tuple[int, int] | None:
    """Locate the registry in a raw memory image.

    ``image`` is anything with ``len`` and ``bytes``-style slicing: flat
    bytes or a :class:`~repro.util.sparse.SparseBytes` snapshot.  Scans
    page-aligned offsets from the top of memory down (the registry lives
    in reserved top frames).  Returns ``(base_offset, capacity)`` or None
    if no registry is present (e.g. a non-Rio system, or a PC that
    scrubbed memory during reset).  A header whose capacity cannot fit
    between it and the end of memory is corruption, not a registry.
    """
    size = len(image)
    for offset in range(size - page_size, -1, -page_size):
        header = image[offset : offset + _HEADER_FMT.size]
        if len(header) < _HEADER_FMT.size:
            continue
        magic, capacity, entry_size, base_paddr = _HEADER_FMT.unpack(header)
        if (
            magic == REGISTRY_MAGIC
            and entry_size == ENTRY_SIZE
            and base_paddr == offset
            and offset + HEADER_SIZE + capacity * ENTRY_SIZE <= size
        ):
            return offset, capacity
    return None


def read_entries_from_image(image, base_offset: int, capacity: int) -> list[RegistryEntry]:
    """Decode all valid entries from a raw memory image (flat or sparse,
    see :func:`find_registry_in_image`)."""
    start = base_offset + HEADER_SIZE
    region = image[start : start + capacity * ENTRY_SIZE]
    if len(region) != capacity * ENTRY_SIZE:
        raise struct.error("registry entries extend past the memory image")
    entries = []
    for slot, fields in enumerate(_ENTRY_FMT.iter_unpack(region)):
        if fields[5] & FLAG_VALID:  # flags
            entries.append(RegistryEntry.from_fields(slot, fields))
    return entries
