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

from repro.core.config import ProtectionMode
from repro.errors import ConfigurationError, NoSpace
from repro.hw.bus import AccessContext, MemoryBus
from repro.hw.memory import PAGE_SIZE
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

#: The stored fields of an entry, in ``_ENTRY_FMT`` order — what an edit
#: of :meth:`Registry.update` may change.
ENTRY_FIELDS = (
    "phys_addr", "dev", "ino", "file_offset", "size", "flags", "disk_block", "checksum",
)
_FIELD_INDEX = {name: index for index, name in enumerate(ENTRY_FIELDS)}
_PHYS_ADDR = _FIELD_INDEX["phys_addr"]
_FLAGS = _FIELD_INDEX["flags"]
_DISK_BLOCK = _FIELD_INDEX["disk_block"]
_CHECKSUM = _FIELD_INDEX["checksum"]
_PAD = len(ENTRY_FIELDS)
#: Byte offset of the flag word (little-endian: its low byte) in an entry.
_FLAGS_OFFSET = struct.calcsize(_ENTRY_FMT.format[: _FLAGS + 1])
#: ``bytes.translate`` table: a flag word's low byte to 1 if VALID is set, else 0.
_VALID_BIT = bytes(1 if b & FLAG_VALID else 0 for b in range(256))

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


def _edit(stored: tuple, set_flags: int, clear_flags: int, changes) -> list:
    """A stored record edited for a read-modify-write: the pad zeroed (as
    :meth:`RegistryEntry.to_bytes` writes it), the flag bits set and
    cleared, then each field of ``changes`` (by name, from
    :data:`ENTRY_FIELDS`) replaced, a ``None`` disk block stored as
    :data:`NO_DISK_BLOCK`."""
    record = list(stored)
    record[_PAD] = 0
    record[_FLAGS] = (record[_FLAGS] | set_flags) & ~clear_flags
    for name, value in changes.items():
        record[_FIELD_INDEX[name]] = value
    if record[_DISK_BLOCK] is None:
        record[_DISK_BLOCK] = NO_DISK_BLOCK
    return record


#: The ``changes`` of an edit that replaces no field (never mutated).
NO_CHANGES: dict = {}


def _emit_update(rec, slot: int, record) -> None:
    """The ``registry/update`` event announcing the store of ``record``."""
    rec.emit(
        "registry", "update",
        slot=slot, flags=record[_FLAGS],
        phys_addr=record[_PHYS_ADDR], checksum=record[_CHECKSUM],
    )


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
        protection,
    ) -> None:
        self.bus = bus
        self.base_paddr = base_paddr
        self.region_bytes = region_bytes
        self.capacity = capacity_for(region_bytes)
        if self.capacity <= 0:
            raise ConfigurationError("registry region too small")
        self._entries_vaddr = KSEG_BASE + base_paddr + HEADER_SIZE
        # Every registry store happens between these two calls, over the
        # frames it touches (``format``: all of them).  They are the
        # protection manager's ``open_registry_window`` /
        # ``close_registry_window`` and, like them, not exception-safe: a
        # store that crashes the machine leaves exactly those frames open.
        self._open_window = protection.open_registry_window
        self._close_window = protection.close_registry_window
        # What a store's known effect reads and bumps (``_apply_known_effect``).
        # ``_kseg``: True under VM_KSEG, False under NONE, None — never the
        # known effect — under CODE_PATCHING or for a window object that
        # declares no mode (a test double).
        self._protection = protection
        mode = getattr(protection, "mode", None)
        self._kseg = {ProtectionMode.VM_KSEG: True, ProtectionMode.NONE: False}.get(mode)
        self._mmu = bus.mmu
        self._page_size = bus.memory.page_size
        self._free_slots: list[int] = list(range(self.capacity - 1, -1, -1))

    # -- addressing --------------------------------------------------------

    @property
    def base_vaddr(self) -> int:
        return KSEG_BASE + self.base_paddr

    def entry_vaddr(self, slot: int) -> int:
        if not 0 <= slot < self.capacity:
            raise ConfigurationError(f"registry slot {slot} out of range")
        return self._entries_vaddr + slot * ENTRY_SIZE

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
        vaddr = self.entry_vaddr(entry.slot)
        fields = entry.fields()
        if not self._apply_known_effect(entry.slot, vaddr, fields, ()):
            self._store_fields(entry.slot, vaddr, fields)

    def _store_fields(self, slot: int, vaddr: int, fields) -> None:
        """The layered route of every entry store: pack the record, emit
        ``registry/update``, then one window — over the frame the entry
        lies in, two when the slot straddles a page edge — around one
        48-byte bus store."""
        raw = _ENTRY_FMT.pack(*fields)
        rec = self.bus.recorder
        if rec is not None and rec.enabled:
            _emit_update(rec, slot, fields)
        paddr = vaddr - KSEG_BASE
        first = paddr // self._page_size
        last = (paddr + ENTRY_SIZE - 1) // self._page_size
        pfns = (first,) if first == last else (first, last)
        self._open_window(pfns)
        self.bus.store(vaddr, raw, _REG_CTX)
        self._close_window(pfns)

    def _apply_known_effect(self, slot: int, vaddr: int, record, edits) -> bool:
        """Apply a batch of entry stores as their known net effect, if
        nothing can observe the inside of their windows; return whether
        it did (when not, nothing has moved and the caller takes the
        layered route, store by store).

        The batch is ``record`` — a whole new record, one store with no
        load — unless None, then each of ``edits``: one read-modify-write
        of the record as the store before it left it (:func:`_edit`).
        ``k`` stores and the loads among them leave exactly what ``k``
        separate layered stores would.

        Nothing can observe a window when the machine is up, the bus is
        :attr:`~repro.hw.bus.MemoryBus.flat`, the entry lies inside one
        frame, and either the mode is ``NONE`` with KSEG bypassing the
        TLB, or it is ``VM_KSEG`` with KSEG through the TLB and the frame
        protected, at rest — and no crash is armed at any event the
        stores announce.  A store announces ``registry/update``,
        ``prot/registry-window`` and, under ``VM_KSEG``, its frame's two
        ``mmu/kseg-protect`` toggles; with the flight recorder on they are
        emitted here, in that order and with those payloads (the clock
        does not move inside a store).  The layered route then cannot
        trap, and all it leaves behind is what this adds, per store: the
        bus load's (for an edit) and store's counts, one
        ``stat_windows``, the 48 bytes, one write generation on the frame
        (and its watch accounting) and, under ``VM_KSEG``, the frame's
        toggle there and back — two ``stat_pte_toggles``, two
        ``mmu.generation`` bumps, the KSEG table as it was, and no store
        TLB entry (a protected frame has none, and the close drops the
        one the store cached, so each store misses).  The loads miss at
        most once, as do the stores under ``NONE``: the first caches the
        translation the others hit.
        """
        bus = self.bus
        if bus.crashed or not bus.fast_path or bus.store_checker is not None:
            return False
        pfn, off = divmod(vaddr - KSEG_BASE, self._page_size)
        mmu = self._mmu
        kseg = self._kseg
        if (
            off > self._page_size - ENTRY_SIZE
            or kseg is None
            or mmu.kseg_through_tlb is not kseg
            or (kseg and mmu.kseg_writable(pfn))
        ):
            return False
        loads = len(edits)
        stores = loads + (record is not None)
        rec = bus.recorder
        recording = rec is not None and rec.enabled
        if recording and rec.armed_within(stores * (4 if kseg else 2)):
            return False
        memory = bus.memory
        frame = memory.page(pfn)
        try:  # each record packed before anything moves
            if record is None:
                records = []
                record = _ENTRY_FMT.unpack_from(frame, off)
                for set_flags, clear_flags, changes in edits:
                    record = _edit(record, set_flags, clear_flags, changes)
                    raw = _ENTRY_FMT.pack(*record)
                    records.append(record)
            else:
                raw = _ENTRY_FMT.pack(*record)
                records = (record,)
        except struct.error:  # the layered route fails at the same store
            return False
        stats = bus.stats
        vbase = vaddr - off
        if loads:
            stats.loads += loads
            stats.bytes_loaded += loads * ENTRY_SIZE
            if vbase not in mmu.tlb_loads:
                stats.tlb_misses += 1
                mmu.tlb_loads[vbase] = pfn
        self._protection.stat_windows += stores
        stats.stores += stores
        stats.bytes_stored += stores * ENTRY_SIZE
        if kseg:
            stats.tlb_misses += stores - (mmu.tlb_stores.pop(vbase, None) is not None)
            mmu.stat_pte_toggles += 2 * stores
            mmu.generation += 2 * stores
        elif vbase not in mmu.tlb_stores:
            stats.tlb_misses += 1
            mmu.tlb_stores[vbase] = pfn
        if recording:
            for record in records:
                _emit_update(rec, slot, record)
                rec.emit("prot", "registry-window")
                if kseg:
                    rec.emit("mmu", "kseg-protect", pfn=pfn, writable=True)
                    rec.emit("mmu", "kseg-protect", pfn=pfn, writable=False)
        frame[off : off + ENTRY_SIZE] = raw
        memory._page_gens[pfn] += stores
        if memory._watched:
            for _ in range(stores):
                memory.account(pfn, off, off + ENTRY_SIZE)
        return True

    def read_entry(self, slot: int) -> RegistryEntry:
        """Parse the entry stored in ``slot``."""
        return RegistryEntry.from_bytes(
            slot, self.bus.load(self.entry_vaddr(slot), ENTRY_SIZE, _REG_CTX)
        )

    # Read-modify-write in place: the stored record edited by index and
    # stored again, no RegistryEntry on the way — as its known effect, or
    # on the layered route.

    def update(self, slot: int, edits) -> None:
        """Read-modify-writes of one entry, in order: each of ``edits`` is
        ``(set_flags, clear_flags, changes)`` — the flag bits set and
        cleared, then the stored fields of ``changes`` replaced, by name
        (any of :data:`ENTRY_FIELDS`; ``disk_block=None`` stores
        :data:`NO_DISK_BLOCK`) — and costs one 48-byte load and one store,
        applied as one batch when nothing can observe it
        (:meth:`_apply_known_effect`).  A field outside
        :data:`ENTRY_FIELDS` is a :class:`ConfigurationError` and changes
        nothing."""
        vaddr = self.entry_vaddr(slot)
        for _set, _clear, changes in edits:
            if not changes.keys() <= _FIELD_INDEX.keys():
                unknown = next(name for name in changes if name not in _FIELD_INDEX)
                raise ConfigurationError(f"no registry field {unknown!r}")
        if edits and not self._apply_known_effect(slot, vaddr, None, edits):
            for set_flags, clear_flags, changes in edits:
                stored = _ENTRY_FMT.unpack(self.bus.load(vaddr, ENTRY_SIZE, _REG_CTX))
                self._store_fields(slot, vaddr, _edit(stored, set_flags, clear_flags, changes))

    def valid_entries(self) -> list[RegistryEntry]:
        """All entries with the VALID flag set."""
        return [e for slot in range(self.capacity) if (e := self.read_entry(slot)).valid]


# -- post-crash access (raw memory image, no kernel required) -----------------


def find_registry_in_image(image) -> tuple[int, int] | None:
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
    for offset in range(size - PAGE_SIZE, -1, -PAGE_SIZE):
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
    see :func:`find_registry_in_image`).

    Only VALID slots are unpacked: the low byte of every entry's flag
    word, read with one strided slice and reduced to its VALID bit,
    is searched for the slots to decode."""
    start = base_offset + HEADER_SIZE
    region = image[start : start + capacity * ENTRY_SIZE]
    if len(region) != capacity * ENTRY_SIZE:
        raise struct.error("registry entries extend past the memory image")
    valid = bytes(region[_FLAGS_OFFSET::ENTRY_SIZE]).translate(_VALID_BIT)
    entries = []
    slot = valid.find(1)
    while slot >= 0:
        fields = _ENTRY_FMT.unpack_from(region, slot * ENTRY_SIZE)
        entries.append(RegistryEntry.from_fields(slot, fields))
        slot = valid.find(1, slot + 1)
    return entries
