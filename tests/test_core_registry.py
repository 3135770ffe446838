"""Tests for the Rio registry: format, entries, post-crash discovery."""

import struct

import pytest

from repro.core.registry import (
    ENTRY_SIZE,
    FLAG_CHANGING,
    FLAG_DIRTY,
    FLAG_META,
    FLAG_VALID,
    HEADER_SIZE,
    Registry,
    RegistryEntry,
    capacity_for,
    find_registry_in_image,
    read_entries_from_image,
)
from repro.errors import NoSpace, ProtectionTrap
from repro.hw import Machine, MachineConfig

PAGE = 8192


@pytest.fixture
def machine():
    return Machine(MachineConfig(memory_bytes=32 * PAGE, boot_time_ns=0))


@pytest.fixture
def registry(machine):
    # Registry in the top two frames, as the kernel would place it.
    base = (machine.memory.num_pages - 2) * PAGE
    reg = Registry(machine.bus, base, 2 * PAGE)
    reg.format()
    return reg


class TestEntryCodec:
    def test_roundtrip(self):
        entry = RegistryEntry(
            slot=3,
            phys_addr=0x4000,
            dev=1,
            ino=42,
            file_offset=81920,
            size=8192,
            flags=FLAG_VALID | FLAG_DIRTY,
            disk_block=77,
            checksum=0xABCD1234,
        )
        parsed = RegistryEntry.from_bytes(3, entry.to_bytes())
        assert parsed == entry

    def test_entry_size_is_48_bytes(self):
        """The paper says ~40 bytes per 8 KB page; ours is 48."""
        assert ENTRY_SIZE == 48
        assert len(RegistryEntry(slot=0).to_bytes()) == 48

    def test_none_disk_block_roundtrip(self):
        entry = RegistryEntry(slot=0, flags=FLAG_VALID, disk_block=None)
        assert RegistryEntry.from_bytes(0, entry.to_bytes()).disk_block is None

    def test_flag_properties(self):
        entry = RegistryEntry(slot=0, flags=FLAG_VALID | FLAG_META | FLAG_CHANGING)
        assert entry.valid and entry.is_metadata and entry.changing
        assert not entry.dirty


class TestLiveRegistry:
    def test_capacity(self, registry):
        assert registry.capacity == capacity_for(2 * PAGE)
        assert registry.capacity > 300

    def test_alloc_write_read(self, registry):
        slot = registry.alloc_slot()
        registry.write_entry(
            RegistryEntry(slot=slot, phys_addr=0x2000, dev=0, ino=5, flags=FLAG_VALID)
        )
        entry = registry.read_entry(slot)
        assert entry.valid and entry.ino == 5

    def test_free_slot_invalidates(self, registry):
        slot = registry.alloc_slot()
        registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID))
        registry.free_slot(slot)
        assert not registry.read_entry(slot).valid

    def test_update_flags(self, registry):
        slot = registry.alloc_slot()
        registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID))
        registry.update_flags(slot, set_flags=FLAG_DIRTY | FLAG_CHANGING)
        registry.update_flags(slot, clear_flags=FLAG_CHANGING)
        entry = registry.read_entry(slot)
        assert entry.dirty and not entry.changing and entry.valid

    def test_update_fields(self, registry):
        slot = registry.alloc_slot()
        registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID))
        registry.update_fields(slot, ino=9, disk_block=123)
        entry = registry.read_entry(slot)
        assert entry.ino == 9 and entry.disk_block == 123

    def test_exhaustion(self, registry):
        for _ in range(registry.capacity):
            registry.alloc_slot()
        with pytest.raises(NoSpace):
            registry.alloc_slot()

    def test_valid_entries_listing(self, registry):
        slots = [registry.alloc_slot() for _ in range(3)]
        for slot in slots[:2]:
            registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID))
        assert {e.slot for e in registry.valid_entries()} == set(slots[:2])


class TestFormat:
    def test_zeroes_every_entry_with_one_store_per_page(self, machine, registry):
        base, size = registry.base_paddr, registry.region_bytes
        machine.memory.write(base, b"\xa5" * size)  # a previous boot's debris
        stores = machine.bus.stats.stores
        registry.format()
        assert machine.bus.stats.stores - stores == 1 + size // PAGE  # header + pages
        region = machine.memory.read(base, size)
        entries_end = HEADER_SIZE + registry.capacity * ENTRY_SIZE
        assert find_registry_in_image(machine.memory.dump_image(), PAGE) == (base, registry.capacity)
        assert region[HEADER_SIZE:entries_end] == bytes(entries_end - HEADER_SIZE)
        assert region[entries_end:] == b"\xa5" * (size - entries_end)  # slack: not ours
        assert registry.valid_entries() == []

    def test_protected_page_outside_a_window_still_traps(self, machine, registry):
        machine.mmu.kseg_through_tlb = True
        machine.mmu.set_kseg_writable(machine.memory.num_pages - 1, False)
        with pytest.raises(ProtectionTrap):
            registry.format()  # this registry's window opens nothing


class TestPostCrashDiscovery:
    def test_image_decode_matches_per_slot_oracle(self, machine, registry):
        for slot in (0, 1, 169, registry.capacity - 1):  # 169 straddles the page edge
            registry.write_entry(
                RegistryEntry(
                    slot=slot, phys_addr=slot * PAGE, ino=slot + 2, size=PAGE,
                    flags=FLAG_VALID | (FLAG_DIRTY if slot % 2 else 0),
                    disk_block=None if slot else 9, checksum=slot * 3,
                )
            )
        registry.write_entry(RegistryEntry(slot=5, ino=99))  # flags=0: skipped
        image = machine.memory.dump_image()
        start = registry.base_paddr + HEADER_SIZE
        oracle = [
            entry
            for slot in range(registry.capacity)
            if (
                entry := RegistryEntry.from_bytes(
                    slot, image[start + slot * ENTRY_SIZE : start + (slot + 1) * ENTRY_SIZE]
                )
            ).valid
        ]
        assert [e.slot for e in oracle] == [0, 1, 169, registry.capacity - 1]
        for buffer in (image, bytearray(image), memoryview(image)):
            assert read_entries_from_image(buffer, registry.base_paddr, registry.capacity) == oracle
        with pytest.raises(struct.error):  # a capacity the image cannot hold
            read_entries_from_image(image, registry.base_paddr, registry.capacity + 1)

    def test_find_in_image(self, machine, registry):
        image = machine.memory.dump_image()
        found = find_registry_in_image(image, PAGE)
        assert found is not None
        base, capacity = found
        assert base == registry.base_paddr
        assert capacity == registry.capacity

    def test_entries_from_image(self, machine, registry):
        slot = registry.alloc_slot()
        registry.write_entry(
            RegistryEntry(slot=slot, phys_addr=0x6000, dev=0, ino=7, flags=FLAG_VALID)
        )
        image = machine.memory.dump_image()
        entries = read_entries_from_image(image, registry.base_paddr, registry.capacity)
        assert len(entries) == 1
        assert entries[0].ino == 7

    def test_no_registry_in_scrubbed_memory(self, machine, registry):
        machine.memory.erase()  # PC-style reset
        image = machine.memory.dump_image()
        assert find_registry_in_image(image, PAGE) is None

    def test_survives_machine_reset(self, machine, registry):
        """The registry is memory contents, so an Alpha-style reset keeps it."""
        slot = registry.alloc_slot()
        registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID, ino=3))
        machine.crash("boom")
        machine.reset(preserve_memory=True)
        image = machine.memory.dump_image()
        entries = read_entries_from_image(image, registry.base_paddr, registry.capacity)
        assert entries[0].ino == 3
