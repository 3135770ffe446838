"""Tests for the Rio registry: format, entries, post-crash discovery."""

import dataclasses
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ProtectionMode, RioConfig
from repro.core.protection import ProtectionManager
from repro.core.registry import (
    ENTRY_SIZE,
    FLAG_CHANGING,
    FLAG_DIRTY,
    FLAG_META,
    FLAG_VALID,
    HEADER_SIZE,
    Registry,
    RegistryEntry,
    _ENTRY_FMT,
    _FLAGS,
    _FLAGS_OFFSET,
    capacity_for,
    find_registry_in_image,
    read_entries_from_image,
)
from repro.errors import NoSpace, ProtectionTrap
from repro.hw import Machine, MachineConfig

PAGE = 8192

#: A registry no protection manager guards: its windows do nothing, and
#: its ``mode`` of None sends every store down the layered route.
UNPROTECTED = SimpleNamespace(
    mode=None,
    open_registry_window=lambda pfns=None: None,
    close_registry_window=lambda pfns=None: None,
)


@pytest.fixture
def machine():
    return Machine(MachineConfig(memory_bytes=32 * PAGE, boot_time_ns=0))


@pytest.fixture
def registry(machine):
    # Registry in the top two frames, as the kernel would place it.
    base = (machine.memory.num_pages - 2) * PAGE
    reg = Registry(machine.bus, base, 2 * PAGE, UNPROTECTED)
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
        parsed = RegistryEntry.from_bytes(3, _ENTRY_FMT.pack(*entry.fields()))
        assert parsed == entry

    def test_entry_size_is_48_bytes(self):
        """The paper says ~40 bytes per 8 KB page; ours is 48."""
        assert ENTRY_SIZE == 48
        assert _ENTRY_FMT.size == 48
        assert ENTRY_SIZE <= 64 and ENTRY_SIZE / 8192 < 0.01  # 0.59 % of the page

    def test_none_disk_block_roundtrip(self):
        entry = RegistryEntry(slot=0, flags=FLAG_VALID, disk_block=None)
        packed = _ENTRY_FMT.pack(*entry.fields())
        assert RegistryEntry.from_bytes(0, packed).disk_block is None

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
        registry.update(slot, ((FLAG_DIRTY | FLAG_CHANGING, 0, {}),))
        registry.update(slot, ((0, FLAG_CHANGING, {}),))
        entry = registry.read_entry(slot)
        assert entry.dirty and not entry.changing and entry.valid

    def test_update_fields(self, registry):
        slot = registry.alloc_slot()
        registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID))
        registry.update(slot, ((0, 0, {"ino": 9, "disk_block": 123}),))
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
        assert find_registry_in_image(machine.memory.dump_image()) == (base, registry.capacity)
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

    @given(
        flags=st.lists(
            st.one_of(
                st.integers(0, 2**32 - 1),  # any flag word
                st.integers(1, 2**24 - 1).map(lambda high: high << 8),  # high bytes, no VALID
                st.sampled_from([FLAG_VALID, FLAG_VALID | FLAG_DIRTY | FLAG_META, 0]),
            ),
            max_size=40,
        ),
        filler=st.binary(min_size=ENTRY_SIZE, max_size=ENTRY_SIZE),
        base=st.integers(0, 3),
        short=st.integers(0, ENTRY_SIZE),
    )
    @settings(max_examples=60, deadline=None)
    def test_valid_slot_search_matches_the_per_slot_loop(self, flags, filler, base, short):
        """The strided search over the flag words' low bytes decodes
        exactly the entries the per-slot loop did, in slot order, and a
        region the image cannot hold still raises ``struct.error``."""
        records = []
        for slot, word in enumerate(flags):
            record = bytearray(filler)
            record[0] ^= slot & 0xFF  # entries differ from one another
            struct.pack_into("<I", record, _FLAGS_OFFSET, word)
            records.append(bytes(record))
        image = bytes(base * 7) + bytes(HEADER_SIZE) + b"".join(records)
        start = base * 7 + HEADER_SIZE
        oracle = [
            RegistryEntry.from_fields(slot, fields)
            for slot, fields in enumerate(_ENTRY_FMT.iter_unpack(image[start:]))
            if fields[_FLAGS] & FLAG_VALID
        ]
        assert read_entries_from_image(image, base * 7, len(flags)) == oracle
        if short:
            with pytest.raises(struct.error):
                read_entries_from_image(image[: len(image) - short], base * 7, len(flags) or 1)

    def test_find_in_image(self, machine, registry):
        image = machine.memory.dump_image()
        found = find_registry_in_image(image)
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
        assert find_registry_in_image(image) is None

    def test_survives_machine_reset(self, machine, registry):
        """The registry is memory contents, so an Alpha-style reset keeps it."""
        slot = registry.alloc_slot()
        registry.write_entry(RegistryEntry(slot=slot, flags=FLAG_VALID, ino=3))
        machine.crash("boom")
        machine.reset(preserve_memory=True)
        image = machine.memory.dump_image()
        entries = read_entries_from_image(image, registry.base_paddr, registry.capacity)
        assert entries[0].ino == 3


# -- in-place read-modify-write ------------------------------------------------


from repro.core.registry import ENTRY_FIELDS, NO_DISK_BLOCK  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402


class CountingWindows:
    """A protection manager's registry window, reduced to what the
    registry sees: KSEG write permission over the frames it names (all
    of them when it names none, as ``format`` does), and a count.  Its
    ``mode`` of None keeps every store on the layered route, through
    these calls."""

    mode = None

    def __init__(self, mmu, pfns):
        self.mmu, self.pfns = mmu, pfns
        self.opened = self.closed = 0
        self.frames_opened: list[tuple] = []
        mmu.kseg_through_tlb = True
        mmu.set_kseg_writable_run(pfns, False)

    def open_registry_window(self, pfns=None):
        self.opened += 1
        self.frames_opened.append(tuple(self.pfns if pfns is None else pfns))
        self.mmu.set_kseg_writable_run(self.frames_opened[-1], True)

    def close_registry_window(self, pfns=None):
        self.closed += 1
        assert tuple(self.pfns if pfns is None else pfns) == self.frames_opened[-1]
        self.mmu.set_kseg_writable_run(self.frames_opened[-1], False)


class ReadModifyWriteRegistry(Registry):
    """The oracle: ``update`` as decode, ``setattr``, ``write_entry``."""

    def update(self, slot, edits):
        for set_flags, clear_flags, changes in edits:
            entry = self.read_entry(slot)
            entry.flags = (entry.flags | set_flags) & ~clear_flags
            for name, value in changes.items():
                setattr(entry, name, value)
            self.write_entry(entry)


def protected_registry(cls):
    machine = Machine(MachineConfig(memory_bytes=32 * PAGE, boot_time_ns=0))
    pfns = [machine.memory.num_pages - 2, machine.memory.num_pages - 1]
    windows = CountingWindows(machine.mmu, pfns)
    reg = cls(machine.bus, pfns[0] * PAGE, 2 * PAGE, protection=windows)
    reg.format()
    machine.recorder.start()
    return machine, reg, windows


def registry_state(machine, reg, windows):
    stats = machine.bus.stats
    return (
        machine.memory.read(reg.base_paddr, reg.region_bytes),
        (stats.loads, stats.stores, stats.bytes_loaded, stats.bytes_stored),
        (windows.opened, windows.closed, machine.mmu.stat_pte_toggles),
        [(e.seq, e.kind, e.op, dict(e.payload)) for e in machine.recorder.events()],
    )


U32, U64 = st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 64) - 2)
FIELD_VALUES = {
    "phys_addr": U64, "dev": U32, "ino": U32, "file_offset": U64, "size": U32,
    "flags": st.integers(0, 15), "disk_block": st.one_of(st.none(), U64), "checksum": U32,
}
SLOTS = st.sampled_from([0, 1, 169, 339])  # 169 straddles the registry's page edge
UPDATE = st.one_of(
    st.tuples(st.just("write_entry"), SLOTS, st.fixed_dictionaries(FIELD_VALUES)),
    st.tuples(st.just("update_flags"), SLOTS, st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.just("update_fields"), SLOTS, st.fixed_dictionaries({}, optional=FIELD_VALUES)),
    st.tuples(st.just("crash_at_event"), SLOTS, st.integers(0, 15)),
    st.tuples(  # one batch of read-modify-writes
        st.just("update"), SLOTS,
        st.lists(
            st.tuples(
                st.integers(0, 15), st.integers(0, 15),
                st.fixed_dictionaries({}, optional=FIELD_VALUES),
            ),
            min_size=1, max_size=3,
        ),
    ),
)


def apply_update(machine, reg, update):
    op, slot, *args = update
    if op == "write_entry":
        reg.write_entry(RegistryEntry(slot=slot, **args[0]))
    elif op == "update_flags":
        reg.update(slot, ((args[0], args[1], {}),))
    elif op == "update_fields":
        reg.update(slot, ((0, 0, args[0]),))
    elif op == "update":
        reg.update(slot, args[0])
    else:
        # Armed at the registry/update event: the machine dies after the
        # event and before the window opens, so nothing is stored.
        def die(event):
            raise RuntimeError(f"armed at {event.kind}/{event.op}")

        machine.recorder.arm_crash(len(machine.recorder.events()), die)
        with pytest.raises(RuntimeError, match="armed at registry/update"):
            reg.update(slot, ((args[0], 0, {}),))


# -- the known effect against the layered route --------------------------------


def managed_registry(cls, mode, layered=False):
    """A registry in the top two frames under a real protection manager
    in ``mode``, installed, recorder off; ``layered`` forces every store
    onto the layered route by replacing the known-effect step."""
    machine = Machine(MachineConfig(memory_bytes=32 * PAGE, boot_time_ns=0))
    pfns = [machine.memory.num_pages - 2, machine.memory.num_pages - 1]
    kernel = SimpleNamespace(mmu=machine.mmu, recorder=machine.recorder)
    protection = ProtectionManager(kernel, RioConfig(protection=mode))
    reg = cls(machine.bus, pfns[0] * PAGE, 2 * PAGE, protection=protection)
    reg.format()
    protection.install(pfns)
    if layered:
        reg._apply_known_effect = lambda *args: False
    return machine, reg, protection


def observable_state(machine, reg, protection):
    """Everything a registry store can move, and the clock it must not."""
    mmu, memory = machine.mmu, machine.memory
    return (
        machine.clock.now_ns,
        memory.read(reg.base_paddr, reg.region_bytes),
        dataclasses.astuple(machine.bus.stats),
        (mmu.stat_pte_toggles, mmu.generation, mmu.kseg_through_tlb),
        (dict(mmu.tlb_loads), dict(mmu.tlb_stores), dict(mmu._kseg_writable)),
        list(memory._page_gens),
        {pfn: list(record) for pfn, record in memory._watched.items()},
        protection.stat_windows,
        list(reg._free_slots),
        [(e.kind, e.op, dict(e.payload)) for e in machine.recorder.events()],
    )


def entry_frame(reg, slot):
    return (reg.base_paddr + HEADER_SIZE + slot * ENTRY_SIZE) // PAGE


def perturb_or_update(machine, reg, protection, step):
    """Apply one step; return what it returned or raised."""
    op, slot, *args = step
    try:
        if op == "flip":  # a wild bit in an entry, pad included
            entry = reg.base_paddr + HEADER_SIZE + slot * ENTRY_SIZE
            machine.memory.flip_bit(entry + args[0], args[1])
        elif op == "window":  # a frame left writable, or closed again
            pfns = (entry_frame(reg, slot),)
            (protection.open_registry_window if args[0] else protection.close_registry_window)(pfns)
        elif op == "recorder":
            machine.recorder.start() if args[0] else machine.recorder.stop()
        elif op == "arm":  # recording, a crash armed args[0] events ahead; it does nothing
            rec = machine.recorder
            if not rec.enabled:
                rec.start()
            rec.arm_crash(rec.dropped + len(rec.events()) + args[0], lambda event: None)
        elif op == "kseg_through_tlb":
            machine.mmu.kseg_through_tlb = args[0]
        elif op == "watch":
            machine.memory.watch(entry_frame(reg, slot))
        elif op == "crash":
            if args[0]:
                machine.crash("test")
            else:
                machine.crashed = False  # back up, memory and MMU as they were
        elif op == "reference_bus":
            machine.bus.fast_path = not args[0]
        elif op == "store_checker":  # what CODE_PATCHING installs
            machine.bus.store_checker = (lambda vaddr, length, ctx: None) if args[0] else None
        elif op == "free_slot":
            reg.free_slot(slot)
        elif op == "read_entry":
            return reg.read_entry(slot)
        else:
            apply_update(machine, reg, step)
    except Exception as exc:  # both twins must fail alike
        return type(exc), str(exc)
    return None


BOOLS = st.booleans()
PAD = st.integers(ENTRY_SIZE - 4, ENTRY_SIZE - 1)  # the pad's bytes within an entry
STORE = st.one_of(
    UPDATE.filter(lambda update: update[0] != "crash_at_event"),
    st.tuples(st.just("free_slot"), SLOTS),
)
PERTURBATION = st.one_of(
    st.tuples(st.just("read_entry"), SLOTS),
    st.tuples(st.just("flip"), SLOTS, st.integers(0, ENTRY_SIZE - 1) | PAD, st.integers(0, 7)),
    st.tuples(st.just("window"), SLOTS, BOOLS),
    st.tuples(st.just("recorder"), SLOTS, BOOLS),
    st.tuples(st.just("arm"), SLOTS, st.integers(0, 9)),
    st.tuples(st.just("kseg_through_tlb"), SLOTS, BOOLS),
    st.tuples(st.just("watch"), SLOTS),
    st.tuples(st.just("crash"), SLOTS, BOOLS),
    st.tuples(st.just("reference_bus"), SLOTS, BOOLS),
    st.tuples(st.just("store_checker"), SLOTS, BOOLS),
)
#: A store, after none, one or two perturbations.
STEPS = st.tuples(st.lists(PERTURBATION, max_size=2), STORE)


class TestInPlaceUpdates:
    @given(updates=st.lists(UPDATE, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_same_as_decode_modify_write_entry(self, updates):
        in_place = protected_registry(Registry)
        oracle = protected_registry(ReadModifyWriteRegistry)
        for update in updates:
            apply_update(in_place[0], in_place[1], update)
            apply_update(oracle[0], oracle[1], update)
            assert registry_state(*in_place) == registry_state(*oracle), update

    def test_one_load_one_window_one_store(self):
        machine, reg, windows = protected_registry(Registry)
        reg.write_entry(RegistryEntry(slot=3, ino=7, flags=FLAG_VALID, disk_block=None))
        before = registry_state(machine, reg, windows)
        reg.update(3, ((0, 0, {"phys_addr": 5 * PAGE, "checksum": 0xBEEF, "disk_block": 12}),))
        after = registry_state(machine, reg, windows)
        assert [b - a for a, b in zip(before[1], after[1])] == [1, 1, ENTRY_SIZE, ENTRY_SIZE]
        assert (after[2][0] - before[2][0], after[2][1] - before[2][1]) == (1, 1)
        # ... over the entry's one frame, there and back; slot 169 lies
        # across the page edge and opens both.
        assert windows.frames_opened[-1] == (windows.pfns[0],)
        assert after[2][2] - before[2][2] == 2
        reg.update(169, ((FLAG_VALID, 0, {}),))
        assert windows.frames_opened[-1] == tuple(windows.pfns)
        assert machine.mmu.stat_pte_toggles - after[2][2] == 4
        update = [e for e in after[3][len(before[3]):] if e[1] == "registry"]
        assert [(e[2], e[3]) for e in update] == [
            ("update", {"slot": 3, "flags": FLAG_VALID, "phys_addr": 5 * PAGE, "checksum": 0xBEEF})
        ]
        assert reg.read_entry(3) == RegistryEntry(
            slot=3, phys_addr=5 * PAGE, ino=7, flags=FLAG_VALID, disk_block=12, checksum=0xBEEF
        )
        reg.update(3, ((0, 0, {"disk_block": None}),))
        raw = machine.memory.read(reg.base_paddr + HEADER_SIZE + 3 * ENTRY_SIZE, ENTRY_SIZE)
        assert struct.unpack_from("<Q", raw, 32)[0] == NO_DISK_BLOCK

    def test_stale_pad_bytes_are_rewritten_as_zero(self, machine, registry):
        vaddr = registry.entry_vaddr(2)
        machine.bus.store(vaddr + ENTRY_SIZE - 4, b"\xff\xff\xff\xff")
        registry.update(2, ((FLAG_VALID, 0, {}),))
        expected = _ENTRY_FMT.pack(*RegistryEntry(slot=2, flags=FLAG_VALID, disk_block=0).fields())
        assert machine.bus.load(vaddr, ENTRY_SIZE) == expected

    @pytest.mark.parametrize("bad", [{"slot": 5}, {"valid": True}, {"fields": 1}, {"ino": 1, "pad": 0}])
    def test_only_stored_fields_are_accepted(self, machine, registry, bad):
        """Any attribute of ``RegistryEntry`` used to pass: ``slot=5`` was
        a ``setattr`` away from storing the entry into slot 5, and
        ``valid=True`` died with a bare AttributeError."""
        registry.write_entry(RegistryEntry(slot=1, ino=42, flags=FLAG_VALID))
        image, stats = machine.memory.dump_image(), (machine.bus.stats.loads, machine.bus.stats.stores)
        with pytest.raises(ConfigurationError, match="no registry field"):
            registry.update(1, ((0, 0, bad),))
        assert machine.memory.dump_image() == image
        assert (machine.bus.stats.loads, machine.bus.stats.stores) == stats
        assert set(ENTRY_FIELDS) == {
            "phys_addr", "dev", "ino", "file_offset", "size", "flags", "disk_block", "checksum",
        }

    @pytest.mark.parametrize("mode", [ProtectionMode.VM_KSEG, ProtectionMode.NONE])
    @given(steps=st.lists(STEPS, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_known_effect_same_as_the_layered_route(self, mode, steps):
        """An entry store that nothing can observe applies its known net
        effect; against a twin on the layered route — the decode →
        ``setattr`` → ``write_entry`` oracle, its known effect replaced —
        every observable bit agrees after every step, between
        perturbations that move stores off the known effect and back."""
        known = managed_registry(Registry, mode)
        layered = managed_registry(ReadModifyWriteRegistry, mode, layered=True)
        assert observable_state(*known) == observable_state(*layered)
        for perturbations, store in steps:
            for step in (*perturbations, store):
                outcome = perturb_or_update(*known, step)
                assert outcome == perturb_or_update(*layered, step), step
                assert observable_state(*known) == observable_state(*layered), step

    @pytest.mark.parametrize("mode", [ProtectionMode.VM_KSEG, ProtectionMode.NONE])
    @pytest.mark.parametrize(
        "perturbation, known",
        [
            (None, True),
            (("recorder", 0, True), True),  # its events emitted alongside
            (("arm", 0, 1), False),  # a crash armed at the store's window
            (("arm", 0, 3), "NONE"),  # ... at its close: NONE has none
            (("kseg_through_tlb", 0, False), "NONE"),
            (("kseg_through_tlb", 0, True), "VM_KSEG"),
            (("window", 0, True), "NONE"),  # the frame left writable
            (("crash", 0, True), False),
            (("reference_bus", 0, True), False),
            (("store_checker", 0, True), False),
        ],
    )
    @pytest.mark.parametrize("slot", [0, 169])
    def test_the_route_is_chosen_from_observable_state(self, mode, perturbation, known, slot):
        """Slot 169 straddles a page edge: always layered.  A store whose
        events include an armed crash's is too; the recorder alone is not
        a reason."""
        machine, reg, protection = managed_registry(Registry, mode)
        if perturbation is not None:
            perturb_or_update(machine, reg, protection, perturbation)
        taken = []
        apply = reg._apply_known_effect
        reg._apply_known_effect = lambda *args: taken.append(apply(*args)) or taken[-1]
        perturb_or_update(machine, reg, protection, ("update_flags", slot, FLAG_DIRTY, 0))
        expected = known is True or known == mode.name
        assert taken == [expected and slot != 169]
