"""Tests for PhysicalMemory."""

import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineCheck
from repro.hw import Machine, MachineConfig
from repro.hw.bus import AccessContext
from repro.hw.memory import PAGE_SIZE, ZERO_CHECKSUM, PhysicalMemory
from repro.isa.interpreter import MAX_STEPS
from repro.isa.routines import PROC_MAGIC, _native_sched_tick
from repro.util.checksum import fletcher32


def make_mem(pages=4):
    return PhysicalMemory(pages * PAGE_SIZE)


class TestConstruction:
    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_page_count(self):
        assert make_mem(pages=4).num_pages == 4


class TestReadWrite:
    def test_zero_initialised(self):
        mem = make_mem()
        assert mem.read(0, 100) == b"\x00" * 100

    def test_roundtrip(self):
        mem = make_mem()
        mem.write(10, b"hello rio")
        assert mem.read(10, 9) == b"hello rio"

    def test_cross_page_write(self):
        mem = make_mem()
        data = bytes(range(256)) * 80  # 20480 bytes, spans 3 pages
        mem.write(4000, data)
        assert mem.read(4000, len(data)) == data

    def test_out_of_range_read_raises(self):
        mem = make_mem(pages=1)
        with pytest.raises(MachineCheck):
            mem.read(8192 - 4, 8)

    def test_out_of_range_write_raises(self):
        mem = make_mem(pages=1)
        with pytest.raises(MachineCheck):
            mem.write(8190, b"abcd")

    def test_negative_address_raises(self):
        with pytest.raises(MachineCheck):
            make_mem().read(-1, 1)

    def test_u64_roundtrip(self):
        mem = make_mem()
        mem.write(64, (0xDEADBEEFCAFEF00D).to_bytes(8, "little"))
        assert int.from_bytes(mem.read(64, 8), "little") == 0xDEADBEEFCAFEF00D

    def test_u32_roundtrip(self):
        mem = make_mem()
        mem.write(12, (0x12345678).to_bytes(4, "little"))
        assert int.from_bytes(mem.read(12, 4), "little") == 0x12345678

    def test_fill(self):
        mem = make_mem()
        mem.write(100, b"\xab" * 50)
        assert mem.read(100, 50) == b"\xab" * 50
        assert mem.read(99, 1) == b"\x00"

    @given(st.integers(0, 8192 * 4 - 64), st.binary(min_size=1, max_size=64))
    def test_write_then_read_anywhere(self, addr, data):
        mem = make_mem()
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data


class TestImageOps:
    def test_dump_and_load_image(self):
        mem = make_mem(pages=2)
        mem.write(100, b"persist me")
        image = mem.dump_image()
        fresh = make_mem(pages=2)
        fresh.write(0, image)
        assert fresh.read(100, 10) == b"persist me"

    def test_erase_models_pc_reset(self):
        mem = make_mem()
        mem.write(0, b"gone after PC reset")
        mem.erase()
        assert mem.read(0, 19) == b"\x00" * 19

    def test_flip_bit(self):
        mem = make_mem()
        mem.write(500, b"\x00")
        mem.flip_bit(500, 3)
        assert mem.read(500, 1) == bytes([1 << 3])
        mem.flip_bit(500, 3)
        assert mem.read(500, 1) == b"\x00"

    def test_flip_bit_validates(self):
        mem = make_mem()
        with pytest.raises(ValueError):
            mem.flip_bit(0, 8)

    def test_page_checksum_changes_on_write(self):
        mem = make_mem()
        before = mem.page_checksum(0)
        mem.write(8, b"x")
        assert mem.page_checksum(0) != before


PAGE = 8192

mutation_st = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 8 * PAGE - 1), st.binary(min_size=1, max_size=3 * PAGE)),
    st.tuples(st.just("flip"), st.integers(0, 8 * PAGE - 1), st.integers(0, 7)),
    st.tuples(st.just("erase")),
)


class TestReadsDoNotAllocate:
    """Only mutators make a frame resident; reads see a shared zero page."""

    def test_reads_of_untouched_memory_leave_it_unallocated(self):
        mem = make_mem(pages=64)
        mem.write(5 * PAGE + 10, b"one resident frame")
        gens = [mem.generation(pfn) for pfn in range(64)]
        assert mem.dump_image() == mem.read(0, mem.size)
        assert mem.read(7 * PAGE - 3, 2 * PAGE + 6) == bytes(2 * PAGE + 6)
        assert mem.read(9 * PAGE, 16) == bytes(16)
        assert mem.page_checksum(11) == mem.page_checksum(12)
        assert mem.read(13 * PAGE, 8) == bytes(8)
        assert sorted(mem._pages) == [5]
        assert [mem.generation(pfn) for pfn in range(64)] == gens

    def test_frame_is_read_only_for_untouched_frames(self):
        mem = make_mem()
        assert mem.frame(2) == bytes(PAGE) and isinstance(mem.frame(2), bytes)
        mem.write(2 * PAGE, b"x")
        assert mem.frame(2) is mem.page(2)
        with pytest.raises(MachineCheck):
            mem.frame(4)

    @given(
        st.lists(mutation_st, max_size=12),
        st.lists(st.tuples(st.integers(0, 8 * PAGE), st.integers(0, 8 * PAGE)), max_size=6),
    )
    def test_dump_image_matches_a_flat_shadow(self, mutations, reads):
        mem = make_mem(pages=8)
        shadow = bytearray(8 * PAGE)
        touched: set[int] = set()
        for op in mutations:
            if op[0] == "write":
                data = op[2][: 8 * PAGE - op[1]]
                mem.write(op[1], data)
                shadow[op[1] : op[1] + len(data)] = data
                touched.update(range(op[1] // PAGE, (op[1] + len(data) - 1) // PAGE + 1))
            elif op[0] == "flip":
                mem.flip_bit(op[1], op[2])
                shadow[op[1]] ^= 1 << op[2]
                touched.add(op[1] // PAGE)
            else:
                mem.erase()
                shadow[:] = bytes(len(shadow))
                touched.clear()
        assert mem.dump_image() == shadow
        for addr, length in reads:
            length = min(length, 8 * PAGE - addr)
            assert mem.read(addr, length) == shadow[addr : addr + length]
        assert set(mem._pages) == touched


# -- the known checksum ---------------------------------------------------------


def _board() -> Machine:
    """Frames 4, 5 and 6 hold content; virtual pages 0 and 1 map 4 and 5.
    A one-node chain hangs off the head word at virtual 0 (node at 64)."""
    machine = Machine(MachineConfig(memory_bytes=16 * PAGE, boot_time_ns=0))
    machine.mmu.map(0, 4)
    machine.mmu.map(1, 5)
    memory, rng = machine.memory, random.Random(4)
    for pfn in (4, 5, 6):
        memory.write(pfn * PAGE, rng.randbytes(PAGE))
    memory.write(4 * PAGE, struct.pack("<Q", 64))
    memory.write(4 * PAGE + 64, struct.pack("<QQQ", PROC_MAGIC, 0, 41))
    return machine


def _reference(machine: Machine) -> None:
    machine.bus.fast_path = False


def _checker(machine: Machine) -> None:
    machine.bus.store_checker = lambda vaddr, length, ctx: None


def _walk(machine: Machine) -> None:
    _native_sched_tick(machine.bus, [0], AccessContext(), MAX_STEPS)


#: Every way frame 4 (and for some, 5) changes: ``(setup, mutation)``.
MUTATORS = {
    "write": (None, lambda m: m.memory.write(4 * PAGE + 100, b"new bytes")),
    "write-across-frames": (None, lambda m: m.memory.write(5 * PAGE - 3, b"straddles")),
    "write_u64": (None, lambda m: m.memory.write(4 * PAGE + 8, (1).to_bytes(8, "little"))),
    "fill": (None, lambda m: m.memory.write(4 * PAGE + 8, b"\x5a" * 16)),
    "flip_bit": (None, lambda m: m.memory.flip_bit(4 * PAGE + 9, 2)),
    "erase": (None, lambda m: m.memory.erase()),
    "load_image": (
        None, lambda m: m.memory.write(0, random.Random(5).randbytes(m.memory.size))
    ),
    "copy_frame": (None, lambda m: m.memory.copy_frame(6, 4)),
    "bus.store": (None, lambda m: m.bus.store(100, b"new bytes")),
    "bus.store-across-pages": (None, lambda m: m.bus.store(PAGE - 3, b"straddles")),
    "bus.store-reference": (_reference, lambda m: m.bus.store(100, b"new bytes")),
    "bus.store-checker": (_checker, lambda m: m.bus.store(100, b"new bytes")),
    "bus.store_u64": (None, lambda m: m.bus.store_u64(8, 0x0123456789ABCDEF)),
    "bus.store_u64-reference": (_reference, lambda m: m.bus.store_u64(8, 0x0123456789ABCDEF)),
    "bus.store_u8": (None, lambda m: m.bus.store_u8(3, 0x77)),
    "bus.store_u8-reference": (_reference, lambda m: m.bus.store_u8(3, 0x77)),
    "bus.store_frame": (None, lambda m: struct.pack_into("<Q", m.bus.store_frame(16), 16, 7)),
    # The page port as the kernel's walkers use it: the second walk over
    # an unchanged chain replays the first one's plan, one store_frame and
    # the counter bumped in place.
    "page-port-walk": (_walk, _walk),
}


class TestKnownChecksum:
    """``page_checksum`` answers from the frame's known checksum while its
    generation is unchanged; every mutator moves the generation, so after
    any of them the answer is the frame's Fletcher-32 again."""

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_every_mutator_invalidates_it(self, name):
        setup, mutate = MUTATORS[name]
        machine = _board()
        memory = machine.memory
        if setup is not None:
            setup(machine)
        before = {pfn: memory.page_checksum(pfn) for pfn in (4, 5, 6)}
        assert all(memory.known_checksum(pfn) == before[pfn] for pfn in before)
        mutate(machine)
        after = {pfn: fletcher32(memory.frame(pfn)) for pfn in (4, 5, 6)}
        assert after[4] != before[4]  # a stale answer would be visible
        for pfn in (4, 5, 6):
            assert memory.page_checksum(pfn) == after[pfn], pfn

    def test_a_never_written_frame_is_the_zero_constant(self):
        memory = make_mem()
        assert memory.known_checksum(1) == memory.page_checksum(1) == ZERO_CHECKSUM
        assert ZERO_CHECKSUM == fletcher32(bytes(PAGE)) == fletcher32(b"")
        assert not memory._pages and not memory._checksums
        memory.write(PAGE, bytes(4))  # resident now, however zero: not known
        assert memory.known_checksum(1) is None
        memory.erase()
        assert memory.known_checksum(1) == ZERO_CHECKSUM
        with pytest.raises(MachineCheck):
            memory.page_checksum(4)

    def test_copy_frame_carries_a_current_checksum(self):
        memory = _board().memory
        memory.page_checksum(6)
        memory.copy_frame(6, 7)
        assert memory.frame(7) == memory.frame(6)
        assert memory.known_checksum(7) == fletcher32(memory.frame(7))  # no pass needed
        memory.copy_frame(8, 7)  # a never-written source: all zeros
        assert memory.frame(7) == bytes(PAGE) and memory.known_checksum(7) == ZERO_CHECKSUM

    def test_copy_frame_never_carries_a_stale_checksum(self):
        machine = _board()
        memory = machine.memory
        memory.page_checksum(4)
        memory.page_checksum(7)  # the destination's own, about to be stale too
        machine.bus.store_u64(8, 0xFEEDFACE)  # frame 4 changes behind the record
        memory.copy_frame(4, 7)
        assert memory.known_checksum(7) is None
        assert memory.page_checksum(7) == fletcher32(memory.frame(4))

    def test_record_checksum_holds_until_the_next_mutation(self):
        memory = _board().memory
        memory.record_checksum(4, 0x1234)  # what a caller derived, taken on trust
        assert memory.page_checksum(4) == 0x1234
        memory.write(4 * PAGE, b"x")
        assert memory.page_checksum(4) == fletcher32(memory.frame(4))
