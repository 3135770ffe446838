"""Tests for PhysicalMemory."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineCheck
from repro.hw.memory import PhysicalMemory


def make_mem(pages=4, page_size=8192):
    return PhysicalMemory(pages * page_size, page_size)


class TestConstruction:
    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(8192 + 1, 8192)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0, 8192)

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
        mem = make_mem(page_size=8192)
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
        mem.write_u64(64, 0xDEADBEEFCAFEF00D)
        assert mem.read_u64(64) == 0xDEADBEEFCAFEF00D

    def test_u32_roundtrip(self):
        mem = make_mem()
        mem.write_u32(12, 0x12345678)
        assert mem.read_u32(12) == 0x12345678

    def test_fill(self):
        mem = make_mem()
        mem.fill(100, 50, 0xAB)
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
        fresh.load_image(image)
        assert fresh.read(100, 10) == b"persist me"

    def test_load_image_size_mismatch(self):
        with pytest.raises(ValueError):
            make_mem(pages=2).load_image(b"\x00" * 10)

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
        assert mem.read_u64(13 * PAGE) == 0
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
