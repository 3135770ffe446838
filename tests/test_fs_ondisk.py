"""Tests for on-disk structure serialization (layout version 2).

Covers the satellite requirements of the verifier work: every
deserializer turns truncated/oversized/garbage input into
``CorruptStructure`` (or a None slot for directory records) — never a
bare ``struct.error`` — and every structure round-trips bit-exactly
under Hypothesis, version and checksum fields included.
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.fs.ondisk import (
    CorruptStructure,
    DIRENT_SIZE,
    DirEntry,
    INODE_SIZE,
    Inode,
    ONDISK_VERSION,
    REGION_SUMMARY_OFFSET,
    RegionKind,
    SUPERBLOCK_CHECKSUM_OFFSET,
    SUPERBLOCK_HEADER_SIZE,
    Superblock,
    allocated_slots,
    pack_dirents,
    find_dirent,
    parse_dirents,
)
from repro.fs.types import BLOCK_SIZE, FileType, N_DIRECT


def sample_superblock(**overrides):
    fields = dict(
        total_blocks=1024,
        bitmap_start=1,
        bitmap_blocks=1,
        inode_start=2,
        inode_blocks=8,
        data_start=10,
    )
    fields.update(overrides)
    return Superblock(**fields)


class TestSuperblock:
    def test_roundtrip(self):
        sb = sample_superblock(
            journal_start=10, journal_blocks=4, data_start=14, clean=False, mount_count=3
        )
        parsed = Superblock.from_bytes(sb.to_bytes())
        assert parsed == sb

    def test_block_sized(self):
        assert len(sample_superblock().to_bytes()) == BLOCK_SIZE

    def test_version_field_serialized(self):
        data = sample_superblock().to_bytes()
        version = struct.unpack_from("<H", data, 4)[0]
        assert version == ONDISK_VERSION == 2

    def test_bad_magic_raises(self):
        data = bytearray(sample_superblock().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(CorruptStructure):
            Superblock.from_bytes(bytes(data))

    def test_bad_version_raises(self):
        data = bytearray(sample_superblock().to_bytes())
        struct.pack_into("<H", data, 4, ONDISK_VERSION + 1)
        with pytest.raises(CorruptStructure, match="version"):
            Superblock.from_bytes(bytes(data))

    def test_checksum_detects_any_header_flip(self):
        data = bytearray(sample_superblock().to_bytes())
        # Flip a byte in the clean/mount area: magic and geometry still
        # parse, only the checksum can catch it.
        data[45] ^= 0x01
        with pytest.raises(CorruptStructure, match="checksum"):
            Superblock.from_bytes(bytes(data))

    def test_torn_header_detected(self):
        # A torn sector write scrambles the first half of the header the
        # way the disk model does (XOR 0xA5); magic dies with it.
        data = bytearray(sample_superblock().to_bytes())
        for i in range(256):
            data[i] ^= 0xA5
        with pytest.raises(CorruptStructure):
            Superblock.from_bytes(bytes(data))

    def test_bad_geometry_raises(self):
        sb = sample_superblock(data_start=0)
        with pytest.raises(CorruptStructure):
            Superblock.from_bytes(sb.to_bytes())

    def test_overlapping_regions_raise(self):
        sb = sample_superblock(inode_start=1)  # overlaps the bitmap
        with pytest.raises(CorruptStructure):
            Superblock.from_bytes(sb.to_bytes())

    def test_summary_mismatch_raises(self):
        # Rewrite one summary record and re-seal the checksum: only the
        # summary-vs-geometry cross-check can notice.
        from repro.util.checksum import fletcher32

        data = bytearray(sample_superblock().to_bytes())
        struct.pack_into("<I", data, REGION_SUMMARY_OFFSET + 4, 999)
        data[SUPERBLOCK_CHECKSUM_OFFSET : SUPERBLOCK_CHECKSUM_OFFSET + 4] = b"\x00" * 4
        struct.pack_into(
            "<I",
            data,
            SUPERBLOCK_CHECKSUM_OFFSET,
            fletcher32(bytes(data[:SUPERBLOCK_HEADER_SIZE])),
        )
        with pytest.raises(CorruptStructure, match="summary"):
            Superblock.from_bytes(bytes(data))

    def test_truncated_raises(self):
        data = sample_superblock().to_bytes()
        for cut in (0, 1, 63, SUPERBLOCK_HEADER_SIZE - 1):
            with pytest.raises(CorruptStructure):
                Superblock.from_bytes(data[:cut])

    def test_garbage_raises_not_struct_error(self):
        for filler in (b"\x00", b"\xff", b"\xa5"):
            with pytest.raises(CorruptStructure):
                Superblock.from_bytes(filler * BLOCK_SIZE)

    def test_region_summaries_cover_layout(self):
        sb = sample_superblock(journal_start=10, journal_blocks=4, data_start=14)
        kinds = [kind for kind, _, _ in sb.region_summaries()]
        assert kinds == [
            RegionKind.SUPER,
            RegionKind.BITMAP,
            RegionKind.INODE,
            RegionKind.JOURNAL,
            RegionKind.DATA,
            RegionKind.BACKUP,
        ]

    def test_num_inodes(self):
        assert sample_superblock().num_inodes == 8 * (BLOCK_SIZE // INODE_SIZE)

    @given(
        inode_blocks=st.integers(1, 32),
        journal_blocks=st.integers(0, 16),
        clean=st.booleans(),
        mount_count=st.integers(0, 255),
    )
    def test_property_roundtrip_byte_identical(
        self, inode_blocks, journal_blocks, clean, mount_count
    ):
        inode_start = 2
        journal_start = inode_start + inode_blocks if journal_blocks else 0
        data_start = inode_start + inode_blocks + journal_blocks
        sb = Superblock(
            total_blocks=data_start + 64,
            bitmap_start=1,
            bitmap_blocks=1,
            inode_start=inode_start,
            inode_blocks=inode_blocks,
            data_start=data_start,
            journal_start=journal_start,
            journal_blocks=journal_blocks,
            clean=clean,
            mount_count=mount_count,
        )
        packed = sb.to_bytes()
        parsed = Superblock.from_bytes(packed)
        assert parsed == sb
        assert parsed.to_bytes() == packed  # pack -> unpack -> pack


class TestInode:
    def test_roundtrip(self):
        inode = Inode(
            ino=7,
            ftype=FileType.REGULAR,
            nlink=2,
            size=123456,
            mtime_ns=999,
            direct=[3, 0, 5] + [0] * (N_DIRECT - 3),
            indirect=77,
            generation=4,
        )
        parsed = Inode.from_bytes(7, inode.to_bytes())
        assert parsed == inode

    def test_fixed_size(self):
        assert len(Inode(ino=1).to_bytes()) == INODE_SIZE

    def test_bad_magic_strict_raises(self):
        data = bytearray(Inode(ino=1, ftype=FileType.REGULAR).to_bytes())
        data[0] ^= 0x55
        with pytest.raises(CorruptStructure):
            Inode.from_bytes(1, bytes(data), strict=True)

    def test_bad_magic_lenient_returns_free(self):
        data = bytearray(Inode(ino=1, ftype=FileType.REGULAR).to_bytes())
        data[0] ^= 0x55
        inode = Inode.from_bytes(1, bytes(data), strict=False)
        assert not inode.is_allocated

    def test_bad_type_strict_raises(self):
        data = bytearray(Inode(ino=1, ftype=FileType.REGULAR).to_bytes())
        data[2] = 0x7F
        with pytest.raises(CorruptStructure):
            Inode.from_bytes(1, bytes(data), strict=True)

    def test_every_type_byte_from_any_buffer(self):
        """All 256 raw type bytes, read in place out of a larger buffer."""
        block = bytearray(b"\xee" * INODE_SIZE + Inode(ino=1).to_bytes() + b"\xee" * 8)
        for raw in range(256):
            block[INODE_SIZE + 2] = raw
            for data in (memoryview(block)[INODE_SIZE:], bytes(block[INODE_SIZE:])):
                lenient = Inode.from_bytes(1, data, strict=False)
                if raw in tuple(FileType):
                    assert lenient.ftype is FileType(raw)
                    assert Inode.from_bytes(1, data).ftype is FileType(raw)
                else:
                    assert lenient.ftype is FileType.FREE
                    with pytest.raises(CorruptStructure, match=f"inode 1: bad type {raw}$"):
                        Inode.from_bytes(1, data)

    def test_truncated_raises(self):
        data = Inode(ino=1, ftype=FileType.REGULAR).to_bytes()
        for cut in (0, 1, 79):
            with pytest.raises(CorruptStructure):
                Inode.from_bytes(1, data[:cut])

    def test_garbage_never_struct_error(self):
        for filler in (b"\xff", b"\xa5"):
            with pytest.raises(CorruptStructure):
                Inode.from_bytes(1, filler * INODE_SIZE, strict=True)

    def test_wrong_direct_count_rejected_at_pack(self):
        inode = Inode(ino=1, ftype=FileType.REGULAR, direct=[0] * (N_DIRECT - 1))
        with pytest.raises(Exception):
            inode.to_bytes()

    @given(st.integers(0, 2**63), st.integers(0, 65535))
    def test_size_nlink_roundtrip(self, size, nlink):
        inode = Inode(ino=1, ftype=FileType.REGULAR, nlink=nlink, size=size)
        parsed = Inode.from_bytes(1, inode.to_bytes())
        assert parsed.size == size and parsed.nlink == nlink

    @given(
        ftype=st.sampled_from([FileType.REGULAR, FileType.DIRECTORY, FileType.SYMLINK]),
        nlink=st.integers(0, 65535),
        size=st.integers(0, 2**64 - 1),
        mtime_ns=st.integers(0, 2**64 - 1),
        direct=st.lists(st.integers(0, 2**32 - 1), min_size=N_DIRECT, max_size=N_DIRECT),
        indirect=st.integers(0, 2**32 - 1),
        generation=st.integers(0, 2**32 - 1),
    )
    def test_property_roundtrip_byte_identical(
        self, ftype, nlink, size, mtime_ns, direct, indirect, generation
    ):
        inode = Inode(
            ino=5,
            ftype=ftype,
            nlink=nlink,
            size=size,
            mtime_ns=mtime_ns,
            direct=direct,
            indirect=indirect,
            generation=generation,
        )
        packed = inode.to_bytes()
        parsed = Inode.from_bytes(5, packed)
        assert parsed == inode
        assert parsed.to_bytes() == packed


class TestAllocatedSlots:
    """The block-at-a-time scan must agree with a per-inode non-strict decode."""

    #: Good inodes of every type, a bad magic, a bad type, never-used, noise.
    slot_st = st.one_of(
        st.sampled_from(list(FileType)).map(lambda t: Inode(ino=0, ftype=t, nlink=1).to_bytes()),
        st.just(b"\xff\xff" + Inode(ino=0, ftype=FileType.REGULAR).to_bytes()[2:]),
        st.integers(4, 255).map(
            lambda t: Inode(ino=0).to_bytes()[:2] + bytes([t]) + bytes(INODE_SIZE - 3)
        ),
        st.just(bytes(INODE_SIZE)),
        st.binary(min_size=INODE_SIZE, max_size=INODE_SIZE),
    )

    @given(st.lists(slot_st, min_size=BLOCK_SIZE // INODE_SIZE, max_size=BLOCK_SIZE // INODE_SIZE))
    def test_matches_per_inode_oracle(self, slots):
        oracle = [Inode.from_bytes(i, raw, strict=False).is_allocated for i, raw in enumerate(slots)]
        assert allocated_slots(b"".join(slots)) == oracle
        assert allocated_slots(memoryview(bytearray(b"".join(slots)))) == oracle


class TestDirEntry:
    def test_roundtrip(self):
        entry = DirEntry(42, "hello.txt")
        assert DirEntry.from_bytes(entry.to_bytes()) == entry

    def test_fixed_size(self):
        assert len(DirEntry(1, "x").to_bytes()) == DIRENT_SIZE

    def test_empty_slot_is_none(self):
        assert DirEntry.from_bytes(b"\x00" * DIRENT_SIZE) is None

    def test_name_too_long_rejected(self):
        with pytest.raises(Exception):
            DirEntry(1, "x" * 28).to_bytes()

    def test_nul_in_name_rejected(self):
        with pytest.raises(Exception):
            DirEntry(1, "a\x00b").to_bytes()

    def test_max_name_ok(self):
        entry = DirEntry(1, "y" * 27)
        assert DirEntry.from_bytes(entry.to_bytes()) == entry

    def test_garbled_name_length_is_none(self):
        data = bytearray(DirEntry(5, "ok").to_bytes())
        data[4] = 200  # impossible name length
        assert DirEntry.from_bytes(bytes(data)) is None

    def test_nul_spanning_name_is_none(self):
        data = bytearray(DirEntry(5, "ab").to_bytes())
        data[4] = 10  # name_len now covers the zero padding
        assert DirEntry.from_bytes(bytes(data)) is None

    def test_truncated_is_none(self):
        assert DirEntry.from_bytes(DirEntry(3, "abc").to_bytes()[:-1]) is None

    @given(
        ino=st.integers(1, 2**32 - 1),
        name=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=27
        ),
    )
    def test_property_roundtrip_byte_identical(self, ino, name):
        entry = DirEntry(ino, name)
        packed = entry.to_bytes()
        parsed = DirEntry.from_bytes(packed)
        assert parsed == entry
        assert parsed.to_bytes() == packed

    def test_pack_and_parse(self):
        entries = [DirEntry(2, "."), DirEntry(2, ".."), DirEntry(9, "file")]
        data = pack_dirents(entries, 1)
        assert len(data) == BLOCK_SIZE
        assert parse_dirents(data) == entries

    def test_parse_skips_holes(self):
        data = DirEntry(1, "a").to_bytes() + b"\x00" * DIRENT_SIZE + DirEntry(2, "b").to_bytes()
        assert [e.name for e in parse_dirents(data)] == ["a", "b"]


class TestDirentScans:
    """``parse_dirents`` / ``find_dirent`` scan a block in one pass; their
    oracle is ``DirEntry.from_bytes`` applied slot by slot."""

    @staticmethod
    def _slotwise(data):
        return [
            (off, entry)
            for off in range(0, len(data) - DIRENT_SIZE + 1, DIRENT_SIZE)
            if (entry := DirEntry.from_bytes(bytes(data[off : off + DIRENT_SIZE]))) is not None
        ]

    # Records drawn from: empty, well-formed (few distinct names, so
    # duplicates occur), and raw noise (bad lengths, NULs, bad UTF-8).
    record_st = st.one_of(
        st.just(bytes(DIRENT_SIZE)),
        st.builds(
            lambda ino, name: DirEntry(ino, name).to_bytes(),
            st.integers(1, 9),
            st.sampled_from(["a", "ab", "b", "é", "y" * 27]),
        ),
        st.binary(min_size=DIRENT_SIZE, max_size=DIRENT_SIZE),
        st.builds(
            lambda ino, size, raw: ino.to_bytes(4, "little") + bytes([size]) + raw,
            st.integers(0, 3),
            st.integers(0, 30),
            st.sampled_from([b"ab" + bytes(25), b"a\x00b" + bytes(24), b"\xff\xfe" + bytes(25)]),
        ),
    )

    @given(st.lists(record_st, max_size=24), st.integers(0, DIRENT_SIZE - 1))
    def test_scans_match_the_slotwise_oracle(self, records, ragged):
        data = b"".join(records) + b"\x01" * ragged  # a trailing partial record is ignored
        oracle = self._slotwise(data)
        for buffer in (data, bytearray(data), memoryview(data)):
            assert parse_dirents(buffer) == [entry for _, entry in oracle]
        for name in ("a", "ab", "b", "é", "y" * 27, "absent", "", "a\x00b", "z" * 28):
            expected = next(((off, e) for off, e in oracle if e.name == name), None)
            assert find_dirent(data, name) == expected

    def test_mangled_record_is_skipped_not_raised(self):
        good = DirEntry(7, "ab").to_bytes()
        bad_len = bytearray(good)
        bad_len[4] = 200
        spans_nul = bytearray(good)
        spans_nul[4] = 10
        data = bytes(bad_len) + bytes(spans_nul) + good
        assert parse_dirents(data) == [DirEntry(7, "ab")]
        assert find_dirent(data, "ab") == (2 * DIRENT_SIZE, DirEntry(7, "ab"))
