"""The independent on-disk-format verifier (``repro.fs.dissect``).

Covers the cstruct compiler, the layout declarations, every finding
kind the parser can emit, the divergence protocol against fsck, the
image container, and — mechanically — the verifier's independence from
the kernel-side serializers it exists to double-check.
"""

from __future__ import annotations

import ast
import json
import pathlib
import struct

import pytest

import repro.fs.dissect as dissect_pkg
from repro.fs.dissect import (
    DivergenceReport,
    DissectReport,
    Finding,
    FindingKind,
    ImageFormatError,
    IMAGE_MAGIC,
    MAX_FINDINGS,
    compare_verdicts,
    dissect_image,
    dump_image,
    image_sha256,
    install,
    load_image,
    second_opinion,
    snapshot,
)
from repro.fs.dissect import layout
from repro.fs.dissect.cstructs import CStruct, CStructError, TruncatedRecord
from repro.fs.ondisk import (
    BLOCK_SIZE,
    DIRENT_SIZE,
    INODE_SIZE,
    INODES_PER_BLOCK,
    N_DIRECT,
    DirEntry,
    FileType,
    Inode,
    Superblock,
)
from repro.reliability.campaign import system_spec_for
from repro.system import build_system

# -- image-building helpers ---------------------------------------------------


def build_flushed_image(system: str = "rio_prot", blocks: int = 128) -> bytearray:
    """A small populated file system, fully flushed, as raw image bytes."""
    sys_ = build_system(system_spec_for(system, fs_blocks=blocks))
    fd = sys_.vfs.open("/hello", create=True)
    sys_.vfs.write(fd, b"rio file cache")
    sys_.vfs.close(fd)
    sys_.vfs.mkdir("/sub")
    fd = sys_.vfs.open("/sub/big", create=True)
    sys_.vfs.write(fd, b"x" * (BLOCK_SIZE + 100))  # spans two data blocks
    sys_.vfs.close(fd)
    sys_.fs.flush_data(sync=True)
    sys_.fs.flush_metadata(sync=True)
    sys_.drain_disks()
    return bytearray(bytes(snapshot(sys_.disk)))


_BASE_IMAGE: bytearray | None = None


@pytest.fixture
def image() -> bytearray:
    """A fresh mutable copy of one shared clean base image."""
    global _BASE_IMAGE
    if _BASE_IMAGE is None:
        _BASE_IMAGE = build_flushed_image()
    return bytearray(_BASE_IMAGE)


def read_sb(image: bytearray) -> Superblock:
    return Superblock.from_bytes(bytes(image[:BLOCK_SIZE]))


def inode_offset(sb: Superblock, ino: int) -> int:
    return sb.inode_start * BLOCK_SIZE + ino * INODE_SIZE


def read_inode(image: bytearray, sb: Superblock, ino: int) -> Inode:
    off = inode_offset(sb, ino)
    return Inode.from_bytes(ino, bytes(image[off : off + INODE_SIZE]))


def write_inode(image: bytearray, sb: Superblock, inode: Inode) -> None:
    off = inode_offset(sb, inode.ino)
    image[off : off + INODE_SIZE] = inode.to_bytes()


def find_free_ino(image: bytearray, sb: Superblock) -> int:
    for ino in range(1, sb.inode_blocks * INODES_PER_BLOCK):
        off = inode_offset(sb, ino)
        if image[off : off + INODE_SIZE] == b"\x00" * INODE_SIZE:
            return ino
    raise AssertionError("no free inode slot in the test image")


def bitmap_bit(image: bytearray, sb: Superblock, block: int) -> int:
    base = sb.bitmap_start * BLOCK_SIZE
    return image[base + block // 8] >> (block % 8) & 1


def set_bitmap_bit(image: bytearray, sb: Superblock, block: int, value: int) -> None:
    base = sb.bitmap_start * BLOCK_SIZE
    if value:
        image[base + block // 8] |= 1 << (block % 8)
    else:
        image[base + block // 8] &= ~(1 << (block % 8)) & 0xFF


def find_free_data_block(image: bytearray, sb: Superblock) -> int:
    for block in range(sb.data_start, sb.total_blocks - 1):
        if not bitmap_bit(image, sb, block):
            return block
    raise AssertionError("no free data block in the test image")


def add_root_dirent(image: bytearray, sb: Superblock, entry: DirEntry) -> None:
    """Write a directory record into the root directory's first free slot."""
    root = read_inode(image, sb, sb.root_ino)
    block = root.direct[0]
    base = block * BLOCK_SIZE
    for off in range(base, base + BLOCK_SIZE, DIRENT_SIZE):
        if image[off : off + 4] == b"\x00\x00\x00\x00":
            image[off : off + DIRENT_SIZE] = entry.to_bytes()
            return
    raise AssertionError("root directory block is full")


def add_ghost_inode(
    image: bytearray, sb: Superblock, *, size: int = 0, claim_block: int | None = None
) -> int:
    """Link a new inode as /ghost with one claimed data block.

    With ``size=0`` the claimed block lies wholly beyond end-of-file —
    structural damage fsck does not look for but dissect does, which is
    the canonical divergent image.
    """
    ino = find_free_ino(image, sb)
    block = claim_block if claim_block is not None else find_free_data_block(image, sb)
    direct = [0] * N_DIRECT
    direct[0] = block
    write_inode(
        image,
        sb,
        Inode(ino=ino, ftype=FileType.REGULAR, nlink=1, size=size, direct=direct),
    )
    set_bitmap_bit(image, sb, block, 1)
    add_root_dirent(image, sb, DirEntry(ino, "ghost"))
    return ino


def root_entry_ino(image: bytearray, sb: Superblock, name: str) -> int:
    base = read_inode(image, sb, sb.root_ino).direct[0] * BLOCK_SIZE
    for off in range(base, base + BLOCK_SIZE, DIRENT_SIZE):
        entry = DirEntry.from_bytes(bytes(image[off : off + DIRENT_SIZE]))
        if entry is not None and entry.name == name:
            return entry.ino
    raise AssertionError(f"no /{name} in the test image")


def smash_nlink(image: bytearray, sb: Superblock, ino: int, nlink: int) -> None:
    inode = read_inode(image, sb, ino)
    inode.nlink = nlink
    write_inode(image, sb, inode)


def kinds(report: DissectReport) -> set:
    return {f.kind for f in report.findings}


# -- the cstruct compiler -----------------------------------------------------


class TestCStructs:
    def test_offsets_and_size(self):
        cs = CStruct("demo", "uint32 a;\nuint16 b;\nuint8 c[2];\nuint64 d;")
        assert {f.name: f.offset for f in cs.fields} == {"a": 0, "b": 4, "c": 6, "d": 8}
        assert cs.size == 16

    def test_unpack_values_arrays_and_char(self):
        cs = CStruct("demo", "uint16 x;\nuint32 arr[3];\nchar tag[4];")
        data = struct.pack("<HIII4s", 7, 1, 2, 3, b"RIOF")
        rec = cs.unpack(data)
        assert rec.x == 7 and rec.arr == (1, 2, 3) and rec.tag == b"RIOF"

    def test_pad_fields_parsed_but_dropped(self):
        cs = CStruct("demo", "uint32 a;\nchar pad0[4];\nuint32 b;")
        rec = cs.unpack(struct.pack("<I4sI", 1, b"\xff" * 4, 2))
        assert rec.a == 1 and rec.b == 2
        assert not hasattr(rec, "pad0")

    def test_comments_and_blank_lines_ignored(self):
        cs = CStruct("demo", "\n// header\nuint32 a;  // the a\n\nuint32 b;\n")
        assert cs.size == 8

    def test_truncated_raises_truncated_record(self):
        cs = CStruct("demo", "uint64 a;")
        with pytest.raises(TruncatedRecord):
            cs.unpack(b"\x00" * 7)

    def test_extra_bytes_are_ignored(self):
        cs = CStruct("demo", "uint16 a;")
        assert cs.unpack(b"\x05\x00" + b"junk").a == 5

    def test_bad_definitions_raise_compile_time(self):
        with pytest.raises(CStructError):
            CStruct("demo", "float x;")
        with pytest.raises(CStructError):
            CStruct("demo", "uint32;")


# -- the layout declarations --------------------------------------------------


class TestLayout:
    def test_record_sizes_match_the_documented_layout(self):
        assert layout.SUPERBLOCK.size == 64
        assert layout.REGION_SUMMARY.size == 16
        assert layout.INODE.size == 80
        assert layout.DIRENT.size == 32

    def test_own_fletcher32_matches_the_documented_checksum(self):
        # The verifier re-implements Fletcher-32; it must agree with the
        # kernel's implementation on arbitrary data (same algorithm, two
        # codebases) or every checksummed header would read as torn.
        from repro.util.checksum import fletcher32 as kernel_fletcher32

        for blob in (b"", b"a", b"ab", b"rio" * 1000, bytes(range(256))):
            assert layout.fletcher32(blob) == kernel_fletcher32(blob)

    def test_superblock_cstruct_agrees_with_ondisk_serializer(self, image):
        sb = read_sb(image)
        rec = layout.SUPERBLOCK.unpack(bytes(image[:BLOCK_SIZE]))
        assert rec.magic == layout.SUPERBLOCK_MAGIC
        assert rec.version == layout.ONDISK_VERSION
        assert rec.total_blocks == sb.total_blocks
        assert rec.inode_start == sb.inode_start
        assert rec.data_start == sb.data_start
        assert rec.root_ino == sb.root_ino

    def test_inode_cstruct_agrees_with_ondisk_serializer(self, image):
        sb = read_sb(image)
        root = read_inode(image, sb, sb.root_ino)
        off = inode_offset(sb, sb.root_ino)
        rec = layout.INODE.unpack(bytes(image[off : off + INODE_SIZE]))
        assert rec.ftype == layout.FTYPE_DIRECTORY
        assert rec.size == root.size
        assert list(rec.direct) == list(root.direct)


# -- the parser: one test per finding kind ------------------------------------


class TestParser:
    def test_clean_image_is_clean(self, image):
        report = dissect_image(bytes(image))
        assert report.clean and report.walk_completed
        assert report.inodes_allocated >= 3  # root, /hello, /sub, /sub/big
        assert report.directories_walked >= 2
        assert report.image_sha256 == image_sha256(bytes(image))

    def test_truncated_image(self, image):
        report = dissect_image(bytes(image[: BLOCK_SIZE + 100]))
        assert FindingKind.TRUNCATED_IMAGE in kinds(report)
        assert not report.walk_completed

    def test_bad_magic_falls_back_to_backup(self, image):
        image[0:4] = b"\x00\x00\x00\x00"
        report = dissect_image(bytes(image))
        assert FindingKind.BAD_MAGIC in kinds(report)
        # The backup superblock rescues the walk.
        assert report.walk_completed

    def test_bad_version(self, image):
        image[4:6] = (99).to_bytes(2, "little")
        report = dissect_image(bytes(image))
        assert FindingKind.BAD_VERSION in kinds(report)

    def test_torn_superblock_page(self, image):
        # Magic and version intact, one geometry byte flipped without
        # resealing: the checksum no longer verifies.
        image[20] ^= 0xFF
        report = dissect_image(bytes(image))
        assert FindingKind.TORN_PAGE in kinds(report)

    def test_bad_geometry_total_blocks_vs_image(self, image):
        sb = read_sb(image)
        sb.total_blocks += 64
        image[:BLOCK_SIZE] = sb.to_bytes()
        report = dissect_image(bytes(image))
        assert FindingKind.BAD_GEOMETRY in kinds(report)
        assert not report.walk_completed

    def test_mangled_inode(self, image):
        sb = read_sb(image)
        off = inode_offset(sb, sb.root_ino + 1)
        image[off : off + INODE_SIZE] = b"\xff" * INODE_SIZE
        report = dissect_image(bytes(image))
        assert FindingKind.MANGLED_INODE in kinds(report)

    def test_bad_pointer(self, image):
        sb = read_sb(image)
        ino = add_ghost_inode(image, sb, size=BLOCK_SIZE)
        ghost = read_inode(image, sb, ino)
        block = ghost.direct[0]
        set_bitmap_bit(image, sb, block, 0)
        ghost.direct[0] = sb.total_blocks + 5  # outside the data region
        write_inode(image, sb, ghost)
        report = dissect_image(bytes(image))
        assert FindingKind.BAD_POINTER in kinds(report)

    def test_duplicate_claim(self, image):
        sb = read_sb(image)
        # Find /hello's data block through the root directory, then claim
        # it a second time from the ghost inode.
        root = read_inode(image, sb, sb.root_ino)
        victim = None
        base = root.direct[0] * BLOCK_SIZE
        for off in range(base, base + BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(image[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == "hello":
                victim = read_inode(image, sb, entry.ino)
        assert victim is not None and victim.direct[0]
        add_ghost_inode(image, sb, size=BLOCK_SIZE, claim_block=victim.direct[0])
        report = dissect_image(bytes(image))
        assert FindingKind.DUPLICATE_CLAIM in kinds(report)

    def test_size_mismatch_block_beyond_eof(self, image):
        sb = read_sb(image)
        add_ghost_inode(image, sb, size=0)  # one block mapped, size says none
        report = dissect_image(bytes(image))
        assert FindingKind.SIZE_MISMATCH in kinds(report)

    def test_size_mismatch_impossible_size(self, image):
        sb = read_sb(image)
        ino = add_ghost_inode(image, sb, size=BLOCK_SIZE)
        ghost = read_inode(image, sb, ino)
        ghost.size = (layout.MAX_FILE_BLOCKS + 1) * BLOCK_SIZE
        write_inode(image, sb, ghost)
        report = dissect_image(bytes(image))
        assert FindingKind.SIZE_MISMATCH in kinds(report)

    def test_dangling_dirent(self, image):
        sb = read_sb(image)
        add_root_dirent(image, sb, DirEntry(find_free_ino(image, sb), "dangle"))
        report = dissect_image(bytes(image))
        assert FindingKind.DANGLING_DIRENT in kinds(report)

    def test_garbled_dirent(self, image):
        sb = read_sb(image)
        root = read_inode(image, sb, sb.root_ino)
        base = root.direct[0] * BLOCK_SIZE
        for off in range(base, base + BLOCK_SIZE, DIRENT_SIZE):
            if image[off : off + 4] == b"\x00\x00\x00\x00":
                image[off : off + DIRENT_SIZE] = b"\xff" * DIRENT_SIZE
                break
        report = dissect_image(bytes(image))
        assert FindingKind.GARBLED_DIRENT in kinds(report)

    def test_zeroed_slots_are_not_garbled(self, image):
        # fsck zeroes only the ino word of a slot it clears; a slot whose
        # first 4 bytes are zero is an empty slot whatever the tail says.
        sb = read_sb(image)
        root = read_inode(image, sb, sb.root_ino)
        base = root.direct[0] * BLOCK_SIZE
        for off in range(base, base + BLOCK_SIZE, DIRENT_SIZE):
            if image[off : off + 4] == b"\x00\x00\x00\x00":
                image[off + 4 : off + DIRENT_SIZE] = b"\xee" * (DIRENT_SIZE - 4)
                break
        assert dissect_image(bytes(image)).clean

    def test_bad_dot_entry(self, image):
        sb = read_sb(image)
        # Corrupt "." in /sub: find /sub through the root block.
        root = read_inode(image, sb, sb.root_ino)
        base = root.direct[0] * BLOCK_SIZE
        sub_ino = None
        for off in range(base, base + BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(image[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == "sub":
                sub_ino = entry.ino
        assert sub_ino is not None
        sub = read_inode(image, sb, sub_ino)
        sub_base = sub.direct[0] * BLOCK_SIZE
        for off in range(sub_base, sub_base + BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(image[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == ".":
                image[off : off + DIRENT_SIZE] = DirEntry(sb.root_ino, ".").to_bytes()
        report = dissect_image(bytes(image))
        assert FindingKind.BAD_DOT_ENTRY in kinds(report)

    @pytest.mark.parametrize("name,right", [("hello", 1), ("sub", 2)])
    def test_link_count_mismatch(self, image, name, right):
        """A file is counted by its names; a directory by its name, its
        own "." and each child's ".."."""
        sb = read_sb(image)
        ino = root_entry_ino(image, sb, name)
        assert read_inode(image, sb, ino).nlink == right
        smash_nlink(image, sb, ino, right + 3)
        [finding] = dissect_image(bytes(image)).findings
        assert finding.kind is FindingKind.LINK_COUNT_MISMATCH
        assert finding.where == f"inode {ino}"
        assert f"nlink {right + 3}" in finding.detail and f"found {right}" in finding.detail

    def test_link_count_is_judged_only_where_a_reference_was_found(self, image):
        """fsck repairs a count only against references it found; an
        orphan's nlink is not a second finding on top of unreachable."""
        sb = read_sb(image)
        ino = find_free_ino(image, sb)
        write_inode(image, sb, Inode(ino=ino, ftype=FileType.REGULAR, nlink=7, size=0))
        assert kinds(dissect_image(bytes(image))) == {FindingKind.UNREACHABLE_INODE}

    def test_duplicate_name(self, image):
        sb = read_sb(image)
        ino = root_entry_ino(image, sb, "hello")
        add_root_dirent(image, sb, DirEntry(ino, "hello"))
        report = dissect_image(bytes(image))
        # Two entries are two references: the count is off as well.
        assert kinds(report) == {FindingKind.DUPLICATE_NAME, FindingKind.LINK_COUNT_MISMATCH}
        smash_nlink(image, sb, ino, 2)
        [finding] = dissect_image(bytes(image)).findings
        assert finding.kind is FindingKind.DUPLICATE_NAME
        assert finding.where == f"dir {sb.root_ino}" and "'hello'" in finding.detail

    def test_directory_cycle(self, image):
        sb = read_sb(image)
        add_root_dirent(image, sb, DirEntry(sb.root_ino, "loop"))
        report = dissect_image(bytes(image))
        assert FindingKind.DIRECTORY_CYCLE in kinds(report)

    def test_unreachable_inode(self, image):
        sb = read_sb(image)
        ino = find_free_ino(image, sb)
        block = find_free_data_block(image, sb)
        direct = [0] * N_DIRECT
        direct[0] = block
        write_inode(
            image,
            sb,
            Inode(
                ino=ino,
                ftype=FileType.REGULAR,
                nlink=1,
                size=BLOCK_SIZE,
                direct=direct,
            ),
        )
        set_bitmap_bit(image, sb, block, 1)
        report = dissect_image(bytes(image))
        assert FindingKind.UNREACHABLE_INODE in kinds(report)

    def test_bitmap_disagreement_leaked_block(self, image):
        sb = read_sb(image)
        set_bitmap_bit(image, sb, find_free_data_block(image, sb), 1)
        report = dissect_image(bytes(image))
        assert FindingKind.BITMAP_DISAGREEMENT in kinds(report)

    def test_bitmap_disagreement_lost_block(self, image):
        sb = read_sb(image)
        root = read_inode(image, sb, sb.root_ino)
        set_bitmap_bit(image, sb, root.direct[0], 0)
        report = dissect_image(bytes(image))
        assert FindingKind.BITMAP_DISAGREEMENT in kinds(report)

    def test_findings_are_capped(self, image):
        sb = read_sb(image)
        # Mangle every inode slot after the populated ones: far more
        # anomalies than the report will hold.
        for ino in range(1, sb.inode_blocks * INODES_PER_BLOCK):
            off = inode_offset(sb, ino)
            if image[off : off + INODE_SIZE] == b"\x00" * INODE_SIZE:
                image[off : off + INODE_SIZE] = b"\xff" * INODE_SIZE
        report = dissect_image(bytes(image))
        assert len(report.findings) == MAX_FINDINGS
        assert report.findings_dropped > 0

    def test_never_raises_and_never_mutates(self, image):
        before = bytes(image)
        dissect_image(before)
        assert bytes(image) == before


# -- report / finding serialization -------------------------------------------


class TestReports:
    def test_finding_json_roundtrip(self):
        finding = Finding(FindingKind.BAD_POINTER, "inode 7", "points at 999", block=999)
        assert json.loads(json.dumps(finding.to_json_dict())) == {
            "kind": "bad_pointer", "where": "inode 7", "detail": "points at 999", "block": 999,
        }

    def test_report_json_roundtrip(self, image):
        image[0:4] = b"\x00\x00\x00\x00"
        report = dissect_image(bytes(image))
        back = json.loads(report.to_json())
        assert back == report.to_json_dict()
        assert back["findings"] == [f.to_json_dict() for f in report.findings] != []

    def test_format_mentions_verdict(self, image):
        assert "CLEAN" in dissect_image(bytes(image)).format()
        image[0:4] = b"\x00\x00\x00\x00"
        image[-BLOCK_SIZE : -BLOCK_SIZE + 4] = b"\x00\x00\x00\x00"
        assert "CORRUPT" in dissect_image(bytes(image)).format()


# -- the divergence protocol --------------------------------------------------


class TestDivergence:
    def _clean_report(self) -> DissectReport:
        report = DissectReport(image_sha256="x" * 64, walk_completed=True)
        return report

    def _dirty_report(self) -> DissectReport:
        report = self._clean_report()
        report.add(Finding(FindingKind.SIZE_MISMATCH, "inode 9", "beyond eof"))
        return report

    def test_both_clean_agree(self):
        verdict = compare_verdicts(
            fsck_unrecoverable=False, fsck_fix_count=0, report=self._clean_report()
        )
        assert verdict.agreed and verdict.dissect_clean and verdict.fsck_consistent

    def test_fsck_repaired_and_dissect_clean_agree(self):
        verdict = compare_verdicts(
            fsck_unrecoverable=False, fsck_fix_count=3, report=self._clean_report()
        )
        assert verdict.agreed

    def test_fsck_clean_but_dissect_dirty_diverges(self):
        verdict = compare_verdicts(
            fsck_unrecoverable=False, fsck_fix_count=0, report=self._dirty_report()
        )
        assert not verdict.agreed and verdict.details
        assert "size_mismatch" in verdict.details[0]

    def test_fsck_unrecoverable_but_dissect_clean_diverges(self):
        verdict = compare_verdicts(
            fsck_unrecoverable=True, fsck_fix_count=0, report=self._clean_report()
        )
        assert not verdict.agreed

    def test_both_report_damage_agree(self):
        verdict = compare_verdicts(
            fsck_unrecoverable=True, fsck_fix_count=0, report=self._dirty_report()
        )
        assert verdict.agreed

    def test_no_usable_superblock_on_repaired_image_diverges(self):
        report = DissectReport(image_sha256="x" * 64, walk_completed=False)
        report.add(Finding(FindingKind.BAD_MAGIC, "superblock", "magic 0"))
        report.add(Finding(FindingKind.BAD_MAGIC, "backup superblock", "magic 0"))
        verdict = compare_verdicts(
            fsck_unrecoverable=False, fsck_fix_count=1, report=report
        )
        assert not verdict.agreed and len(verdict.details) == 2

    def test_json_roundtrip_and_format(self):
        verdict = compare_verdicts(
            fsck_unrecoverable=False, fsck_fix_count=0, report=self._dirty_report()
        )
        back = json.loads(json.dumps(verdict.to_json_dict()))
        assert DivergenceReport(**back) == verdict
        assert "DIVERGENCE" in verdict.format()


# -- the image container ------------------------------------------------------


class TestImageContainer:
    def test_dump_load_roundtrip(self, image, tmp_path):
        path = tmp_path / "disk.rio"
        digest = dump_image(str(path), bytes(image), meta={"label": "test"})
        payload, meta = load_image(str(path))
        assert payload == bytes(image)
        assert digest == image_sha256(payload)
        assert meta["sha256"] == digest and meta["label"] == "test"

    def test_tampered_payload_is_rejected(self, image, tmp_path):
        path = tmp_path / "disk.rio"
        dump_image(str(path), bytes(image))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ImageFormatError):
            load_image(str(path))

    def test_truncated_container_is_rejected(self, image, tmp_path):
        path = tmp_path / "disk.rio"
        dump_image(str(path), bytes(image))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ImageFormatError):
            load_image(str(path))

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "disk.rio"
        path.write_bytes(b"NOTANIMG" + b"\x00" * 100)
        with pytest.raises(ImageFormatError):
            load_image(str(path))

    @pytest.mark.parametrize(
        "meta, why",
        [
            (b"\xff\xfe{}", "bad metadata line"),  # not UTF-8
            (b'{"num_bytes": 1.5, "sha256": "%s"}', "num_bytes 1.5 "),
            (b'{"num_bytes": "1", "sha256": "%s"}', "num_bytes '1' "),
            (b'{"num_bytes": -1, "sha256": "%s"}', "num_bytes -1 "),
            (b'{"num_bytes": true, "sha256": "%s"}', "num_bytes True "),
            (b'{"num_bytes": 1, "sha256": 5}', "sha256 5 "),
        ],
        ids=["not-utf8", "float-size", "string-size", "negative-size", "bool-size", "int-digest"],
    )
    def test_malformed_metadata_is_rejected(self, tmp_path, meta, why):
        """Each used to escape as a UnicodeDecodeError or a TypeError, be
        reported as a truncated payload (-1), or load (``true``: one byte,
        whose digest the line records)."""
        path = tmp_path / "disk.rio"
        if b"%s" in meta:
            meta = meta % image_sha256(b"\x00").encode()
        path.write_bytes(IMAGE_MAGIC + meta + b"\n\x00")
        with pytest.raises(ImageFormatError, match=why):
            load_image(str(path))

    def test_install_size_mismatch_is_rejected(self, image):
        from repro.disk.device import SimulatedDisk

        disk = SimulatedDisk("t", num_sectors=len(image) // 512 + 1)
        with pytest.raises(ImageFormatError):
            install(disk, bytes(image))

    def test_snapshot_install_roundtrip(self, image):
        from repro.disk.device import SimulatedDisk

        disk = SimulatedDisk("t", num_sectors=len(image) // 512)
        install(disk, bytes(image))
        assert snapshot(disk) == bytes(image)


# -- independence: enforced mechanically over the module graph ----------------

FORBIDDEN_MODULES = {
    "repro.fs.ufs",
    "repro.fs.cache",
    "repro.fs.writeback",
    "repro.fs.fsck",
    "repro.fs.ondisk",
}


def _repro_imports(path: pathlib.Path) -> set:
    """Every ``repro.*`` module a source file imports, by static AST walk."""
    out: set = set()
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            # "from repro.fs import dissect" style: the names may be
            # submodules; count them as imports too (conservative).
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in out if name.split(".")[0] == "repro"}


def test_dissect_module_graph_is_independent():
    """The verifier's transitive imports never touch the kernel-side fs
    modules whose bugs it exists to catch (ISSUE 6 acceptance check)."""
    pkg_dir = pathlib.Path(dissect_pkg.__file__).parent
    src_root = pkg_dir.parent.parent.parent  # .../src
    seen: set = set()
    queue = sorted(pkg_dir.glob("*.py"))
    transitive: set = set()
    while queue:
        path = queue.pop()
        if path in seen:
            continue
        seen.add(path)
        for module in _repro_imports(path):
            transitive.add(module)
            candidate = src_root / (module.replace(".", "/") + ".py")
            package = src_root / module.replace(".", "/") / "__init__.py"
            for target in (candidate, package):
                if target.exists() and target not in seen:
                    queue.append(target)
    bad = {
        module
        for module in transitive
        for forbidden in FORBIDDEN_MODULES
        if module == forbidden or module.startswith(forbidden + ".")
    }
    assert not bad, f"dissect transitively imports kernel-side fs modules: {bad}"
    # Stronger: everything repro.* it imports lives inside the package.
    outside = {m for m in transitive if not m.startswith("repro.fs.dissect")}
    assert not outside, f"dissect imports outside its own package: {outside}"


def test_dissect_package_is_importable_standalone():
    for name in ("dissect_image", "compare_verdicts", "dump_image", "snapshot"):
        assert hasattr(dissect_pkg, name)


# -- end to end: the second opinion inside real campaigns ---------------------


class TestSecondOpinionEndToEnd:
    def test_constructed_divergent_image_fires_divergence(self, image):
        """The acceptance criterion's deliberately divergent image: fsck
        blesses it (nothing it checks is wrong) while dissect finds the
        beyond-EOF block — and the DivergenceReport fires."""
        from repro.disk.device import SimulatedDisk
        from repro.fs.fsck import fsck

        sb = read_sb(image)
        add_ghost_inode(image, sb, size=0)
        scan = dissect_image(bytes(image))
        assert FindingKind.SIZE_MISMATCH in kinds(scan)

        disk = SimulatedDisk("img", num_sectors=len(image) // 512)
        install(disk, bytes(image))
        report = fsck(disk)
        assert not report.unrecoverable

        verdict = compare_verdicts(
            fsck_unrecoverable=report.unrecoverable,
            fsck_fix_count=report.fix_count,
            report=scan,
        )
        assert not verdict.agreed
        assert verdict.fsck_consistent and not verdict.dissect_clean
        assert "size_mismatch" in verdict.details[0]

    def test_wrong_nlink_on_a_blessed_image_diverges_unless_fsck_disclosed_it(self, image):
        """The one structural property fsck repairs that no independent
        judge used to look at: an image fsck blessed with a wrong link
        count is a divergence — unless fsck's own "link count a -> b"
        fix names the inode (agreement with disclosure)."""
        from repro.disk.device import SimulatedDisk
        from repro.fs.fsck import fsck

        disk = SimulatedDisk("img", num_sectors=len(image) // 512)
        install(disk, bytes(image))
        report = fsck(disk)
        assert report.fixes == [] and second_opinion(snapshot(disk), report)[1].agreed

        sb = read_sb(image)
        ino = root_entry_ino(image, sb, "hello")
        smash_nlink(image, sb, ino, 4)
        scan, verdict = second_opinion(bytes(image), report)
        assert kinds(scan) == {FindingKind.LINK_COUNT_MISMATCH}
        assert not verdict.agreed and "link_count_mismatch x1" in verdict.details[0]
        assert not second_opinion(bytes(image), report, disclosed=True)[1].agreed

        report.fix(f"inode {ino}: link count 4 -> 1")
        scan, verdict = second_opinion(bytes(image), report, disclosed=True)
        assert verdict.agreed and not scan.clean  # disclosed, never hidden
        assert not second_opinion(bytes(image), report)[1].agreed

        install(disk, bytes(image))
        repaired = fsck(disk)
        assert repaired.fixes == [f"inode {ino}: link count 4 -> 1"]
        assert second_opinion(snapshot(disk), repaired)[1].agreed

    def test_crash_trials_carry_agreeing_second_opinions(self):
        """Seeded crash trials: every trial that recovered carries a
        dissect second opinion, and fsck and dissect agree on it."""
        from repro.faults import FaultType
        from repro.reliability.campaign import CrashTestConfig, run_crash_test

        scanned = 0
        for system in ("rio_prot", "disk"):
            for seed in (1, 2):
                result = run_crash_test(
                    CrashTestConfig(
                        system=system, fault_type=FaultType.KERNEL_STACK, seed=seed
                    )
                )
                if result.discarded or result.recovery_failed:
                    continue
                assert result.divergence is not None
                assert result.image_sha256
                assert result.divergence["agreed"], result.divergence["details"]
                assert not result.diverged
                scanned += 1
        assert scanned >= 2

    def test_traffic_campaign_runs_dissect_scans(self):
        from repro.reliability.traffic import TrafficConfig, run_traffic_campaign
        from repro.server import LoadSpec

        result = run_traffic_campaign(
            TrafficConfig(
                system="rio_prot",
                clients=2,
                crashes=1,
                seed=3,
                load=LoadSpec(ops_per_client=8),
                fs_blocks=256,
            )
        )
        assert result.ok
        # One scan per storm recovery plus the final flushed-image scan.
        assert result.verdict["dissect_scans"] >= 2
        assert result.verdict["dissect_divergences"] == 0, result.verdict["divergence_details"]
        assert result.verdict["final_dissect_clean"], result.verdict["final_dissect_findings"]
        assert len(result.verdict["final_image_sha256"]) == 64
        blob = result.to_json_dict()
        assert blob["final_dissect_clean"] is True
        assert blob["dissect_scans"] == result.verdict["dissect_scans"]
