"""Block-at-a-time decoders against the per-slot loops they replaced.

The two judges of a recovered disk (``dissect`` and ``fsck``) decode
directory blocks, inode-table blocks and indirect blocks in one call
each.  The loops they replaced — one slice and one
unpack per slot — live on in ``tests/per_slot_oracles.py``; here both run
over the same bytes and must agree on every report field, finding order,
fix message and repaired byte.  The kernel-text build cache gets the same
treatment: memoised and fresh builds must be indistinguishable.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.disk import SimulatedDisk
from repro.fs.dissect import dissect_image, install, layout, snapshot
from repro.fs.dissect.cstructs import TruncatedRecord
from repro.fs.fsck import fsck
from repro.fs.ondisk import (
    BLOCK_SIZE,
    DIRENT_SIZE,
    DirEntry,
    Inode,
    CorruptStructure,
    free_dirent_offset,
    indirect_pointers,
    scan_dirents,
)
from repro.fs.types import PTRS_PER_INDIRECT, SECTORS_PER_BLOCK
from repro.reliability.campaign import system_spec_for
from repro.system import build_system
from tests.per_slot_oracles import dissect_image_per_slot, fsck_per_slot, slot_unpack
from tests.test_dissect import (
    add_root_dirent,
    inode_offset,
    read_sb,
    root_entry_ino,
    smash_nlink,
)
from tests.test_dissect_fuzz import base_image, corrupt

LAYOUT_RECORDS = [
    layout.SUPERBLOCK, layout.REGION_SUMMARY, layout.INODE, layout.DIRENT, layout.INDIRECT,
]


# -- CStruct ------------------------------------------------------------------


@pytest.mark.parametrize("record", LAYOUT_RECORDS, ids=lambda r: r.name)
def test_iter_unpack_equals_per_slot_unpack(record):
    """Random bytes, whole and ragged: ``record(flat)`` of every yielded
    tuple is what the old per-record ``unpack`` made of that slot."""
    rng = random.Random(record.size)
    for _ in range(25):
        slots = rng.randrange(4)
        raw = rng.randbytes(slots * record.size + rng.randrange(record.size))
        want = [
            slot_unpack(record, raw[i * record.size : (i + 1) * record.size]).__dict__
            for i in range(slots)
        ]
        for buffer in (raw, bytearray(raw), memoryview(raw)):
            got = [record.record(flat).__dict__ for flat in record.iter_unpack(buffer)]
            assert got == want
        if not slots:
            with pytest.raises(TruncatedRecord):
                record.unpack(raw)
            continue
        assert record.unpack(raw).__dict__ == want[0]
        flat = next(iter(record.iter_unpack(raw)))
        for name, value in want[0].items():
            first = value[0] if isinstance(value, tuple) else value
            assert flat[record.index_of(name)] == first


def test_index_of_rejects_padding_and_unknown_names():
    with pytest.raises(KeyError):
        layout.INODE.index_of("pad0")
    with pytest.raises(KeyError):
        layout.DIRENT.index_of("nope")


# -- dissect ------------------------------------------------------------------


def assert_same_report(image: bytes) -> None:
    got, want = dissect_image(image), dissect_image_per_slot(image)
    assert got.to_json_dict() == want.to_json_dict()  # every field, findings in order


_INDIRECT_IMAGE: bytes | None = None


def indirect_image() -> bytes:
    """A flushed image with a file and a directory both big enough to
    need their indirect block (the fuzz base image has neither)."""
    global _INDIRECT_IMAGE
    if _INDIRECT_IMAGE is None:
        system = build_system(system_spec_for("rio_prot", fs_blocks=256))
        fd = system.vfs.open("/big", create=True)
        system.vfs.write(fd, b"rio" * (5 * BLOCK_SIZE))  # 15 blocks: 3 behind the indirect
        system.vfs.close(fd)
        system.vfs.mkdir("/many")
        fs = system.fs
        target = fs.namei("/big")
        dinode = fs.iget(fs.namei("/many"))
        for file_block in range(1, 14):  # grow the way dir_add does, one name a block
            block_no = fs.bmap(dinode, file_block, allocate=True)
            fs._fresh_meta_page(block_no, "dir")
            record = DirEntry(target, f"link{file_block}").to_bytes()
            fs.write_meta(block_no, 0, record, meta_class="dir")
            dinode.size += BLOCK_SIZE
            fs.write_inode(dinode)
        system.fs.flush_data(sync=True)
        system.fs.flush_metadata(sync=True)
        system.drain_disks()
        _INDIRECT_IMAGE = snapshot(system.disk)
    return _INDIRECT_IMAGE


@pytest.mark.parametrize("seed", range(60))
def test_dissect_matches_per_slot_walker_on_the_fuzz_corpus(seed):
    assert_same_report(corrupt(base_image(), seed))


def test_dissect_matches_per_slot_walker_on_clean_and_degenerate_images():
    for image in (
        base_image(), indirect_image(), b"", b"RIOF", bytes(BLOCK_SIZE),
        b"\xff" * (4 * BLOCK_SIZE), b"\xa5" * (2 * BLOCK_SIZE + 17),
    ):
        assert_same_report(image)


def test_both_walkers_count_links_and_names_alike():
    image = bytearray(base_image())
    sb = read_sb(image)
    ino = root_entry_ino(image, sb, "hello")
    add_root_dirent(image, sb, DirEntry(ino, "hello"))
    smash_nlink(image, sb, root_entry_ino(image, sb, "sub"), 9)
    assert dissect_image(bytes(image)).counts_by_kind() == {
        "duplicate_name": 1, "link_count_mismatch": 2,
    }
    assert_same_report(bytes(image))
    # The indirect image hard-links one file thirteen times behind a
    # directory's indirect block without touching its nlink.
    assert dissect_image(indirect_image()).counts_by_kind() == {"link_count_mismatch": 1}


@pytest.mark.parametrize("seed", range(30))
def test_dissect_matches_per_slot_walker_behind_indirect_blocks(seed):
    image = indirect_image()
    sb = read_sb(bytearray(image))
    rng = random.Random(seed)
    mutant = bytearray(corrupt(image, seed) if seed % 3 == 0 else image)
    if len(mutant) == len(image):
        # Smash pointers inside every indirect block and slots of the
        # directory blocks behind one: wild, duplicate and zero entries.
        for ino in range(1, sb.inode_blocks * (BLOCK_SIZE // 128)):
            off = inode_offset(sb, ino)
            try:
                inode = Inode.from_bytes(ino, bytes(image[off : off + 128]))
            except CorruptStructure:
                continue
            if not inode.indirect:
                continue
            base = inode.indirect * BLOCK_SIZE
            for _ in range(rng.randrange(1, 6)):
                slot = rng.randrange(0, 8)
                value = rng.choice([0, 1, sb.data_start, sb.total_blocks, rng.randrange(1 << 32)])
                struct.pack_into("<I", mutant, base + 4 * slot, value)
    assert_same_report(bytes(mutant))


def test_findings_cap_is_reached_the_same_way():
    image = bytearray(indirect_image())
    sb = read_sb(image)
    for ino in range(8, sb.inode_blocks * (BLOCK_SIZE // 128)):  # mangle every free slot
        image[inode_offset(sb, ino)] ^= 0xFF
    got = dissect_image(bytes(image))
    assert got.findings_dropped > 0
    assert got.to_json_dict() == dissect_image_per_slot(bytes(image)).to_json_dict()


# -- fs/ondisk block helpers -----------------------------------------------------


def dirent_block(rng: random.Random) -> bytes:
    """A directory block mixing valid, empty, garbled, NUL-named,
    over-long, zero-length and undecodable slots."""
    out = bytearray()
    for slot in range(BLOCK_SIZE // DIRENT_SIZE):
        kind = rng.randrange(8)
        ino = rng.randrange(1, 200)
        if kind == 0:
            record = bytes(DIRENT_SIZE)
        elif kind == 1:
            record = bytes(4) + bytes(rng.randrange(256) for _ in range(DIRENT_SIZE - 4))  # ino word 0
        elif kind == 2:
            record = struct.pack("<IB27s", ino, 5, b"a\x00b")  # NUL inside the name
        elif kind == 3:
            record = struct.pack("<IB27s", ino, 28 + rng.randrange(200), b"x" * 27)  # over-long
        elif kind == 4:
            record = struct.pack("<IB27s", ino, 0, b"name")  # zero length
        elif kind == 5:
            record = struct.pack("<IB27s", ino, 2, b"\xff\xfe")  # undecodable
        elif kind == 6:
            record = bytes(rng.randrange(256) for _ in range(DIRENT_SIZE))
        else:
            record = DirEntry(ino, f"n{slot}").to_bytes()
        out += record
    return bytes(out)


@pytest.mark.parametrize("seed", range(20))
def test_scan_dirents_equals_from_bytes_slot_by_slot(seed):
    rng = random.Random(seed)
    block = dirent_block(rng)
    ragged = block + b"\x07" * rng.randrange(0, DIRENT_SIZE)
    for data in (block, bytearray(block), memoryview(block), ragged):
        got = list(scan_dirents(data))
        assert [off for off, _, _ in got] == list(range(0, BLOCK_SIZE, DIRENT_SIZE))
        for off, ino_word, entry in got:
            slot = bytes(block[off : off + DIRENT_SIZE])
            assert entry == DirEntry.from_bytes(slot)
            assert ino_word == int.from_bytes(slot[:4], "little")
        free = [off for off in range(0, BLOCK_SIZE, DIRENT_SIZE) if block[off : off + 4] == bytes(4)]
        assert free_dirent_offset(data) == (free[0] if free else None)
    full = DirEntry(9, "x").to_bytes() * (BLOCK_SIZE // DIRENT_SIZE)
    assert free_dirent_offset(full) is None and free_dirent_offset(b"") is None


def test_indirect_pointers_equals_the_word_loop():
    rng = random.Random(3)
    block = bytes(rng.randrange(256) for _ in range(BLOCK_SIZE))
    want = tuple(
        int.from_bytes(block[i * 4 : (i + 1) * 4], "little") for i in range(PTRS_PER_INDIRECT)
    )
    for data in (block, bytearray(block), memoryview(block)):
        assert indirect_pointers(data) == want
    with pytest.raises(CorruptStructure):  # typed, never a bare struct.error
        indirect_pointers(block[:-1])


# -- fsck -----------------------------------------------------------------------


def twin_disks(image: bytes):
    disks = []
    for name in ("shipped", "oracle"):
        disk = SimulatedDisk(name, len(image) // 512)
        install(disk, image)
        disks.append(disk)
    return disks


def assert_same_repair(image: bytes, monkeypatch) -> None:
    shipped, oracle = twin_disks(image)
    got, want = fsck(shipped), fsck_per_slot(oracle, monkeypatch)
    assert got == want  # fix list in order, counters, verdict flags
    assert snapshot(shipped) == snapshot(oracle)


@pytest.mark.parametrize("seed", range(20))
def test_fsck_repairs_smashed_directory_blocks_like_the_per_slot_pass(seed, monkeypatch):
    """Every directory block of the image replaced by a random mix of
    garbled, dangling, NUL-named and over-long slots ('.' and '..' often
    lost with them, so the re-insert path runs too)."""
    image = bytearray(indirect_image() if seed % 2 else base_image())
    sb = read_sb(image)
    rng = random.Random(seed)
    for ino in range(1, 16):
        off = inode_offset(sb, ino)
        try:
            inode = Inode.from_bytes(ino, bytes(image[off : off + 128]))
        except CorruptStructure:
            continue
        if inode.ftype.name != "DIRECTORY":
            continue
        blocks = [b for b in inode.direct if b]
        if inode.indirect:
            blocks += [b for b in indirect_pointers(image[inode.indirect * BLOCK_SIZE :][:BLOCK_SIZE]) if b]
        for block in blocks:
            if rng.random() < 0.7:
                keep = rng.choice([0, 2 * DIRENT_SIZE])  # sometimes spare '.' and '..'
                smashed = dirent_block(rng)
                image[block * BLOCK_SIZE + keep : (block + 1) * BLOCK_SIZE] = smashed[keep:]
    assert_same_repair(bytes(image), monkeypatch)


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_fsck_matches_the_per_slot_pass_on_the_fuzz_corpus(seed, monkeypatch):
    image = corrupt(base_image(), seed)
    if len(image) != len(base_image()):
        image = image.ljust(len(base_image()), b"\x00")  # a disk has a fixed size
    assert_same_repair(image, monkeypatch)


def test_fsck_reads_whole_blocks_only():
    """The only block reader left in fsck is ``_RawFs.read_block``."""
    system = build_system(system_spec_for("rio_prot", fs_blocks=128))
    reads = []
    peek = system.disk.peek

    def counting_peek(sector, count):
        reads.append((sector, count))
        return peek(sector, count)

    system.disk.peek = counting_peek
    fsck(system.disk)
    assert reads and all(
        count == SECTORS_PER_BLOCK and sector % SECTORS_PER_BLOCK == 0 for sector, count in reads
    )


# -- kernel text: assembled once, loaded every boot -------------------------------


class TestKernelTextBuildCache:
    def test_two_builds_share_no_mutable_state(self):
        from repro.isa.assembler import assemble
        from repro.isa.routines import ROUTINE_SOURCES, build_kernel_text

        source = next(iter(ROUTINE_SOURCES.values()))
        words_a, labels_a = assemble(source)
        words_b, labels_b = assemble(source)
        assert words_a == words_b and labels_a == labels_b
        assert words_a is not words_b and labels_a is not labels_b
        words_a.append(0xDEAD)
        labels_a["scribble"] = 7
        assert assemble(source) == (words_b, labels_b)  # the cache did not see it

        one, two = build_kernel_text(), build_kernel_text()
        assert one.words == two.words and one.words is not two.words
        for name, routine in one.routines.items():
            other = two.routines[name]
            assert routine is not other and routine.labels is not other.labels
            assert routine.labels == other.labels
        one.words[5] ^= 1
        one.routines[name].pristine = False
        one.routines[name].labels.clear()
        fresh = build_kernel_text()
        assert fresh.words == two.words and fresh.routines[name].pristine
        assert fresh.routines[name].labels == two.routines[name].labels

    def test_patched_build_after_a_plain_one_equals_one_built_first(self):
        from repro.isa.analysis.patch import CodePatcher
        from repro.isa.assembler import _assemble
        from repro.isa.routines import build_kernel_text

        def patched():
            return build_kernel_text(transform=CodePatcher())

        _assemble.cache_clear()
        first = patched()  # nothing cached: the patcher sees a cold assembly
        _assemble.cache_clear()
        plain = build_kernel_text()
        after = patched()  # the patcher rewrites copies of the cached words
        assert after.words == first.words
        assert {n: (r.start_index, r.num_words, r.labels) for n, r in after.routines.items()} == {
            n: (r.start_index, r.num_words, r.labels) for n, r in first.routines.items()
        }
        assert build_kernel_text().words == plain.words != first.words

    def test_load_packs_the_same_image_as_word_by_word(self, env):
        image = b"".join(word.to_bytes(4, "little") for word in env.text.words)
        assert env.memory.read(env.text.base_paddr, len(image)) == image
