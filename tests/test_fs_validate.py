"""The read-only consistency judge (``fs.dissect``) on hand-planted damage."""

import pytest

from repro.fs.dissect import FindingKind, dissect_image, snapshot
from repro.fs.ondisk import DIRENT_SIZE, DirEntry, INODE_SIZE, Inode
from repro.fs.types import BLOCK_SIZE, FileType, SECTORS_PER_BLOCK
from repro.system import SystemSpec, build_system


@pytest.fixture
def system():
    s = build_system(SystemSpec(policy="ufs_delayed", fs_blocks=512))
    return s


def settle(system):
    system.fs.flush_data(sync=True)
    system.fs.flush_metadata(sync=True)
    system.drain_disks()


def judge(system):
    return dissect_image(snapshot(system.disk))


def kinds(system):
    return {finding.kind for finding in judge(system).findings}


def patch_inode(system, ino, mutate):
    sb = system.fs.sb
    per_block = BLOCK_SIZE // INODE_SIZE
    block = sb.inode_start + ino // per_block
    offset = (ino % per_block) * INODE_SIZE
    raw = bytearray(system.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
    inode = Inode.from_bytes(ino, bytes(raw[offset : offset + INODE_SIZE]), strict=False)
    mutate(inode)
    raw[offset : offset + INODE_SIZE] = inode.to_bytes()
    system.disk.poke(block * SECTORS_PER_BLOCK, bytes(raw))


class TestValidator:
    def test_fresh_fs_consistent(self, system):
        settle(system)
        assert judge(system).clean

    def test_populated_fs_consistent(self, system):
        fs = system.fs
        fs.mkdir("/d")
        ino = fs.create("/d/f")
        fs.write(ino, 0, b"x" * 20000)
        fs.symlink("/d/f", "/s")
        fs.link("/d/f", "/hard")
        settle(system)
        report = judge(system)
        assert report.clean, report.findings

    def test_detects_bad_nlink(self, system):
        ino = system.fs.create("/f")
        settle(system)
        patch_inode(system, ino, lambda i: setattr(i, "nlink", 9))
        assert kinds(system) == {FindingKind.LINK_COUNT_MISMATCH}

    def test_detects_duplicate_claim(self, system):
        a = system.fs.create("/a")
        b = system.fs.create("/b")
        system.fs.write(a, 0, b"a")
        system.fs.write(b, 0, b"b")
        settle(system)
        block_of_a = []
        patch_inode(system, a, lambda i: block_of_a.append(i.direct[0]))
        patch_inode(system, b, lambda i: i.direct.__setitem__(0, block_of_a[0]))
        assert FindingKind.DUPLICATE_CLAIM in kinds(system)

    def test_detects_unreachable_inode(self, system):
        settle(system)
        # Allocate an inode directly on disk with no directory entry.
        patch_inode(
            system,
            40,
            lambda i: (setattr(i, "ftype", FileType.REGULAR), setattr(i, "nlink", 1)),
        )
        assert kinds(system) == {FindingKind.UNREACHABLE_INODE}

    def test_detects_bitmap_leak(self, system):
        settle(system)
        sb = system.fs.sb
        raw = bytearray(system.disk.peek(sb.bitmap_start * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        victim = sb.data_start + 50
        raw[victim // 8] |= 1 << (victim % 8)
        system.disk.poke(sb.bitmap_start * SECTORS_PER_BLOCK, bytes(raw))
        report = judge(system)
        assert [f.kind for f in report.findings] == [FindingKind.BITMAP_DISAGREEMENT]
        assert "claimed by no inode" in report.findings[0].detail

    def test_detects_missing_dot(self, system):
        system.fs.mkdir("/d")
        settle(system)
        ino = system.fs.namei("/d")
        holder = []
        patch_inode(system, ino, lambda i: holder.append(i.direct[0]))
        block = holder[0]
        raw = bytearray(system.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(raw[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == ".":
                raw[off : off + DIRENT_SIZE] = b"\x00" * DIRENT_SIZE
        system.disk.poke(block * SECTORS_PER_BLOCK, bytes(raw))
        assert any(
            f.kind is FindingKind.BAD_DOT_ENTRY and "'.' entry missing" in f.detail
            for f in judge(system).findings
        )

    def test_fsck_fixes_what_validator_flags(self, system):
        """fsck and the judge must agree: anything fsck repairs should
        dissect clean afterwards."""
        from repro.fs.fsck import fsck

        ino = system.fs.create("/broken")
        settle(system)
        patch_inode(system, ino, lambda i: setattr(i, "nlink", 5))
        assert not judge(system).clean
        fsck(system.disk)
        report = judge(system)
        assert report.clean, report.findings
