"""Tests for fsck: detection and repair of on-disk damage."""

import pytest

from repro.fs.fsck import LOST_FOUND_INO, fsck
from repro.fs.ondisk import DIRENT_SIZE, DirEntry, INODE_SIZE, Inode
from repro.fs.types import BLOCK_SIZE, FileType, ROOT_INO, SECTORS_PER_BLOCK
from repro.system import SystemSpec, build_system


@pytest.fixture
def system():
    s = build_system(SystemSpec(policy="ufs_delayed", fs_blocks=512))
    return s


def settle(system):
    """Flush everything to disk so fsck sees a complete image."""
    system.fs.flush_data(sync=True)
    system.fs.flush_metadata(sync=True)
    system.drain_disks()


def inode_disk_location(system, ino):
    sb = system.fs.sb
    block = sb.inode_start + ino // (BLOCK_SIZE // INODE_SIZE)
    offset = (ino % (BLOCK_SIZE // INODE_SIZE)) * INODE_SIZE
    return block, offset


def read_disk_inode(system, ino):
    block, offset = inode_disk_location(system, ino)
    raw = system.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
    return Inode.from_bytes(ino, raw[offset : offset + INODE_SIZE], strict=False)


def write_disk_bytes(system, block, offset, data):
    raw = bytearray(system.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
    raw[offset : offset + len(data)] = data
    system.disk.poke(block * SECTORS_PER_BLOCK, bytes(raw))


class TestCleanFilesystem:
    def test_no_fixes_on_clean_fs(self, system):
        system.fs.create("/a")
        system.fs.mkdir("/d")
        system.fs.write(system.fs.namei("/a"), 0, b"content")
        settle(system)
        report = fsck(system.disk)
        assert report.fix_count == 0
        assert not report.unrecoverable

    def test_idempotent(self, system):
        system.fs.create("/a")
        settle(system)
        fsck(system.disk)
        report = fsck(system.disk)
        assert report.fix_count == 0


class TestSuperblockRepair:
    def test_restores_from_backup(self, system):
        settle(system)
        system.disk.poke(0, b"\xff" * BLOCK_SIZE)  # destroy primary
        report = fsck(system.disk)
        assert any("backup" in fix for fix in report.fixes)
        assert not report.unrecoverable
        # And now the fs mounts again.
        system.crash("sb was trashed")
        system.reboot()
        assert system.fs.mounted

    def test_unrecoverable_when_both_copies_gone(self, system):
        settle(system)
        system.disk.poke(0, b"\xff" * BLOCK_SIZE)
        last = system.fs.sb.total_blocks - 1 if system.fs.sb else 511
        system.disk.poke(last * SECTORS_PER_BLOCK, b"\xff" * BLOCK_SIZE)
        report = fsck(system.disk)
        assert report.unrecoverable


class TestInodeRepair:
    def test_mangled_inode_cleared(self, system):
        ino = system.fs.create("/victim")
        settle(system)
        block, offset = inode_disk_location(system, ino)
        write_disk_bytes(system, block, offset, b"\xde\xad")  # smash the magic
        report = fsck(system.disk)
        assert any(f"inode {ino}" in fix and "cleared" in fix for fix in report.fixes)
        # The directory entry referencing it is also removed.
        system.crash("x")
        system.reboot()
        assert not system.fs.exists("/victim")

    def test_bad_block_pointer_cleared(self, system):
        ino = system.fs.create("/badptr")
        system.fs.write(ino, 0, b"data")
        settle(system)
        inode = read_disk_inode(system, ino)
        inode.direct[5] = system.fs.sb.total_blocks + 100  # out of range
        block, offset = inode_disk_location(system, ino)
        write_disk_bytes(system, block, offset, inode.to_bytes())
        report = fsck(system.disk)
        assert any("bad block pointer" in fix for fix in report.fixes)
        assert read_disk_inode(system, ino).direct[5] == 0

    def test_duplicate_block_claim_resolved(self, system):
        a = system.fs.create("/first")
        b = system.fs.create("/second")
        system.fs.write(a, 0, b"a data")
        system.fs.write(b, 0, b"b data")
        settle(system)
        inode_a = read_disk_inode(system, a)
        inode_b = read_disk_inode(system, b)
        inode_b.direct[0] = inode_a.direct[0]  # b now claims a's block
        block, offset = inode_disk_location(system, b)
        write_disk_bytes(system, block, offset, inode_b.to_bytes())
        report = fsck(system.disk)
        assert any("already claimed" in fix for fix in report.fixes)

    def test_impossible_size_reset(self, system):
        ino = system.fs.create("/huge")
        settle(system)
        inode = read_disk_inode(system, ino)
        inode.size = 1 << 60
        block, offset = inode_disk_location(system, ino)
        write_disk_bytes(system, block, offset, inode.to_bytes())
        report = fsck(system.disk)
        assert any("impossible size" in fix for fix in report.fixes)


class TestDirectoryRepair:
    def test_dangling_dirent_removed(self, system):
        system.fs.create("/real")
        settle(system)
        # Forge an entry in the root directory pointing at a free inode.
        root = read_disk_inode(system, ROOT_INO)
        root_block = root.direct[0]
        raw = bytearray(system.disk.peek(root_block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
            if raw[off : off + 4] == b"\x00\x00\x00\x00":
                raw[off : off + DIRENT_SIZE] = DirEntry(400, "phantom").to_bytes()
                break
        system.disk.poke(root_block * SECTORS_PER_BLOCK, bytes(raw))
        report = fsck(system.disk)
        assert any("phantom" in fix for fix in report.fixes)
        system.crash("x")
        system.reboot()
        assert not system.fs.exists("/phantom")

    def test_orphan_reconnected_to_lost_found(self, system):
        ino = system.fs.create("/doomed")
        system.fs.write(ino, 0, b"orphan data")
        settle(system)
        # Remove the directory entry directly on disk, leaving the inode
        # allocated but unreachable.
        root = read_disk_inode(system, ROOT_INO)
        root_block = root.direct[0]
        raw = bytearray(system.disk.peek(root_block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(raw[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == "doomed":
                raw[off : off + DIRENT_SIZE] = b"\x00" * DIRENT_SIZE
        system.disk.poke(root_block * SECTORS_PER_BLOCK, bytes(raw))
        report = fsck(system.disk)
        assert report.orphans_reconnected == 1
        system.crash("x")
        system.reboot()
        assert system.fs.exists(f"/lost+found/#{ino}")
        assert system.fs.read(system.fs.namei(f"/lost+found/#{ino}"), 0, 16) == b"orphan data"

    def test_orphan_freed_when_lost_found_cannot_take_it(self, system):
        """With lost+found no longer a directory the orphan cannot be
        reconnected: fsck frees the inode and releases its blocks."""
        ino = system.fs.create("/doomed")
        system.fs.write(ino, 0, b"orphan data")
        settle(system)
        data_block = read_disk_inode(system, ino).direct[0]
        root_block = read_disk_inode(system, ROOT_INO).direct[0]
        raw = bytearray(system.disk.peek(root_block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(raw[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == "doomed":
                raw[off : off + DIRENT_SIZE] = b"\x00" * DIRENT_SIZE
        system.disk.poke(root_block * SECTORS_PER_BLOCK, bytes(raw))
        lost_found = read_disk_inode(system, LOST_FOUND_INO)
        lost_found.ftype = FileType.REGULAR
        block, offset = inode_disk_location(system, LOST_FOUND_INO)
        write_disk_bytes(system, block, offset, lost_found.to_bytes())

        def bitmap_bit(block_no):
            start = system.fs.sb.bitmap_start * SECTORS_PER_BLOCK
            bitmap = system.disk.peek(start, SECTORS_PER_BLOCK)
            return bitmap[block_no // 8] >> (block_no % 8) & 1

        assert bitmap_bit(data_block) == 1
        report = fsck(system.disk)
        assert report.orphans_freed == 1 and report.orphans_reconnected == 0
        assert f"inode {ino}: orphan freed" in report.fixes
        assert not read_disk_inode(system, ino).is_allocated
        assert bitmap_bit(data_block) == 0
        assert fsck(system.disk).fix_count == 0

    def test_link_count_repaired(self, system):
        ino = system.fs.create("/miscounted")
        settle(system)
        inode = read_disk_inode(system, ino)
        inode.nlink = 7
        block, offset = inode_disk_location(system, ino)
        write_disk_bytes(system, block, offset, inode.to_bytes())
        report = fsck(system.disk)
        assert any("link count" in fix for fix in report.fixes)
        assert read_disk_inode(system, ino).nlink == 1

    def test_bitmap_rebuilt_after_leak(self, system):
        """Blocks marked used but claimed by nobody are reclaimed."""
        ino = system.fs.create("/leaky")
        system.fs.write(ino, 0, b"x" * BLOCK_SIZE)
        settle(system)
        inode = read_disk_inode(system, ino)
        inode.direct[0] = 0  # drop the claim; the bitmap still says used
        inode.size = 0
        block, offset = inode_disk_location(system, ino)
        write_disk_bytes(system, block, offset, inode.to_bytes())
        report = fsck(system.disk)
        assert any("bitmap" in fix for fix in report.fixes)
