"""Tests for fsck: detection and repair of on-disk damage."""

import pytest

from repro.fs.dissect import second_opinion, snapshot
from repro.fs.fsck import LOST_FOUND_INO, fsck
from repro.fs.ondisk import DIRENT_SIZE, DirEntry, INODE_SIZE, Inode
from repro.fs.types import BLOCK_SIZE, FileType, N_DIRECT, ROOT_INO, SECTORS_PER_BLOCK
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


def patch_disk_inode(system, ino, mutate):
    inode = read_disk_inode(system, ino)
    mutate(inode)
    block, offset = inode_disk_location(system, ino)
    write_disk_bytes(system, block, offset, inode.to_bytes())


def fsck_and_second_opinion(system):
    """Run fsck, then hold its verdict against the independent judge: the
    repaired image must dissect clean with nothing left to disclose, and
    a second fsck must find nothing more to fix."""
    report = fsck(system.disk)
    assert not report.unrecoverable
    scan, divergence = second_opinion(snapshot(system.disk), report)
    assert divergence.agreed, divergence.format()
    assert scan.clean, scan.format()
    assert fsck(system.disk).fixes == []
    return report


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


class TestRepairArmsAgainstTheSecondOpinion:
    """The rarely-reached repair arms, one hand-smashed image each; every
    one must end with dissect agreeing the image is clean."""

    TWO_INDIRECT = b"x" * BLOCK_SIZE * (N_DIRECT + 2)

    def test_bad_indirect_pointer_cleared(self, system):
        ino = system.fs.create("/big")
        system.fs.write(ino, 0, self.TWO_INDIRECT)
        settle(system)
        beyond = system.fs.sb.total_blocks + 7
        patch_disk_inode(system, ino, lambda i: setattr(i, "indirect", beyond))
        report = fsck_and_second_opinion(system)
        assert f"inode {ino}: bad indirect pointer {beyond}; cleared" in report.fixes
        assert read_disk_inode(system, ino).indirect == 0

    def test_doubly_claimed_indirect_block_cleared(self, system):
        first = system.fs.create("/first")
        big = system.fs.create("/big")
        system.fs.write(first, 0, b"owner")
        system.fs.write(big, 0, self.TWO_INDIRECT)
        settle(system)
        taken = read_disk_inode(system, first).direct[0]
        patch_disk_inode(system, big, lambda i: setattr(i, "indirect", taken))
        report = fsck_and_second_opinion(system)
        assert f"inode {big}: indirect block doubly claimed; cleared" in report.fixes
        assert read_disk_inode(system, big).indirect == 0
        assert read_disk_inode(system, first).direct[0] == taken  # first claimant wins

    def test_bad_and_duplicate_indirect_entries_cleared(self, system):
        ino = system.fs.create("/big")
        system.fs.write(ino, 0, b"x" * BLOCK_SIZE * (N_DIRECT + 3))
        settle(system)
        inode = read_disk_inode(system, ino)
        beyond = system.fs.sb.total_blocks + 9
        write_disk_bytes(system, inode.indirect, 0, beyond.to_bytes(4, "little"))
        write_disk_bytes(system, inode.indirect, 4, inode.direct[0].to_bytes(4, "little"))
        report = fsck_and_second_opinion(system)
        for entry in (beyond, inode.direct[0]):
            assert f"inode {ino}: bad/duplicate indirect entry {entry}; cleared" in report.fixes
        pointers = system.disk.peek(inode.indirect * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
        assert pointers[:8] == b"\x00" * 8 and pointers[8:12] != b"\x00" * 4

    @pytest.mark.parametrize("smash", ["retyped", "zeroed"])
    def test_missing_root_recreated_with_a_reachable_lost_found(self, system, smash):
        """An empty, block-less root could take no entry, so nothing could
        be reconnected: fsck said "repaired" over a tree with no reachable
        inode.  The recreated root now carries ``.``, ``..`` and
        ``lost+found``, and the orphan pass hangs the old tree there."""
        keep = system.fs.create("/keep")
        system.fs.write(keep, 0, b"survives")
        system.fs.mkdir("/d")
        d = system.fs.namei("/d")
        nested = system.fs.create("/d/nested")
        settle(system)
        if smash == "retyped":
            patch_disk_inode(system, ROOT_INO, lambda i: setattr(i, "ftype", FileType.REGULAR))
        else:
            block, offset = inode_disk_location(system, ROOT_INO)
            write_disk_bytes(system, block, offset, b"\x00" * INODE_SIZE)
        report = fsck_and_second_opinion(system)
        assert "root directory missing; recreated with lost+found" in report.fixes
        assert report.orphans_reconnected >= 2 and report.orphans_freed == 0
        system.crash("root was smashed")
        system.reboot()
        fs = system.fs
        assert fs.read(fs.namei(f"/lost+found/#{keep}"), 0, 8) == b"survives"
        assert fs.namei(f"/lost+found/#{d}/nested") == nested

    def test_missing_root_on_a_full_disk_is_unrecoverable_not_blessed(self):
        """No block left to hold the new root's entries: fsck says so
        instead of blessing a tree nothing is reachable in."""
        from repro.errors import NoSpace

        system = build_system(SystemSpec(policy="ufs_delayed", fs_blocks=64))
        fill = system.fs.create("/fill")
        with pytest.raises(NoSpace):
            for index in range(64):
                system.fs.write(fill, index * BLOCK_SIZE, b"f" * BLOCK_SIZE)
        settle(system)
        root_block = read_disk_inode(system, ROOT_INO).direct[0]
        block, offset = inode_disk_location(system, ROOT_INO)
        write_disk_bytes(system, block, offset, b"\x00" * INODE_SIZE)
        # The one block the dead root gave back is claimed by the file.
        inode = read_disk_inode(system, fill)
        spare = (inode.size // BLOCK_SIZE - N_DIRECT) * 4  # first unused indirect slot
        write_disk_bytes(system, inode.indirect, spare, root_block.to_bytes(4, "little"))
        report = fsck(system.disk)
        assert report.unrecoverable
        assert report.fixes[-1] == "root directory missing; no free block to recreate it in"
        assert second_opinion(snapshot(system.disk), report)[1].agreed  # both: unusable

    def test_bad_dot_entry_fixed(self, system):
        system.fs.mkdir("/d")
        other = system.fs.create("/other")
        settle(system)
        d = system.fs.namei("/d")
        block = read_disk_inode(system, d).direct[0]
        raw = system.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
        for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
            entry = DirEntry.from_bytes(bytes(raw[off : off + DIRENT_SIZE]))
            if entry is not None and entry.name == ".":
                write_disk_bytes(system, block, off, DirEntry(other, ".").to_bytes())
        report = fsck_and_second_opinion(system)
        assert report.fixes == [f"dir {d}: bad '.'; fixed"]
