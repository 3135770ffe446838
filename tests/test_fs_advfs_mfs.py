"""Tests for AdvFS journaling and the memory file system."""

import pytest

from repro.errors import FileExists, FileNotFound, IsADirectory, DirectoryNotEmpty
from repro.fs.advfs import advfs_recover
from repro.fs.types import BLOCK_SIZE
from repro.system import SystemSpec, build_system


@pytest.fixture
def advfs_system():
    return build_system(SystemSpec(fs_type="advfs", policy="advfs", fs_blocks=512))


@pytest.fixture
def mfs_system():
    return build_system(SystemSpec(fs_type="mfs"))


class TestAdvFSJournal:
    def test_metadata_recoverable_from_journal_alone(self, advfs_system):
        """Metadata never written in place must be reconstructible by
        replaying the log after a crash."""
        s = advfs_system
        fd = s.vfs.open("/journaled", create=True)
        s.vfs.write(fd, b"file body")
        s.vfs.close(fd)
        s.fs.flush_data(sync=True)  # data to disk; metadata only in the log
        s.fs.journal_commit()
        s.crash("before any checkpoint")
        report = s.reboot()
        assert report.journal_records_applied > 0
        assert s.vfs.exists("/journaled")
        assert s.vfs.read(s.vfs.open("/journaled"), 16) == b"file body"

    def test_journal_writes_are_sequential(self, advfs_system):
        """The point of the log: consecutive records continue the previous
        disk access and skip the seek penalty."""
        s = advfs_system
        for i in range(10):
            fd = s.vfs.open(f"/seq{i}", create=True)
            s.vfs.close(fd)
        stats = s.disk.stats
        assert stats.async_writes > 0

    def test_checkpoint_truncates_log(self, advfs_system):
        s = advfs_system
        fd = s.vfs.open("/cp", create=True)
        s.vfs.close(fd)
        s.fs.journal_checkpoint()
        s.fs.flush_data(sync=True)
        s.drain_disks()
        s.crash("after checkpoint")
        report = s.reboot()
        # Nothing to replay: the checkpoint already applied everything.
        assert report.journal_records_applied == 0
        assert s.vfs.exists("/cp")

    def test_fsync_commits_the_journal(self, advfs_system):
        """An acknowledged fsync is the policy's durability point: the
        file's data is on disk and the log is forced, so a crash the
        instant it returns replays the metadata and keeps the bytes."""
        s = advfs_system
        fd = s.vfs.open("/synced", create=True)
        s.vfs.write(fd, b"acknowledged")
        s.vfs.fsync(fd)
        s.crash("the instant fsync returned")
        report = s.reboot()
        assert report.journal_records_applied > 0
        assert s.vfs.read(s.vfs.open("/synced"), 16) == b"acknowledged"

    def test_update_daemon_checkpoints_the_journal(self, advfs_system):
        """The 30-second daemon flushes delayed data and checkpoints:
        metadata lands in place and the log restarts in a new epoch, so
        recovery has nothing left to replay."""
        s = advfs_system
        fd = s.vfs.open("/delayed", create=True)
        s.vfs.write(fd, b"thirty seconds later")
        s.vfs.close(fd)
        epoch = s.fs._epoch
        s.clock.consume(31 * 10**9)
        s.kernel.maybe_run_update()
        assert s.fs._epoch == epoch + 1
        s.drain_disks()
        s.crash("after the daemon ran")
        report = s.reboot()
        assert report.journal_records_applied == 0
        assert s.vfs.read(s.vfs.open("/delayed"), 32) == b"thirty seconds later"

    def test_torn_record_ends_replay(self, advfs_system):
        s = advfs_system
        for i in range(5):
            fd = s.vfs.open(f"/t{i}", create=True)
            s.vfs.close(fd)
        s.fs.journal_commit()
        # Corrupt the second record's payload on disk.
        area = (s.fs.sb.journal_start + 1) * (BLOCK_SIZE // 512)
        second_record = area + 2  # first record header + payload sector
        s.disk.poke(second_record + 1, b"\xff" * 512)
        applied = advfs_recover(s.disk)
        assert applied >= 1  # replay stopped at the damage, did not raise

    def test_journal_wraps_via_checkpoint(self, advfs_system):
        """Filling the log region forces a checkpoint, not an overflow."""
        s = advfs_system
        for i in range(300):
            fd = s.vfs.open(f"/w{i % 7}", create=True) if not s.vfs.exists(f"/w{i % 7}") else s.vfs.open(f"/w{i % 7}")
            s.vfs.pwrite(fd, b"z" * 64, 0)
            s.vfs.close(fd)
        # Survived without ConfigurationError: checkpoints recycled the log.
        assert s.fs._epoch >= 1


class TestMemoryFileSystem:
    def test_basic_io(self, mfs_system):
        vfs = mfs_system.vfs
        fd = vfs.open("/f", create=True)
        vfs.write(fd, b"memory resident")
        vfs.close(fd)
        fd = vfs.open("/f")
        assert vfs.read(fd, 32) == b"memory resident"

    def test_no_disk_io_at_all(self, mfs_system):
        assert mfs_system.disk is None

    def test_directories(self, mfs_system):
        vfs = mfs_system.vfs
        vfs.mkdir("/d")
        vfs.mkdir("/d/e")
        fd = vfs.open("/d/e/f", create=True)
        vfs.close(fd)
        assert vfs.readdir("/d") == ["e"]
        assert vfs.readdir("/d/e") == ["f"]

    def test_errors(self, mfs_system):
        fs = mfs_system.fs
        fs.mkdir("/d")
        fs.create("/d/x")
        with pytest.raises(FileExists):
            fs.create("/d/x")
        with pytest.raises(FileNotFound):
            fs.unlink("/d/y")
        with pytest.raises(IsADirectory):
            fs.unlink("/d")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/d")

    def test_rename(self, mfs_system):
        fs = mfs_system.fs
        ino = fs.create("/a")
        fs.write(ino, 0, b"body")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read(fs.namei("/b"), 0, 8) == b"body"

    def test_sparse_write(self, mfs_system):
        fs = mfs_system.fs
        ino = fs.create("/sparse")
        fs.write(ino, 100, b"tail")
        assert fs.read(ino, 0, 4) == b"\x00" * 4
        assert fs.size_of(ino) == 104

    def test_truncate(self, mfs_system):
        fs = mfs_system.fs
        ino = fs.create("/t")
        fs.write(ino, 0, b"0123456789")
        fs.truncate(ino, 4)
        assert fs.read(ino, 0, 10) == b"0123"

    def test_nothing_survives_crash(self, mfs_system):
        vfs = mfs_system.vfs
        fd = vfs.open("/gone", create=True)
        vfs.write(fd, b"poof")
        vfs.close(fd)
        mfs_system.crash("power button")
        mfs_system.reboot()
        assert not mfs_system.vfs.exists("/gone")

    def test_write_charges_cpu_time(self, mfs_system):
        clock = mfs_system.clock
        fd = mfs_system.vfs.open("/cpu", create=True)
        t0 = clock.now_ns
        mfs_system.vfs.write(fd, b"x" * 100_000)
        assert clock.now_ns > t0


class TestMfsMount:
    def test_mfs_mounted_alongside_ufs(self):
        system = build_system(SystemSpec(policy="ufs_delayed", mfs_mount="/mfs"))
        vfs = system.vfs
        fd = vfs.open("/ondisk", create=True)
        vfs.write(fd, b"ufs file")
        vfs.close(fd)
        vfs.mkdir("/mfs/dir")
        fd = vfs.open("/mfs/dir/inram", create=True)
        vfs.write(fd, b"mfs file")
        vfs.close(fd)
        assert vfs.readdir("/mfs/dir") == ["inram"]
        assert vfs.read(vfs.open("/mfs/dir/inram"), 16) == b"mfs file"
        assert vfs.read(vfs.open("/ondisk"), 16) == b"ufs file"

    def test_rename_across_mounts_rejected(self):
        from repro.errors import CrossDevice

        system = build_system(SystemSpec(policy="ufs_delayed", mfs_mount="/mfs"))
        fd = system.vfs.open("/a", create=True)
        system.vfs.close(fd)
        with pytest.raises(CrossDevice):
            system.vfs.rename("/a", "/mfs/a")
