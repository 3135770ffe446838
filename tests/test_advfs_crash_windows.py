"""AdvFS crash-window tests: crashes at awkward journal moments."""

import pytest

from repro.fs.advfs import advfs_recover
from repro.fs.dissect import dissect_image, snapshot
from repro.system import SystemSpec, build_system


@pytest.fixture
def system():
    return build_system(SystemSpec(fs_type="advfs", policy="advfs", fs_blocks=512))


class TestJournalCrashWindows:
    def test_crash_during_checkpoint_window(self, system):
        """Crash right after a checkpoint reset the header but (possibly)
        before in-place flushes landed: recovery must still produce a
        consistent file system (the checkpoint's flush writes race the
        crash in the disk queue)."""
        vfs = system.vfs
        for i in range(6):
            fd = vfs.open(f"/pre{i}", create=True)
            vfs.write(fd, b"x" * 1000)
            vfs.close(fd)
        system.fs.journal_checkpoint()  # async flushes + header reset queued
        system.crash("mid checkpoint")
        system.reboot()
        report = dissect_image(snapshot(system.disk))
        assert report.clean, report.findings[:6]

    def test_epoch_prevents_stale_replay(self, system):
        """Records from an older epoch must not be replayed after a
        checkpoint truncates the log."""
        vfs = system.vfs
        fd = vfs.open("/old", create=True)
        vfs.close(fd)
        system.fs.journal_commit()
        old_epoch = system.fs._epoch
        system.fs.journal_checkpoint()
        system.fs.flush_metadata(sync=True)
        system.drain_disks()
        assert system.fs._epoch == old_epoch + 1
        # The old records still sit in the journal area, but replay must
        # apply none of them.
        applied = advfs_recover(system.disk)
        assert applied == 0

    def test_mount_bumps_epoch(self, system):
        """Each mount invalidates whatever the previous life logged."""
        first_epoch = system.fs._epoch
        system.crash("x")
        system.reboot()
        assert system.fs._epoch == first_epoch + 1

    def test_interleaved_data_and_journal_traffic(self, system):
        """Data flushes and journal appends share the disk; everything
        still recovers."""
        vfs = system.vfs
        for i in range(10):
            fd = vfs.open(f"/mix{i}", create=True)
            vfs.write(fd, b"d" * 4000)
            vfs.close(fd)
            if i % 3 == 0:
                system.fs.flush_data(sync=False)
        system.fs.journal_commit()
        system.fs.flush_data(sync=True)
        system.crash("x")
        system.reboot()
        assert dissect_image(snapshot(system.disk)).clean
        for i in range(10):
            assert system.vfs.exists(f"/mix{i}")

    def test_journal_region_isolated_from_data(self, system):
        """Journal writes never land in the data region and vice versa."""
        sb = system.fs.sb
        vfs = system.vfs
        fd = vfs.open("/f", create=True)
        vfs.write(fd, b"z" * 8192)
        vfs.close(fd)
        system.fs.flush_data(sync=True)
        system.fs.journal_commit()
        # Journal header magic is intact after data traffic.
        header = system.disk.peek(sb.journal_start * 16, 1)
        assert header[:4] == b"GOLA"[::-1] or header[:4] == (0x414C4F47).to_bytes(4, "little")
