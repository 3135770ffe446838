"""Tests for the write-back policies: when data reaches the disk."""

import pytest

from repro.fs.types import BLOCK_SIZE
from repro.fs.writeback import WRITE_POLICIES, make_policy
from repro.system import SystemSpec, build_system


def make(name: str):
    return build_system(SystemSpec(name, fs_blocks=512))


def durable(name: str, actions, *, warm: bool = True) -> bool:
    """Run ``actions`` against a fresh system, crash it, reboot, and
    report whether '/probe' survived with the expected content."""
    system = make(name)
    actions(system)
    system.crash("policy probe")
    system.reboot(preserve_memory=warm)
    if not system.fs.exists("/probe"):
        return False
    return system.fs.read(system.fs.namei("/probe"), 0, 64) == b"probe data"


def write_probe(system):
    fd = system.vfs.open("/probe", create=True)
    system.vfs.write(fd, b"probe data")
    system.vfs.close(fd)


class TestPolicyRegistry:
    def test_all_policies_registered(self):
        assert set(WRITE_POLICIES) == {
            "rio",
            "ufs",
            "ufs_delayed",
            "wt_close",
            "wt_write",
            "advfs",
        }

    def test_make_policy_unknown(self):
        with pytest.raises(KeyError):
            make_policy("zfs")

    def test_instances_are_fresh(self):
        assert make_policy("ufs") is not make_policy("ufs")


class TestDurabilitySemantics:
    def test_wt_write_survives_without_fsync(self):
        assert durable("wt_write", write_probe)

    def test_wt_close_survives_after_close(self):
        assert durable("wt_close", write_probe)

    def test_ufs_loses_unflushed_data(self):
        """Default UFS: a small write not yet at the 64 KB threshold is
        asynchronous-pending and dies with the crash (the paper: "many
        runs would lose asynchronously written data" without fsync)."""

        def actions(system):
            fd = system.vfs.open("/probe", create=True)
            system.vfs.write(fd, b"probe data")
            system.vfs.close(fd)

        assert not durable("ufs", actions)

    def test_ufs_64kb_threshold_triggers_flush(self):
        system = make("ufs")
        fd = system.vfs.open("/big", create=True)
        system.vfs.write(fd, b"x" * (70 * 1024))
        before_drain = system.disk.stats.async_writes
        assert before_drain > 0  # crossing 64 KB queued data writes

    def test_ufs_nonsequential_write_triggers_flush(self):
        system = make("ufs")
        fd = system.vfs.open("/rand", create=True)
        system.vfs.pwrite(fd, b"a", 0)
        async_before = system.disk.stats.async_writes
        system.vfs.pwrite(fd, b"b", 5 * BLOCK_SIZE)  # non-sequential
        assert system.disk.stats.async_writes > async_before

    def test_delayed_loses_everything_recent(self):
        assert not durable("ufs_delayed", write_probe)

    def test_delayed_keeps_data_after_daemon(self):
        def actions(system):
            write_probe(system)
            system.clock.consume(31 * 10**9)
            system.kernel.maybe_run_update()
            system.drain_disks()

        assert durable("ufs_delayed", actions)

    def test_rio_without_warm_reboot_loses_data(self):
        """The Rio *policy* alone (reliability writes off) is unsafe
        without the warm reboot — this is what distinguishes Rio from
        simply disabling writes (DESIGN.md D4): a cold reboot loses it."""
        assert not durable("rio_prot", write_probe, warm=False)

    def test_rio_policy_fsync_is_noop(self):
        system = make("rio_prot")
        fd = system.vfs.open("/probe", create=True)
        system.vfs.write(fd, b"probe data")
        system.vfs.fsync(fd)
        assert system.disk.stats.writes == 0

    def test_ufs_fsync_is_durable(self):
        def actions(system):
            fd = system.vfs.open("/probe", create=True)
            system.vfs.write(fd, b"probe data")
            system.vfs.fsync(fd)
            system.vfs.close(fd)

        assert durable("ufs", actions)


class TestSyncWriteCounts:
    def test_wt_write_issues_more_sync_writes_than_wt_close(self):
        def count_sync(policy):
            system = make(policy)
            fd = system.vfs.open("/f", create=True)
            for _ in range(8):
                system.vfs.write(fd, b"c" * 512)
            system.vfs.close(fd)
            return system.disk.stats.sync_writes

        assert count_sync("wt_write") > count_sync("wt_close")

    def test_rio_never_writes(self):
        system = make("rio_prot")
        fd = system.vfs.open("/f", create=True)
        system.vfs.write(fd, b"data" * 1000)
        system.vfs.fsync(fd)
        system.vfs.close(fd)
        assert system.disk.stats.writes == 0

    def test_ufs_metadata_synchronous(self):
        system = make("ufs")
        before = system.disk.stats.sync_writes
        system.vfs.mkdir("/newdir")  # directory + inode updates
        assert system.disk.stats.sync_writes > before
