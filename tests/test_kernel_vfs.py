"""Tests for the VFS syscall layer and kernel services."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    CrashedMachineError,
    FileNotFound,
    InvalidArgument,
    KernelPanic,
    MachineCheck,
    SystemCrash,
)
from repro.system import SystemSpec, build_system


@pytest.fixture
def system():
    return build_system(SystemSpec("ufs_delayed", fs_blocks=512))


@pytest.fixture
def vfs(system):
    return system.vfs


class TestFileDescriptors:
    def test_open_missing_fails(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.open("/missing")

    def test_open_create(self, vfs):
        fd = vfs.open("/new", create=True)
        assert fd >= 3
        vfs.close(fd)
        assert vfs.exists("/new")

    def test_fds_are_unique(self, vfs):
        a = vfs.open("/a", create=True)
        b = vfs.open("/b", create=True)
        assert a != b
        vfs.close(a)
        assert vfs.open("/a") not in (a, b)  # a closed fd is never reissued

    def test_close_invalidates(self, vfs):
        fd = vfs.open("/a", create=True)
        vfs.close(fd)
        with pytest.raises(BadFileDescriptor):
            vfs.read(fd, 1)

    def test_sequential_read_write(self, vfs):
        fd = vfs.open("/seq", create=True)
        vfs.write(fd, b"hello ")
        vfs.write(fd, b"world")
        assert vfs.read(fd, 64) == b""  # the offset sits at the end
        fd = vfs.open("/seq")
        assert vfs.read(fd, 6) == b"hello "
        assert vfs.read(fd, 64) == b"world"

    def test_open_truncate(self, vfs):
        fd = vfs.open("/t", create=True)
        vfs.write(fd, b"long old content")
        vfs.close(fd)
        fd = vfs.open("/t", truncate=True)
        vfs.write(fd, b"new")
        assert vfs.pread(fd, 64, 0) == b"new"

    def test_pread_pwrite_do_not_move_offset(self, vfs):
        fd = vfs.open("/p", create=True)
        vfs.pwrite(fd, b"0123456789", 0)
        assert vfs.pread(fd, 4, 2) == b"2345"
        assert vfs.read(fd, 3) == b"012"  # offset still at 0

    def test_negative_seek_rejected(self, vfs):
        fd = vfs.open("/s", create=True)
        with pytest.raises(InvalidArgument):
            vfs.pwrite(fd, b"x", -5)

    def test_large_write_chunked_through_staging(self, vfs):
        payload = bytes(range(256)) * 1024  # 256 KB > staging region
        fd = vfs.open("/big", create=True)
        assert vfs.write(fd, payload) == len(payload)
        assert vfs.pread(fd, len(payload), 0) == payload


class TestCrashPath:
    def test_syscall_after_crash_fails(self, system):
        system.crash("down")
        with pytest.raises(CrashedMachineError):
            system.vfs.open("/x", create=True)

    def test_kernel_goes_down_on_panic(self, system, monkeypatch):
        def explode(*args, **kwargs):
            raise KernelPanic("simulated consistency failure")

        monkeypatch.setattr(system.fs, "create", explode)
        with pytest.raises(SystemCrash):
            system.vfs.open("/x", create=True)
        assert system.machine.crashed
        assert system.machine.crash_log[-1].kind == "panic"

    def test_fs_errors_do_not_crash(self, system):
        with pytest.raises(FileNotFound):
            system.vfs.unlink("/nope")
        assert not system.machine.crashed


class TestKernelServices:
    def test_background_activity_runs_per_syscall(self, system):
        before = system.kernel.background.ticks_run
        system.vfs.exists("/")
        assert system.kernel.background.ticks_run == before + 1

    def test_syscall_overhead_charged(self, system):
        t0 = system.clock.now_ns
        system.vfs.exists("/")
        assert system.clock.now_ns > t0

    def test_update_daemon_fires_on_deadline(self, system):
        runs = system.kernel.stat_update_runs
        system.clock.consume(system.kernel.config.update_interval_ns + 1)
        system.vfs.exists("/")  # prologue notices the deadline
        assert system.kernel.stat_update_runs == runs + 1

    def test_staging_rejects_oversize(self, system):
        from repro.errors import ConfigurationError

        limit = len(system.kernel.regions.staging_frames) * 8192
        with pytest.raises(ConfigurationError):
            system.kernel.stage_data(b"\x00" * (limit + 1))

    def test_stage_data_roundtrip(self, system):
        vaddr = system.kernel.stage_data(b"user bytes")
        assert system.kernel.bus.load(vaddr, 10) == b"user bytes"

    def test_go_down_panic_sync_flushes_on_default_unix(self, system):
        """Default Unix panic writes dirty data back before dying."""
        fd = system.vfs.open("/dirty", create=True)
        system.vfs.write(fd, b"flushed by panic")
        writes_before = system.disk.stats.writes
        system.kernel.go_down(KernelPanic("die"))
        assert system.disk.stats.writes > writes_before

    def test_go_down_no_sync_when_reliability_writes_off(self):
        system = build_system(SystemSpec("rio_prot", fs_blocks=512))
        fd = system.vfs.open("/dirty", create=True)
        system.vfs.write(fd, b"stays in memory")
        writes_before = system.disk.stats.writes
        system.kernel.go_down(KernelPanic("die"))
        assert system.disk.stats.writes == writes_before

    @pytest.mark.parametrize(
        "error", [MachineCheck("sector out of range"), RuntimeError("harness bug")],
        ids=["simulated", "harness"],
    )
    def test_only_a_simulated_failure_ends_the_dying_sync_quietly(
        self, system, monkeypatch, error
    ):
        """The racy sync on the way down may fail part way, as a simulated
        failure; any other exception is a harness bug and escapes."""

        def flush_all(sync):
            raise error

        monkeypatch.setattr(system.kernel.buffer_cache, "flush_all", flush_all)
        if isinstance(error, MachineCheck):
            system.kernel.go_down(KernelPanic("die"))
            assert system.machine.crashed
        else:
            with pytest.raises(RuntimeError, match="harness bug"):
                system.kernel.go_down(KernelPanic("die"))
