"""Tests for system assembly and odds and ends across modules."""

import pytest

from repro import RioConfig, SystemSpec, build_system
from repro.core import ProtectionMode
from repro.errors import ConfigurationError


class TestSystemSpec:
    def test_describe(self):
        spec = SystemSpec()
        assert (spec.fs_type, spec.policy, spec.rio) == ("ufs", "ufs", None)
        spec = SystemSpec(policy="rio", rio=RioConfig.with_protection())
        assert (spec.fs_type, spec.policy, spec.rio.protection.value) == ("ufs", "rio", "vm_kseg")

    def test_build_with_overrides(self):
        system = build_system(policy="ufs_delayed", fs_blocks=512)
        assert system.spec.policy == "ufs_delayed"

    def test_build_with_spec_and_overrides(self):
        base = SystemSpec(policy="ufs")
        system = build_system(base, fs_blocks=512)
        assert system.spec.fs_blocks == 512
        assert base.fs_blocks != 512  # the original spec is untouched

    def test_unknown_fs_type(self):
        with pytest.raises(ConfigurationError):
            build_system(SystemSpec(fs_type="zfs"))

    def test_specs_are_isolated_across_systems(self):
        spec = SystemSpec(policy="ufs")
        a = build_system(spec)
        b = build_system(spec)
        fd = a.vfs.open("/only-in-a", create=True)
        a.vfs.close(fd)
        assert not b.vfs.exists("/only-in-a")


class TestRebootChains:
    def test_rio_spec_flags_propagate(self):
        system = build_system(SystemSpec(policy="rio", rio=RioConfig.with_protection()))
        assert system.kernel.reliability_writes_off
        assert system.kernel.mmu.kseg_through_tlb

    def test_reboot_rebuilds_kernel_objects(self):
        system = build_system(SystemSpec(policy="rio", rio=RioConfig.with_protection()))
        old_kernel, old_vfs = system.kernel, system.vfs
        system.crash("x")
        system.reboot()
        assert system.kernel is not old_kernel
        assert system.vfs is not old_vfs

    def test_clock_continues_across_reboot(self):
        system = build_system(SystemSpec(policy="ufs"))
        t0 = system.clock.now_ns
        system.crash("x")
        system.reboot()
        assert system.clock.now_ns > t0  # boot time + recovery I/O

    def test_cold_then_warm_cycles(self):
        system = build_system(SystemSpec(policy="rio", rio=RioConfig.with_protection()))
        fd = system.vfs.open("/a", create=True)
        system.vfs.write(fd, b"a")
        system.vfs.close(fd)
        system.crash("x")
        system.reboot(preserve_memory=False)  # cold: /a is gone
        assert not system.vfs.exists("/a")
        fd = system.vfs.open("/b", create=True)
        system.vfs.write(fd, b"b")
        system.vfs.close(fd)
        system.crash("y")
        system.reboot(preserve_memory=True)  # warm: /b survives
        assert system.vfs.exists("/b")

    def test_mount_count_increments(self):
        system = build_system(SystemSpec(policy="ufs"))
        first = system.fs.sb.mount_count
        system.crash("x")
        system.reboot()
        assert system.fs.sb.mount_count == first + 1


class TestCodePatchingSystem:
    def test_full_stack_with_code_patching(self):
        spec = SystemSpec(
            policy="rio",
            rio=RioConfig(protection=ProtectionMode.CODE_PATCHING),
        )
        system = build_system(spec)
        fd = system.vfs.open("/patched", create=True)
        system.vfs.write(fd, b"guarded by store checks")
        system.vfs.close(fd)
        system.crash("x")
        system.reboot()
        assert system.fs.read(system.fs.namei("/patched"), 0, 32) == b"guarded by store checks"


class TestCli:
    def test_demo_command(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out

    def test_mttf_command(self, capsys):
        from repro.__main__ import main

        assert main(["mttf"]) == 0
        assert "years" in capsys.readouterr().out
