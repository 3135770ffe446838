"""Tests for system assembly and odds and ends across modules."""

import inspect
from dataclasses import fields

import pytest

from repro import RioConfig, SystemSpec, build_system
from repro.core import ProtectionMode
from repro.explore import ExploreConfig
from repro.faults import FaultInjector
from repro.fs.ufs import UFS
from repro.hw import MachineConfig
from repro.kernel import KernelConfig
from repro.reliability import CampaignEngine, CrashTestConfig
from repro.server import ServiceConfig


class TestSystemSpec:
    def test_describe(self):
        system = build_system(SystemSpec())
        assert (system.spec.name, type(system.fs), system.fs.policy.name) == ("ufs", UFS, "ufs")
        assert system.rio is None
        system = build_system(SystemSpec("rio_prot"))
        assert system.fs.policy.name == "rio"
        assert system.rio.config.protection is ProtectionMode.VM_KSEG

    def test_build_with_overrides(self):
        system = build_system(name="ufs_delayed", fs_blocks=512)
        assert system.fs.policy.name == "ufs_delayed"

    def test_build_with_spec_and_overrides(self):
        base = SystemSpec("ufs")
        system = build_system(base, fs_blocks=512)
        assert system.spec.fs_blocks == 512
        assert base.fs_blocks != 512  # the original spec is untouched

    def test_unknown_fs_type(self):
        with pytest.raises(ValueError, match="unknown system 'zfs'"):
            SystemSpec("zfs")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"policy": "wt_write", "rio": RioConfig()},  # Rio under write-through
            {"phoenix": True, "rio": RioConfig()},  # rio silently ignored
            {"fs_type": "advfs", "policy": "rio", "rio": RioConfig()},  # Rio over AdvFS
        ],
        ids=["rio-under-wt_write", "phoenix-and-rio", "rio-over-advfs"],
    )
    def test_a_system_nobody_runs_cannot_be_described(self, knobs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            SystemSpec(**knobs)

    def test_every_named_system_has_a_disk_and_keeps_its_backend(self):
        """MFS is Table 2's row (root on disk, /mfs in RAM): every system
        has a disk and swap, so a backend is installed, never dropped."""
        system = build_system(SystemSpec("mfs", backend="tiered"))
        assert system.disk is not None and system.swap is not None
        assert system.backing is not None

    def test_a_spec_is_a_name_plus_sizes_and_seeds(self):
        assert [f.name for f in fields(SystemSpec)] == [
            "name", "checksums", "kernel",
            "fs_blocks", "inode_blocks", "backend", "backend_seed",
        ]
        assert [f.name for f in fields(RioConfig)] == [
            "protection", "shadow_metadata", "maintain_checksums",
        ]

    def test_what_else_is_settable_is_pinned(self):
        """The paper's one machine is constants (page and sector size,
        kernel layout, instruction cost, fd quota), and so is its crash
        trial (workload mix, injection window, fault rates, budget); a
        new knob here is a deliberate edit of this list."""
        assert [f.name for f in fields(MachineConfig)] == [
            "memory_bytes", "boot_time_ns", "fast_path",
        ]
        assert [f.name for f in fields(KernelConfig)] == ["update_interval_ns"]
        assert [f.name for f in fields(ServiceConfig)] == [
            "queue_depth", "batch_size", "quantum", "repair_on_recover", "ack_before_execute",
        ]
        assert [f.name for f in fields(CrashTestConfig)] == [
            "system", "fault_type", "seed", "max_ops_after_injection", "keep_system",
            "trace_events",
        ]
        assert [f.name for f in fields(ExploreConfig)] == [
            "workload", "system", "seed", "ops", "clients", "ops_per_client",
            "plant_ack_bug", "backend",
        ]
        assert list(inspect.signature(FaultInjector).parameters) == ["kernel", "seed"]
        assert list(inspect.signature(CampaignEngine).parameters) == [
            "crashes_per_cell", "systems", "fault_types", "base_seed", "max_attempts_factor",
            "max_ops_after_injection", "trace_events", "jobs", "checkpoint", "max_trials",
            "progress", "progress_interval_s",
        ]

    def test_specs_are_isolated_across_systems(self):
        spec = SystemSpec("ufs")
        a = build_system(spec)
        b = build_system(spec)
        fd = a.vfs.open("/only-in-a", create=True)
        a.vfs.close(fd)
        assert not b.vfs.exists("/only-in-a")


class TestRebootChains:
    def test_rio_spec_flags_propagate(self):
        system = build_system(SystemSpec("rio_prot"))
        assert system.kernel.reliability_writes_off
        assert system.kernel.mmu.kseg_through_tlb

    def test_reboot_rebuilds_kernel_objects(self):
        system = build_system(SystemSpec("rio_prot"))
        old_kernel, old_vfs = system.kernel, system.vfs
        system.crash("x")
        system.reboot()
        assert system.kernel is not old_kernel
        assert system.vfs is not old_vfs

    def test_clock_continues_across_reboot(self):
        system = build_system(SystemSpec("ufs"))
        t0 = system.clock.now_ns
        system.crash("x")
        system.reboot()
        assert system.clock.now_ns > t0  # boot time + recovery I/O

    def test_cold_then_warm_cycles(self):
        system = build_system(SystemSpec("rio_prot"))
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
        system = build_system(SystemSpec("ufs"))
        first = system.fs.sb.mount_count
        system.crash("x")
        system.reboot()
        assert system.fs.sb.mount_count == first + 1


class TestCodePatchingSystem:
    def test_full_stack_with_code_patching(self):
        system = build_system(SystemSpec("rio_patch"))
        assert system.rio.config.protection is ProtectionMode.CODE_PATCHING
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
