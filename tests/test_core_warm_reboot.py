"""Tests for the warm reboot: dump, metadata restore, UBC restore."""

import pytest

from repro.core import RioConfig
from repro.errors import ProtectionTrap
from repro.fs.types import BLOCK_SIZE
from repro.system import SystemSpec, build_system
from repro.util import pattern_bytes


def rio_system(**kw):
    return build_system(SystemSpec(policy="rio", rio=RioConfig.with_protection(), **kw))


class TestWarmRebootEndToEnd:
    def test_dirty_data_survives_crash(self):
        system = rio_system()
        fd = system.vfs.open("/survivor", create=True)
        payload = pattern_bytes(7, 0, 3 * BLOCK_SIZE + 17)
        system.vfs.write(fd, payload)
        system.vfs.close(fd)
        assert system.disk.stats.writes == 0  # nothing was reliability-written
        system.crash("kernel went down")
        report = system.reboot()
        assert report.warm.registry_found
        assert report.warm.ubc_restored >= 4
        fd = system.vfs.open("/survivor")
        assert system.vfs.read(fd, len(payload) + 10) == payload

    def test_metadata_restored_before_fsck(self):
        """Directory structure created purely in memory must be on disk
        after the warm reboot's metadata pass (step 1), so fsck sees an
        intact file system."""
        system = rio_system()
        system.vfs.mkdir("/deep")
        system.vfs.mkdir("/deep/nest")
        fd = system.vfs.open("/deep/nest/file", create=True)
        system.vfs.write(fd, b"nested")
        system.vfs.close(fd)
        system.crash("boom")
        report = system.reboot()
        assert report.warm.metadata_restored > 0
        assert report.fsck.fix_count == 0  # fsck found nothing to repair
        assert system.vfs.read(system.vfs.open("/deep/nest/file"), 10) == b"nested"

    def test_dump_lands_in_swap(self):
        system = rio_system()
        system.crash("boom")
        report = system.reboot()
        assert report.warm.dumped_bytes == system.machine.memory.size
        image = system.swap.read_memory_image(64)
        assert len(image) == 64

    def test_deleted_file_not_resurrected(self):
        system = rio_system()
        fd = system.vfs.open("/ghost", create=True)
        system.vfs.write(fd, b"ephemeral")
        system.vfs.close(fd)
        system.vfs.unlink("/ghost")
        system.crash("boom")
        system.reboot()
        assert not system.vfs.exists("/ghost")

    def test_cold_reboot_on_pc_loses_memory(self):
        """Section 5: the PCs tested erase memory on reset, making warm
        reboot impossible — only disk contents survive."""
        system = rio_system()
        fd = system.vfs.open("/volatile", create=True)
        system.vfs.write(fd, b"in memory only")
        system.vfs.close(fd)
        system.crash("boom")
        report = system.reboot(preserve_memory=False)
        assert report.warm is None or not report.warm.registry_found
        assert not system.vfs.exists("/volatile")

    def test_write_avoidance_without_warm_reboot_is_data_loss(self):
        """DESIGN.md D4: reliability writes off and no warm reboot —
        the two mechanisms only work together."""
        system = build_system(
            SystemSpec(policy="rio", rio=RioConfig.with_protection(warm_reboot=False))
        )
        fd = system.vfs.open("/precious", create=True)
        system.vfs.write(fd, b"only copy")
        system.vfs.close(fd)
        system.crash("boom")
        system.reboot()
        assert not system.vfs.exists("/precious")

    def test_warm_reboot_without_rio_registry(self):
        """A non-Rio system has no registry: reboot is fsck-only."""
        system = build_system(SystemSpec(policy="ufs"))
        system.crash("boom")
        report = system.reboot()
        assert report.warm is None
        assert report.fsck is not None

    def test_overwritten_data_restores_latest_version(self):
        system = rio_system()
        fd = system.vfs.open("/versioned", create=True)
        system.vfs.write(fd, b"old old old")
        system.vfs.pwrite(fd, b"NEW", 0)
        system.vfs.close(fd)
        system.crash("boom")
        system.reboot()
        fd = system.vfs.open("/versioned")
        assert system.vfs.read(fd, 16) == b"NEWold old!"[:3] + b" old old"[-8:]

    def test_clean_data_not_rewritten(self):
        """Pages already clean (flushed by eviction) need no restore."""
        system = rio_system()
        fd = system.vfs.open("/clean", create=True)
        system.vfs.write(fd, b"will be flushed")
        system.fs.flush_data(sync=True)  # administrative flush
        system.crash("boom")
        report = system.reboot()
        assert report.warm.ubc_restored == 0
        fd = system.vfs.open("/clean")
        assert system.vfs.read(fd, 32) == b"will be flushed"

    def test_checksum_audit_flags_corrupted_page(self):
        system = rio_system()
        fd = system.vfs.open("/target", create=True)
        system.vfs.write(fd, b"pristine content")
        system.vfs.close(fd)
        # Hardware-level corruption of the file page behind the MMU's back
        # (what a wild store would do on an unprotected system).
        page = next(p for p in system.kernel.ubc.pages.values())
        system.machine.memory.flip_bit(page.pfn * BLOCK_SIZE + 3, 5)
        system.crash("boom")
        report = system.reboot()
        assert page.registry_slot in report.warm.checksum_mismatches

    @pytest.mark.parametrize("kind", ["rio", "rio-no-checksums", "phoenix"])
    def test_audit_only_where_checksums_were_maintained(self, kind):
        """A cache that keeps no checksums (every Rio row of Table 2,
        Phoenix) stores 0 in each entry: auditing those reported every
        intact page corrupt, and campaigns, the explorer and forensics all
        read that list."""
        if kind == "phoenix":
            system = build_system(SystemSpec(policy="rio", phoenix=True))
        else:
            rio = RioConfig.with_protection(maintain_checksums=kind == "rio")
            system = build_system(SystemSpec(policy="rio", rio=rio))
        fd = system.vfs.open("/f", create=True)
        system.vfs.write(fd, b"x" * 20 * 1024)
        if kind == "phoenix":
            system.phoenix.checkpoint()
        system.crash("boom")
        warm = system.reboot().warm
        assert warm.valid_entries >= 3
        assert warm.checksum_mismatches == []

    def test_rio_protection_also_guards_during_reboot_gap(self):
        """Protection state is CPU state: after reset it is off until the
        new Rio engages; but memory content was already dumped."""
        system = rio_system()
        fd = system.vfs.open("/x", create=True)
        system.vfs.write(fd, b"x")
        page = next(p for p in system.kernel.ubc.pages.values())
        with pytest.raises(ProtectionTrap):
            system.kernel.bus.store(page.vaddr, b"wild")
        system.crash("boom")
        system.reboot()
        # New kernel, new Rio: protection is live again on new pages.
        fd = system.vfs.open("/y", create=True)
        system.vfs.write(fd, b"y")
        new_page = next(
            p for p in system.kernel.ubc.pages.values() if p.dirty
        )
        with pytest.raises(ProtectionTrap):
            system.kernel.bus.store(new_page.vaddr, b"wild")


class TestWarmRebootCost:
    """Section 2.2: "our first priority ... is ease of implementation,
    rather than reboot speed" — the warm reboot is a reset, a dump of all
    of memory and a registry-driven restore, and costs exactly that."""

    def test_two_megabytes_dirty_breakdown(self):
        system = rio_system()
        for i in range(16):
            fd = system.vfs.open(f"/file{i:03d}", create=True)
            system.vfs.write(fd, pattern_bytes(i, 0, 128 * 1024))
            system.vfs.close(fd)
        system.crash("boom")
        swap_disk = system.swap.disk
        began, swap_busy = system.clock.now_ns, swap_disk.stats.busy_ns
        report = system.reboot()
        total = system.clock.now_ns - began
        assert report.warm.ubc_restored >= 16
        assert report.fsck.fix_count == 0
        # The reset, then one request that carries all of memory to swap
        # (16 MiB at 5 MiB/s: 3.2 s of transfer), then the restore —
        # metadata to disk, fsck, mount, dirty pages through the fs.
        boot = system.machine.config.boot_time_ns
        dump = swap_disk.stats.busy_ns - swap_busy
        memory_bytes = system.machine.memory.size
        assert report.warm.dumped_bytes == memory_bytes
        assert dump == swap_disk.params.service_ns(memory_bytes, sequential=False)
        assert dump >= swap_disk.params.transfer_ns(memory_bytes) == 3_200_000_000
        restore = total - boot - dump
        assert 0 < restore < dump < boot
        assert boot == 30_000_000_000 and boot + dump > 0.95 * total


class TestRepeatedCrashes:
    def test_multiple_crash_reboot_cycles(self):
        system = rio_system()
        for round_no in range(3):
            fd = system.vfs.open(f"/round{round_no}", create=True)
            system.vfs.write(fd, f"data {round_no}".encode())
            system.vfs.close(fd)
            system.crash(f"crash {round_no}")
            report = system.reboot()
            assert report.warm.registry_found
            for previous in range(round_no + 1):
                fd = system.vfs.open(f"/round{previous}")
                assert system.vfs.read(fd, 16) == f"data {previous}".encode()
