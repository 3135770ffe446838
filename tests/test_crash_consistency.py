"""Property-based crash-consistency tests.

The central invariant: *no matter where a crash lands, the recovery chain
leaves a consistent file system.*  We drive a workload, crash at an
arbitrary operation index, run the system's recovery (journal replay /
fsck / warm reboot), and then judge the disk with ``fs.dissect`` — which
shares no code with fsck or the kernel it judges.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.dissect import dissect_image, snapshot
from repro.system import SystemSpec, build_system
from repro.workloads.memtest import MemTest, MemTestParams

FAST_MEMTEST = MemTestParams(max_files=10, max_file_bytes=32 * 1024, max_io_bytes=4096)

#: The systems whose recovery chains (fsck, journal replay, warm reboot)
#: each property below judges.
CONFIGS = ("ufs", "ufs_delayed", "wt_write", "advfs", "rio_prot", "rio_noprot")


def crash_recover_validate(config_name: str, seed: int, crash_after: int):
    system = build_system(SystemSpec(config_name, fs_blocks=512))
    memtest = MemTest(system.vfs, seed, FAST_MEMTEST)
    memtest.setup()
    for _ in range(crash_after):
        memtest.step()
    system.crash("property-test crash")
    system.reboot()
    report = dissect_image(snapshot(system.disk))
    return system, memtest, report


class TestValidatorBaseline:
    def test_fresh_fs_is_consistent(self):
        system = build_system(SystemSpec("ufs", fs_blocks=512))
        system.settle()
        assert dissect_image(snapshot(system.disk)).clean

    def test_validator_catches_planted_damage(self):
        from repro.fs.ondisk import INODE_SIZE
        from repro.fs.types import SECTORS_PER_BLOCK

        system = build_system(SystemSpec("ufs", fs_blocks=512))
        ino = system.fs.create("/x")
        system.settle()
        # Plant damage: clear the root dirent's target inode on disk.
        sb = system.fs.sb
        block = sb.inode_start + ino // (8192 // INODE_SIZE)
        raw = bytearray(system.disk.peek(block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))
        offset = (ino % (8192 // INODE_SIZE)) * INODE_SIZE
        raw[offset : offset + INODE_SIZE] = b"\x00" * INODE_SIZE
        system.disk.poke(block * SECTORS_PER_BLOCK, bytes(raw))
        assert not dissect_image(snapshot(system.disk)).clean


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestCrashConsistencyPerConfig:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(1, 10_000), crash_after=st.integers(0, 120))
    def test_recovery_leaves_consistent_fs(self, config_name, seed, crash_after):
        system, _memtest, report = crash_recover_validate(config_name, seed, crash_after)
        assert report.clean, report.findings[:8]

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(1, 10_000), crash_after=st.integers(0, 80))
    def test_fs_usable_after_recovery(self, config_name, seed, crash_after):
        system, _memtest, _report = crash_recover_validate(config_name, seed, crash_after)
        vfs = system.vfs
        fd = vfs.open("/post-crash-probe", create=True)
        vfs.write(fd, b"life goes on")
        vfs.close(fd)
        assert vfs.read(vfs.open("/post-crash-probe"), 32) == b"life goes on"


class TestRioStrongConsistency:
    """Rio's stronger invariant: recovery loses NOTHING, not merely
    nothing structural."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(1, 10_000), crash_after=st.integers(1, 120))
    def test_every_completed_op_survives(self, seed, crash_after):
        from repro.workloads.memtest import MemTestModel, verify_against_model

        system, memtest, report = crash_recover_validate("rio_prot", seed, crash_after)
        assert report.clean, report.findings[:8]
        model, in_flight = MemTestModel.replay(seed, memtest.progress, FAST_MEMTEST)
        problems = verify_against_model(system.fs, model, in_flight)
        assert problems == []
