"""Determinism guarantees: identical inputs produce identical simulations.

Everything in the reproduction — workload streams, fault mutations, disk
timing, crash outcomes — must be a pure function of explicit seeds, or
campaigns would not be replayable and EXPERIMENTS.md numbers would not be
regenerable.
"""

from repro import SystemSpec, build_system
from repro.perf import run_workload
from repro.workloads.cp_rm import CpRmParams
from repro.workloads.sdet import SdetParams, SdetWorkload


class TestPerfDeterminism:
    def test_same_run_same_virtual_time(self):
        params = CpRmParams(dirs=3, files_per_dir=3, mean_file_bytes=8192)
        a = run_workload("ufs", "cp_rm", cp_rm_params=params)
        b = run_workload("ufs", "cp_rm", cp_rm_params=params)
        assert a.seconds == b.seconds
        assert a.disk_stats == b.disk_stats

    def test_sdet_deterministic(self):
        def run():
            system = build_system(SystemSpec("wt_close", fs_blocks=1024))
            return SdetWorkload(
                system.vfs, system.kernel, SdetParams(scripts=2, files_per_script=3)
            ).run()

        assert run() == run()


class TestCrashDeterminism:
    def test_identical_crash_and_recovery(self):
        def run():
            system = build_system(SystemSpec("rio_prot", fs_blocks=512))
            from repro.workloads.memtest import MemTest

            memtest = MemTest(system.vfs, 99)
            memtest.setup()
            for _ in range(120):
                memtest.step()
            system.crash("deterministic crash")
            report = system.reboot()
            return (
                system.clock.now_ns,
                report.warm.ubc_restored,
                report.warm.metadata_restored,
                report.fsck.fix_count,
                system.disk.stats.sectors_written,
            )

        assert run() == run()

    def test_memory_images_bit_identical(self):
        def image():
            system = build_system(SystemSpec("rio_prot", fs_blocks=512))
            fd = system.vfs.open("/x", create=True)
            system.vfs.write(fd, b"deterministic bytes")
            system.vfs.close(fd)
            return system.machine.memory.dump_image()

        assert image() == image()
