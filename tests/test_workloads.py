"""Tests for the workloads: memTest, Andrew, cp+rm, Sdet."""

import pytest

from repro.system import SystemSpec, build_system
from repro.util import pattern_bytes
from repro.workloads.andrew import COMPILE_MS_PER_FILE
from repro.workloads import (
    AndrewBenchmark,
    AndrewParams,
    CpRmParams,
    CpRmWorkload,
    MemTest,
    MemTestModel,
    MemTestParams,
    SdetParams,
    SdetWorkload,
    verify_against_model,
)


@pytest.fixture
def system():
    return build_system(SystemSpec("ufs_delayed", fs_blocks=1024))


class TestMemTestModel:
    def test_deterministic_generation(self):
        a = MemTestModel(99)
        b = MemTestModel(99)
        ops_a = [a.next_op() for _ in range(200)]
        ops_b = [b.next_op() for _ in range(200)]
        assert ops_a == ops_b

    def test_different_seeds_differ(self):
        a = [MemTestModel(1).next_op() for _ in range(10)]
        b = [MemTestModel(2).next_op() for _ in range(10)]
        assert a != b

    def test_replay_reaches_same_state(self):
        model = MemTestModel(5)
        for _ in range(150):
            model.next_op()
        replayed, in_flight = MemTestModel.replay(5, 150)
        assert replayed.files.keys() == model.files.keys()
        assert replayed.dirs == model.dirs
        assert in_flight.index == 150

    def test_expected_content_assembles_extents(self):
        model = MemTestModel(7)
        for _ in range(300):
            model.next_op()
        some_file = next(iter(model.files.values()))
        content = some_file.content()
        assert len(content) == some_file.size
        for offset, length in some_file.extents[-1:]:
            assert content[offset : offset + length] == pattern_bytes(
                some_file.file_key, offset, length
            )

    def test_op_mix_includes_all_kinds(self):
        model = MemTestModel(11)
        kinds = {model.next_op().kind for _ in range(1200)}
        assert kinds >= {"create", "delete", "write", "read", "mkdir", "rename"}

    def test_rmdir_reachable_with_churny_mix(self):
        """rmdir requires an empty directory; a delete-heavy mix gets there."""
        params = MemTestParams(weights=(2, 30, 1, 1, 20, 30, 0), max_dirs=6)
        model = MemTestModel(13, params)
        kinds = {model.next_op().kind for _ in range(800)}
        assert "rmdir" in kinds

    def test_rename_moves_expected_state(self):
        model = MemTestModel(17)
        for _ in range(400):
            op = model.next_op()
            if op.kind == "rename":
                assert op.path2 in model.files
                assert op.path not in model.files
                break
        else:
            raise AssertionError("no rename generated in 400 ops")


class TestMemTestExecution:
    def test_runs_against_real_fs(self, system):
        memtest = MemTest(system.vfs, 21)
        memtest.setup()
        for _ in range(250):
            memtest.step()
        assert memtest.progress == 250
        assert not memtest.read_mismatches  # online checks all passed

    def test_verify_clean_state(self, system):
        memtest = MemTest(system.vfs, 22)
        memtest.setup()
        for _ in range(200):
            memtest.step()
        model, in_flight = MemTestModel.replay(22, memtest.progress)
        problems = verify_against_model(system.fs, model, in_flight)
        assert problems == []

    def test_verify_detects_content_corruption(self, system):
        memtest = MemTest(system.vfs, 23)
        memtest.setup()
        for _ in range(200):
            memtest.step()
        # Corrupt one file behind memTest's back.
        path = sorted(memtest.model.files)[0]
        expected = memtest.model.files[path]
        if expected.size == 0:
            system.fs.write(system.fs.namei(path), 0, b"!")
        else:
            want = expected.content()
            system.fs.write(system.fs.namei(path), 0, bytes([want[0] ^ 0xFF]))
        model, _ = MemTestModel.replay(23, memtest.progress)
        problems = verify_against_model(system.fs, model, None)
        assert any(p.path == path for p in problems)

    def test_verify_detects_missing_file(self, system):
        memtest = MemTest(system.vfs, 24)
        memtest.setup()
        for _ in range(200):
            memtest.step()
        path = sorted(memtest.model.files)[-1]
        system.vfs.unlink(path)
        model, _ = MemTestModel.replay(24, memtest.progress)
        problems = verify_against_model(system.fs, model, None)
        assert any(p.path == path and p.problem == "missing" for p in problems)

    def test_verify_detects_extra_file(self, system):
        memtest = MemTest(system.vfs, 25)
        memtest.setup()
        for _ in range(100):
            memtest.step()
        fd = system.vfs.open("/memtest/impostor", create=True)
        system.vfs.close(fd)
        model, _ = MemTestModel.replay(25, memtest.progress)
        problems = verify_against_model(system.fs, model, None)
        assert any(p.problem == "extra" for p in problems)

    def test_in_flight_op_exempted(self, system):
        memtest = MemTest(system.vfs, 26)
        memtest.setup()
        for _ in range(150):
            memtest.step()
        model, in_flight = MemTestModel.replay(26, memtest.progress)
        # Manually perturb the in-flight op's path: must NOT be flagged.
        if in_flight.kind in ("write", "delete") and system.fs.exists(in_flight.path):
            system.fs.write(system.fs.namei(in_flight.path), 0, b"partial!")
        problems = verify_against_model(system.fs, model, in_flight)
        assert not any(p.path == in_flight.path for p in problems)

    def test_fsync_every_write_mode(self, system):
        memtest = MemTest(
            system.vfs, 27, MemTestParams(fsync_every_write=True)
        )
        memtest.setup()
        writes_before = system.disk.stats.writes
        for _ in range(60):
            memtest.step()
        assert system.disk.stats.writes > writes_before


class TestAndrew:
    def test_full_run(self, system):
        bench = AndrewBenchmark(system.vfs, system.kernel, AndrewParams(dirs=2, files_per_dir=3))
        seconds = bench.run()
        assert seconds > 0
        assert set(bench.phase_times) == {"mkdir", "create", "copy", "stat", "read", "compile"}
        # The object files exist and match the object ratio.
        objs = system.vfs.readdir("/andrew/obj")
        assert len(objs) == 6

    def test_compile_phase_dominated_by_cpu(self, system):
        params = AndrewParams(dirs=2, files_per_dir=3)
        bench = AndrewBenchmark(system.vfs, system.kernel, params)
        bench.run()
        assert bench.phase_times["compile"] >= 6 * COMPILE_MS_PER_FILE / 1000

    def test_ops_stream_is_usable(self, system):
        bench = AndrewBenchmark(system.vfs, system.kernel, AndrewParams(dirs=1, files_per_dir=2))
        stream = bench.ops()
        for _ in range(10):
            next(stream)()


class TestCpRm:
    def test_copy_then_remove(self, system):
        params = CpRmParams(dirs=2, files_per_dir=3, mean_file_bytes=4096)
        bench = CpRmWorkload(system.vfs, system.kernel, params)
        bench.setup()
        result = bench.run()
        assert result.cp_seconds >= 0
        assert result.total_seconds == result.cp_seconds + result.rm_seconds
        assert not system.vfs.exists("/dst")
        assert system.vfs.exists("/src/dir000/file000")

    def test_setup_charges_no_cpu_time(self, system):
        """Setup disables CPU charging; only the handful of cold metadata
        disk reads advance the clock (timed runs measure deltas anyway)."""
        params = CpRmParams(dirs=2, files_per_dir=2)
        bench = CpRmWorkload(system.vfs, system.kernel, params)
        t0 = system.clock.now_ns
        bench.setup()
        assert system.clock.now_ns - t0 < int(0.5e9)
        assert system.kernel.klib.charge_time  # restored afterwards

    def test_result_format(self):
        from repro.workloads.cp_rm import CpRmResult

        assert str(CpRmResult(76.0, 5.0)) == "81.0 (76.0+5.0)"


class TestSdet:
    def test_scripts_run_to_completion(self, system):
        bench = SdetWorkload(
            system.vfs, system.kernel, SdetParams(scripts=3, files_per_script=3)
        )
        seconds = bench.run()
        assert seconds > 0
        assert not system.vfs.exists("/sdet")  # cleaned up after itself

    def test_more_scripts_take_longer(self, system):
        light = SdetWorkload(
            build_system(SystemSpec("ufs", fs_blocks=1024)).vfs,
            system.kernel,
            SdetParams(scripts=1, files_per_script=3),
        )
        # Build two separate systems so timings are independent.
        s1 = build_system(SystemSpec("ufs", fs_blocks=1024))
        s2 = build_system(SystemSpec("ufs", fs_blocks=1024))
        t1 = SdetWorkload(s1.vfs, s1.kernel, SdetParams(scripts=1, files_per_script=4)).run()
        t2 = SdetWorkload(s2.vfs, s2.kernel, SdetParams(scripts=4, files_per_script=4)).run()
        assert t2 > t1
