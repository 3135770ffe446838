"""Tests for the simulated disk: timing, queueing, crash semantics."""

import pytest

from repro.disk import SECTOR_SIZE as SS, SimulatedDisk, SwapPartition
from repro.disk.model import service_ns
from repro.errors import ConfigurationError, MachineCheck
from repro.hw.clock import Clock, NS_PER_MS


def make_disk(sectors=1024, clock=None):
    disk = SimulatedDisk("test", sectors)
    disk.attach(clock or Clock())
    return disk


class TestSectorStore:
    def test_peek_zero_filled(self):
        disk = make_disk()
        assert disk.peek(10, 2) == b"\x00" * 2 * SS

    def test_poke_peek_roundtrip(self):
        disk = make_disk()
        data = bytes(range(256)) * 4  # 2 sectors
        disk.poke(5, data)
        assert disk.peek(5, 2) == data

    def test_poke_requires_whole_sectors(self):
        with pytest.raises(ValueError):
            make_disk().poke(0, b"partial")

    def test_out_of_range(self):
        disk = make_disk(sectors=8)
        with pytest.raises(MachineCheck):
            disk.peek(7, 2)
        with pytest.raises(MachineCheck):
            disk.poke(8, b"\x00" * SS)


class TestTiming:
    def test_sync_write_advances_clock(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.write(0, b"\x01" * SS, sync=True)
        # overhead + seek + rotation + transfer: strictly positive.
        assert clock.now_ns > 0

    def test_async_write_does_not_advance_clock(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.write(0, b"\x01" * SS, sync=False)
        assert clock.now_ns == 0
        assert len(disk._pending) == 1

    def test_async_data_immediately_readable(self):
        disk = make_disk()
        disk.write(3, b"\xaa" * SS, sync=False)
        assert disk.peek(3, 1) == b"\xaa" * SS

    def test_requests_queue_behind_each_other(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.write(0, b"\x01" * SS, sync=False)
        busy_after_one = disk.busy_until_ns
        disk.write(100, b"\x02" * SS, sync=False)
        assert disk.busy_until_ns > busy_after_one

    def test_sequential_access_is_cheaper(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.write(0, b"\x01" * SS, sync=True)
        t0 = clock.now_ns
        disk.write(1, b"\x02" * SS, sync=True)  # continues previous access
        sequential_cost = clock.now_ns - t0
        t1 = clock.now_ns
        disk.write(500, b"\x03" * SS, sync=True)  # random access
        random_cost = clock.now_ns - t1
        assert sequential_cost < random_cost

    def test_service_time_scales_with_size(self):
        small = service_ns(SS, sequential=False)
        large = service_ns(64 * SS, sequential=False)
        assert large > small

    def test_drain_completes_all(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        completions = []
        for i in range(5):
            disk.write(i * 10, b"\x01" * SS, sync=False, on_complete=completions.append)
        disk.drain()
        assert len(completions) == 5
        assert len(disk._pending) == 0

    def test_completion_callback_fires_when_time_passes(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        done = []
        req = disk.write(0, b"\x01" * SS, sync=False, on_complete=done.append)
        assert not done
        clock.advance_to(req.completion_ns)
        assert done == [req]

    def test_read_waits_for_queue(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.write(0, b"\x01" * SS, sync=False)
        busy = disk.busy_until_ns
        disk.read(50, 1)
        assert clock.now_ns > busy  # read was serviced after the write


class TestCrashSemantics:
    def test_completed_write_survives_crash(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        req = disk.write(0, b"\x07" * SS, sync=False)
        clock.advance_to(req.completion_ns)
        disk.crash()
        assert disk.peek(0, 1) == b"\x07" * SS

    def test_never_started_write_rolls_back(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.poke(0, b"\x01" * SS)
        first = disk.write(50, b"\x02" * SS, sync=False)
        disk.write(0, b"\x03" * SS, sync=False)  # queued behind `first`
        # Crash before even the first request starts transferring is hard
        # (start == now); crash midway through `first` instead: the second
        # request has not started and must roll back fully.
        clock.advance_to(first.start_ns + (first.completion_ns - first.start_ns) // 2)
        disk.crash()
        assert disk.peek(0, 1) == b"\x01" * SS
        assert disk.stats.lost_writes >= 1

    def test_in_flight_multisector_write_is_torn(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        old = b"\x11" * (8 * SS)
        new = b"\x22" * (8 * SS)
        disk.poke(0, old)
        req = disk.write(0, new, sync=False)
        midpoint = req.start_ns + (req.completion_ns - req.start_ns) * 3 // 4
        clock_target = midpoint
        clock.advance_to(clock_target)
        disk.crash()
        contents = disk.peek(0, 8)
        sectors = [contents[i * SS : (i + 1) * SS] for i in range(8)]
        assert sectors[0] == b"\x22" * SS  # written before the crash
        assert sectors[-1] == b"\x11" * SS  # never reached
        torn = [s for s in sectors if s != b"\x11" * SS and s != b"\x22" * SS]
        assert len(torn) == 1  # exactly one sector under the head
        assert disk.stats.torn_sectors == 1

    def test_overlapping_queued_writes_roll_back_in_order(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.poke(0, b"\x01" * SS)
        first = disk.write(0, b"\x02" * SS, sync=False)
        disk.write(0, b"\x03" * SS, sync=False)
        clock.advance_to(first.completion_ns)  # first lands, second queued
        disk.crash()
        assert disk.peek(0, 1) == b"\x02" * SS

    def test_reset_clears_queue_keeps_platter(self):
        clock = Clock()
        disk = make_disk(clock=clock)
        disk.write(0, b"\x09" * SS, sync=True)
        disk.write(1, b"\x0a" * SS, sync=False)
        disk.crash()
        disk.reset()
        assert len(disk._pending) == 0
        assert disk.peek(0, 1) == b"\x09" * SS


class TestSwapPartition:
    def test_dump_and_read_image(self):
        clock = Clock()
        disk = make_disk(sectors=4096, clock=clock)
        swap = SwapPartition(disk, start_sector=1024, num_sectors=2048)
        image = bytes(range(256)) * 100  # 25600 bytes: exactly 50 sectors
        swap.dump_memory_image(image)
        assert disk.peek(1024, 50) == image

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize("nbytes", [100, 50 * SS + 37])
    def test_refuses_an_image_that_is_not_whole_sectors(self, wrap, nbytes):
        """Memory is whole pages and a page is whole sectors: a ragged
        image is refused, as an oversized one is, and writes nothing."""
        disk = make_disk(sectors=4096)
        swap = SwapPartition(disk, start_sector=1024, num_sectors=2048)
        with pytest.raises(ConfigurationError, match="whole"):
            swap.dump_memory_image(wrap((bytes(range(1, 256)) * 200)[:nbytes]))
        assert disk.stats.writes == 0 and disk.peek(1024, 51) == bytes(51 * SS)

    def test_rejects_oversized_image(self):
        disk = make_disk(sectors=64)
        swap = SwapPartition(disk, 0, 4)
        with pytest.raises(ConfigurationError):
            swap.dump_memory_image(b"\x00" * (5 * SS))

    def test_rejects_bad_geometry(self):
        disk = make_disk(sectors=64)
        with pytest.raises(ConfigurationError):
            SwapPartition(disk, 60, 10)

    def test_dump_takes_time(self):
        clock = Clock()
        disk = make_disk(sectors=4096, clock=clock)
        swap = SwapPartition(disk, 0, 4096)
        t0 = clock.now_ns
        swap.dump_memory_image(b"\xff" * (1024 * 1024))
        # 1 MB at 5 MB/s is ~200 ms of transfer.
        assert clock.now_ns - t0 > 100 * NS_PER_MS
