"""Differential oracle for the extent-backed sector store.

``SimulatedDisk`` keeps its platter in lazily allocated multi-sector
extents.  The reference model below is the store it replaced — one dict
entry per sector — with the queue, retirement, rollback and tear rules
restated independently, so a slip at an extent boundary (a copy that
stops one sector short, a tear that lands in the wrong extent) cannot be
shared by both sides.  Random programs run against both; platter bytes,
queue state, the clock and every ``DiskStats`` field must agree after
every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskParameters, SimulatedDisk
from repro.disk.device import EXTENT_SECTORS, DiskStats
from repro.errors import MachineCheck
from repro.hw.clock import Clock


class SectorDictDisk:
    """Reference model: a dict of single sectors and a list of queued writes."""

    def __init__(self, num_sectors: int, params: DiskParameters, clock: Clock) -> None:
        self.n, self.params, self.clock, self.ss = num_sectors, params, clock, params.sector_size
        self.sectors: dict[int, bytes] = {}
        self.pending: list[tuple[int, int, int, bytes]] = []  # start, done, sector, old
        self.busy_until_ns, self.head, self.stats = 0, None, DiskStats()
        clock.on_advance(self._retire)

    def _check(self, sector: int, count: int) -> None:
        if count < 0:
            raise ValueError("negative sector count")
        if sector < 0 or sector + count > self.n:
            raise MachineCheck("out of range")

    def peek(self, sector: int, count: int) -> bytes:
        self._check(sector, count)
        zero = b"\x00" * self.ss
        return b"".join(self.sectors.get(s, zero) for s in range(sector, sector + count))

    def poke(self, sector: int, data: bytes) -> None:
        if len(data) % self.ss:
            raise ValueError("ragged")
        self._check(sector, len(data) // self.ss)
        for i in range(len(data) // self.ss):
            self.sectors[sector + i] = bytes(data[i * self.ss : (i + 1) * self.ss])

    def write(self, sector: int, data: bytes, *, sync: bool) -> None:
        if len(data) % self.ss:
            raise ValueError("ragged")
        count = len(data) // self.ss
        self._check(sector, count)
        now = self.clock.now_ns
        start = max(now, self.busy_until_ns)
        service = self.params.service_ns(len(data), sequential=self.head == sector)
        self.pending.append((start, start + service, sector, self.peek(sector, count)))
        self.poke(sector, data)
        self.busy_until_ns, self.head = start + service, sector + count
        self.stats.writes += 1
        self.stats.sectors_written += count
        self.stats.busy_ns += service
        if sync:
            self.stats.sync_writes += 1
            self.stats.sync_wait_ns += start + service - now
            self.clock.advance_to(start + service)
        else:
            self.stats.async_writes += 1

    def _retire(self, now_ns: int) -> None:
        self.pending = [r for r in self.pending if r[1] > now_ns]

    def drain(self) -> None:
        if self.pending:
            self.clock.advance_to(max(done for _, done, _, _ in self.pending))

    def crash(self) -> None:
        now, ss = self.clock.now_ns, self.ss
        self._retire(now)
        for start, done, sector, old in reversed(self.pending):
            self.stats.lost_writes += 1
            count = len(old) // ss
            if start >= now:  # never reached the platter
                self.poke(sector, old)
                continue
            head = min(count, max(0, int(count * ((now - start) / max(1, done - start)))))
            for i in range(head, count):  # at and beyond the head: old contents...
                new, was = self.sectors[sector + i], old[i * ss : (i + 1) * ss]
                if i == head:  # ...except the sector under it, which tears
                    was = bytes(b ^ 0xA5 for b in new[: ss // 2]) + was[ss // 2 :]
                    self.stats.torn_sectors += 1
                self.sectors[sector + i] = was
        self.pending, self.busy_until_ns = [], now

    def reset(self) -> None:
        self.pending, self.head, self.busy_until_ns = [], None, self.clock.now_ns


def payload(seed: int, sector: int, count: int, ss: int) -> bytes:
    """``count`` sectors, each distinct from its neighbours and within itself."""
    return b"".join(
        bytes(((seed + sector + i) & 0xFF, (seed * 31 + i) & 0xFF)) * (ss // 2) for i in range(count)
    )


def make_pair(num_sectors: int, sector_size: int = 512):
    params = DiskParameters(sector_size=sector_size)
    real = SimulatedDisk("real", num_sectors, params)
    real.attach(Clock())
    model = SectorDictDisk(num_sectors, params, Clock())
    return real, model


def assert_same(real: SimulatedDisk, model: SectorDictDisk) -> None:
    assert real.peek(0, real.num_sectors) == model.peek(0, model.n)
    assert real.pending_writes == len(model.pending)
    assert real.busy_until_ns == model.busy_until_ns
    assert real.stats == model.stats
    assert real._clock.now_ns == model.clock.now_ns


def both(real, model, call):
    """Apply ``call`` to both; they must return the same or raise alike."""
    outcomes = []
    for disk in (real, model):
        try:
            outcomes.append(("ok", call(disk)))
        except (ValueError, MachineCheck) as exc:
            outcomes.append(("raised", type(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


# -- random programs -----------------------------------------------------------

SS = 64  # small sectors keep whole-platter comparison cheap; extents scale with it
SECTORS = 2 * EXTENT_SECTORS + 37  # two whole extents and a partial third

#: Mostly near an extent edge (where a slice copy can slip), sometimes
#: anywhere, sometimes out of range.
sector_st = st.one_of(
    st.builds(
        lambda edge, delta: edge + delta,
        st.sampled_from([0, EXTENT_SECTORS, 2 * EXTENT_SECTORS, SECTORS]),
        st.integers(-6, 6),
    ),
    st.integers(0, SECTORS),
)
count_st = st.one_of(st.integers(0, 12), st.integers(0, SECTORS))
step_st = st.one_of(
    st.tuples(st.just("poke"), sector_st, count_st, st.integers(0, 255)),
    st.tuples(st.just("peek"), sector_st, st.one_of(count_st, st.just(-1))),
    # A write; or an async write crashed with the head over its k-th sector,
    # or over the sector just before / just after the next extent edge.
    st.tuples(
        st.just("write"), sector_st, count_st, st.integers(0, 255), st.booleans(),
        st.one_of(st.none(), st.integers(0, 12), st.sampled_from(["before-edge", "after-edge"])),
    ),
    st.tuples(st.just("ragged"), sector_st, st.booleans()),
    st.tuples(st.just("advance"), st.integers(0, 40_000_000)),
    st.tuples(st.sampled_from(["drain", "crash", "reset"])),
)


@given(program=st.lists(step_st, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_extent_store_matches_sector_dict_model(program):
    real, model = make_pair(SECTORS, SS)
    for step in program:
        op = step[0]
        if op == "poke":
            data = payload(step[3], step[1], step[2], SS)
            both(real, model, lambda d: d.poke(step[1], data))
        elif op == "peek":
            both(real, model, lambda d: d.peek(step[1], step[2]))
        elif op == "write":
            data = payload(step[3], step[1], step[2], SS)
            head = step[5]
            sync = step[4] and head is None
            outcome = both(real, model, lambda d: d.write(step[1], data, sync=sync) and None)
            if head is not None and outcome[0] == "ok" and step[2]:
                if isinstance(head, str):
                    head = EXTENT_SECTORS - step[1] % EXTENT_SECTORS - (head == "before-edge")
                request = real._pending[-1]
                service = request.completion_ns - request.start_ns
                at = request.start_ns + service * (2 * head + 1) // (2 * step[2])
                real._clock.advance_to(at)
                model.clock.advance_to(at)
                real.crash()
                model.crash()
        elif op == "ragged":
            if step[2]:
                both(real, model, lambda d: d.poke(step[1], b"x" * (SS + 1)))
            else:
                both(real, model, lambda d: d.write(step[1], b"x" * (SS - 1), sync=False))
        elif op == "advance":
            real._clock.consume(step[1])
            model.clock.consume(step[1])
        else:
            getattr(real, op)()
            getattr(model, op)()
        assert_same(real, model)


# -- explicit cases at the extent boundary ---------------------------------------


def in_flight_write(first: int, count: int, thirtyseconds: int):
    """An async write of ``count`` sectors at ``first`` over a known
    pattern, crashed ``thirtyseconds``/32 of the way through its service."""
    real, model = make_pair(4 * EXTENT_SECTORS)
    old = payload(1, first, count, 512)
    new = payload(99, first, count, 512)
    for disk in (real, model):
        disk.poke(first, old)
        disk.write(first, new, sync=False)
    request = real._pending[0]
    at = request.start_ns + (request.completion_ns - request.start_ns) * thirtyseconds // 32
    real._clock.advance_to(at)
    model.clock.advance_to(at)
    real.crash()
    model.crash()
    assert_same(real, model)
    return real, old, new


@pytest.mark.parametrize("torn", [EXTENT_SECTORS - 1, EXTENT_SECTORS])
def test_torn_sector_on_either_side_of_an_extent_boundary(torn):
    first, count = EXTENT_SECTORS - 8, 16
    head = torn - first  # 7: last sector of extent 0; 8: first of extent 1
    real, old, new = in_flight_write(first, count, 2 * head + 1)  # (head + 0.5) / 16 of 32nds
    assert real.stats.torn_sectors == 1 and real.stats.lost_writes == 1
    got = real.peek(first, count)
    assert got[: head * 512] == new[: head * 512]  # behind the head: landed
    assert got[(head + 1) * 512 :] == old[(head + 1) * 512 :]  # beyond it: untouched
    sector = got[head * 512 : (head + 1) * 512]
    assert sector[:256] == bytes(b ^ 0xA5 for b in new[head * 512 : head * 512 + 256])
    assert sector[256:] == old[head * 512 + 256 : (head + 1) * 512]


def test_overlapping_queued_writes_roll_back_in_order_across_a_boundary():
    real, model = make_pair(4 * EXTENT_SECTORS)
    base = EXTENT_SECTORS - 8
    original = payload(5, base, 16, 512)
    for disk in (real, model):
        disk.poke(base, original)
        disk.write(0, payload(9, 0, 4, 512), sync=False)  # occupies the head...
        # ...so these three queue behind it, each over the last one's bytes.
        disk.write(base, payload(10, base, 16, 512), sync=False)
        disk.write(base + 4, payload(11, base + 4, 8, 512), sync=False)
        disk.write(base + 6, payload(12, base + 6, 4, 512), sync=False)
    assert real.peek(base + 6, 4) == payload(12, base + 6, 4, 512)
    real._clock.consume(1)
    model.clock.consume(1)
    real.crash()
    model.crash()
    assert_same(real, model)
    assert real.peek(base, 16) == original  # oldest surviving contents
    assert real.stats.lost_writes == 4 and real.stats.torn_sectors == 1


def test_zero_ranges_read_as_zeros_and_materialise_nothing():
    disk, _ = make_pair(64 * EXTENT_SECTORS)
    assert disk.peek(0, disk.num_sectors) == bytes(disk.num_sectors * 512)
    assert disk.peek(EXTENT_SECTORS - 3, 7) == bytes(7 * 512)
    assert disk.read(5 * EXTENT_SECTORS, 16) == bytes(16 * 512)
    assert not disk._extents
    # Zeros over a never-written extent are not a reason to materialise it
    # (a memory dump is mostly that); the one non-zero extent is.
    image = bytearray(8 * EXTENT_SECTORS * 512)
    image[5 * EXTENT_SECTORS * 512 + 7] = 1
    disk.write(8 * EXTENT_SECTORS, image, sync=True)
    assert sorted(disk._extents) == [13]
    assert disk.peek(8 * EXTENT_SECTORS, 8 * EXTENT_SECTORS) == image
    disk.poke(3 * EXTENT_SECTORS - 1, b"\x01" * 1024)  # straddles extents 2 and 3
    assert sorted(disk._extents) == [2, 3, 13]
    disk.poke(3 * EXTENT_SECTORS - 1, bytes(1024))  # zeros do land on real extents
    assert disk.peek(3 * EXTENT_SECTORS - 1, 2) == bytes(1024)
    disk.write(0, b"\x02" * 512, sync=False)
    disk.crash()  # rolling back over zeros keeps the extent, not the data
    assert disk.peek(0, 1) == bytes(512)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_store_accepts_any_byte_buffer(wrap):
    disk, _ = make_pair(4 * EXTENT_SECTORS)
    data = payload(3, EXTENT_SECTORS - 2, 4, 512)
    disk.poke(EXTENT_SECTORS - 2, wrap(data))
    assert disk.peek(EXTENT_SECTORS - 2, 4) == data
    disk.write(2 * EXTENT_SECTORS - 2, wrap(data), sync=True)
    assert disk.peek(2 * EXTENT_SECTORS - 2, 4) == data
    assert disk.stats.sectors_written == 4


def test_range_and_length_errors_are_the_typed_ones():
    disk, _ = make_pair(2 * EXTENT_SECTORS)
    end = disk.num_sectors
    for call in (
        lambda: disk.peek(end - 1, 2),
        lambda: disk.peek(-1, 1),
        lambda: disk.read(end, 1),
        lambda: disk.poke(end, bytes(512)),
        lambda: disk.write(end - 1, bytes(1024), sync=False),
    ):
        with pytest.raises(MachineCheck):
            call()
    for call in (
        lambda: disk.peek(0, -1),
        lambda: disk.poke(0, b"partial"),
        lambda: disk.poke(0, memoryview(bytes(513))),
        lambda: disk.write(0, bytes(511), sync=True),
    ):
        with pytest.raises(ValueError):
            call()
    assert not disk._extents and disk.pending_writes == 0 and disk.stats == DiskStats()
