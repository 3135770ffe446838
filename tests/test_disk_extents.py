"""Differential oracle for the extent-backed sector store.

``SimulatedDisk`` keeps its platter in lazily allocated multi-sector
extents.  The reference model below is the store it replaced — one dict
entry per sector — with the queue, retirement, rollback and tear rules
restated independently, so a slip at an extent boundary (a copy that
stops one sector short, a tear that lands in the wrong extent) cannot be
shared by both sides.  Random programs run against both; platter bytes,
queue state, the clock, every ``DiskStats`` field and every completion
(its order and the virtual time it ran at) must agree after every step.
The model retires by scanning its whole list whenever its clock wakes
it; the real disk pops the due prefix of a queue whose completion times
must never decrease.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import SECTOR_SIZE, SimulatedDisk
from repro.disk.device import EXTENT_SECTORS, DiskStats
from repro.disk.model import service_ns
from repro.errors import MachineCheck
from repro.hw.clock import Clock


class SectorDictDisk:
    """Reference model: a dict of single sectors and a list of queued writes."""

    def __init__(self, num_sectors: int, clock: Clock) -> None:
        self.n, self.clock, self.ss = num_sectors, clock, SECTOR_SIZE
        self.sectors: dict[int, bytes] = {}
        self.pending: list[tuple[int, int, int, bytes]] = []  # start, done, sector, old
        self.busy_until_ns, self.head, self.stats = 0, None, DiskStats()
        self.completed: list[tuple[int, int, int, int]] = []  # start, done, sector, now
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
        service = service_ns(len(data), sequential=self.head == sector)
        self.pending.append((start, start + service, sector, self.peek(sector, count)))
        self.clock.wake_at(start + service)
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
        self.completed += [(*r[:3], now_ns) for r in self.pending if r[1] <= now_ns]
        self.pending = [r for r in self.pending if r[1] > now_ns]
        if self.pending:
            self.clock.wake_at(min(done for _, done, _, _ in self.pending))

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


class LoggedDisk(SimulatedDisk):
    """The real disk, logging each write's ``on_complete`` call."""

    def __init__(self, name: str, num_sectors: int) -> None:
        super().__init__(name, num_sectors)
        self.completed: list[tuple[int, int, int, int]] = []  # start, done, sector, now

    def write(self, sector, data, *, sync):
        return super().write(sector, data, sync=sync, on_complete=self._log)

    def _log(self, request) -> None:
        self.completed.append(
            (request.start_ns, request.completion_ns, request.sector, self._clock.now_ns)
        )


def make_pair(num_sectors: int):
    real = LoggedDisk("real", num_sectors)
    real.attach(Clock())
    model = SectorDictDisk(num_sectors, Clock())
    return real, model


def assert_same(real: SimulatedDisk, model: SectorDictDisk) -> None:
    assert real.peek(0, real.num_sectors) == model.peek(0, model.n)
    assert len(real._pending) == len(model.pending)
    assert real.busy_until_ns == model.busy_until_ns
    assert real.stats == model.stats
    assert real._clock.now_ns == model.clock.now_ns
    assert real.completed == model.completed
    done = [request.completion_ns for request in real._pending]
    assert done == sorted(done)


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

SS = SECTOR_SIZE
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
    real, model = make_pair(SECTORS)
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


def test_queued_writes_retire_one_at_a_time_as_time_passes():
    """Each advance past one more completion retires exactly that write:
    the queue re-arms the clock for its new head after every wake."""
    real, model = make_pair(4 * EXTENT_SECTORS)
    for disk in (real, model):
        for n, sector in enumerate((0, EXTENT_SECTORS - 2, 3 * EXTENT_SECTORS)):
            disk.write(sector, payload(n, sector, 4, 512), sync=False)
    for request in list(real._pending):
        real._clock.advance_to(request.completion_ns - 1)
        model.clock.advance_to(request.completion_ns - 1)
        assert_same(real, model)
        real._clock.consume(1)
        model.clock.consume(1)
        assert_same(real, model)
        assert real.completed[-1][:3] == (request.start_ns, request.completion_ns, request.sector)
    assert len(real.completed) == 3 and not real._pending


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
    assert not disk._extents and len(disk._pending) == 0 and disk.stats == DiskStats()


# -- sparse payloads: one request, priced by length, stored by content ------------
#
# A ``SparseBytes`` payload (the warm reboot's memory dump) must be
# indistinguishable from the flat write of ``bytes(payload)``: the real
# disk gets the sparse value, the sector-dict model its flat expansion.

from repro.util.sparse import SparseBytes  # noqa: E402

EXTENT_BYTES = EXTENT_SECTORS * SS


def sparse_runs(seeds, nbytes: int) -> SparseBytes:
    """Runs laid out from ``(gap, size, fill)`` triples, clipped to
    ``nbytes``; ``fill == 0`` makes an all-zero run (stored, not skipped)."""
    runs, pos = [], 0
    for gap, size, fill in seeds:
        pos += gap
        size = min(size, nbytes - pos)
        if size <= 0:
            break
        runs.append((pos, bytes((fill * (i + 1)) & 0xFF for i in range(size)) if fill else bytes(size)))
        pos += size
    return SparseBytes(nbytes, runs)


#: Gaps and runs shorter than a sector, about a sector, and longer than an extent.
span_st = st.one_of(st.integers(0, 2 * SS), st.integers(0, EXTENT_BYTES + 3 * SS))
run_seed_st = st.tuples(span_st, st.one_of(st.integers(1, 2 * SS), span_st), st.integers(0, 255))
sparse_step_st = st.one_of(
    st.tuples(st.just("flat"), sector_st, count_st, st.integers(1, 255)),
    st.tuples(st.just("sparse-poke"), sector_st, count_st, st.lists(run_seed_st, max_size=5)),
    # A sparse write; or an async one crashed with the head over its k-th
    # sector, or just before / after the next extent edge, or over the
    # first / last sector of its first run, or the sector before / after it.
    st.tuples(
        st.just("sparse-write"), sector_st, count_st, st.lists(run_seed_st, max_size=5), st.booleans(),
        st.one_of(
            st.none(), st.integers(0, 12),
            st.sampled_from(["before-edge", "after-edge", "run-first", "run-last", "before-run", "after-run"]),
        ),
    ),
    st.tuples(st.just("advance"), st.integers(0, 40_000_000)),
    st.tuples(st.sampled_from(["drain", "crash", "reset"])),
)


def assert_same_with_old_data(real: SimulatedDisk, model: SectorDictDisk) -> None:
    assert_same(real, model)
    assert [bytes(r.old_data) for r in real._pending] == [old for _, _, _, old in model.pending]
    assert [(r.start_ns, r.completion_ns, r.sector) for r in real._pending] == [
        r[:3] for r in model.pending
    ]


def steer_crash(real, model, head: int, count: int) -> None:
    """Crash both with the head half-way over the newest request's
    ``head``-th sector."""
    request = real._pending[-1]
    service = request.completion_ns - request.start_ns
    at = request.start_ns + service * (2 * head + 1) // (2 * count)
    real._clock.advance_to(at)
    model.clock.advance_to(at)
    real.crash()
    model.crash()


@given(program=st.lists(sparse_step_st, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_sparse_payloads_match_flat_writes_on_the_sector_dict_model(program):
    real, model = make_pair(SECTORS)
    for step in program:
        op = step[0]
        if op == "flat":
            data = payload(step[3], step[1], step[2], SS)
            both(real, model, lambda d: d.poke(step[1], data))
        elif op == "sparse-poke":
            sparse = sparse_runs(step[3], step[2] * SS)
            flat = bytes(sparse)
            assert both(real, model, lambda d: d.poke(step[1], sparse if d is real else flat))
        elif op == "sparse-write":
            sector, count = step[1], step[2]
            sparse = sparse_runs(step[3], count * SS)
            flat, head = bytes(sparse), step[5]
            sync = step[4] and head is None
            outcome = both(
                real, model,
                lambda d: d.write(sector, sparse if d is real else flat, sync=sync) and None,
            )
            if outcome[0] == "ok" and count:
                request = real._pending[-1] if real._pending else None
                if request is not None and not sync:
                    assert isinstance(request.old_data, SparseBytes)
                    assert len(request.old_data) == count * SS
            if head is not None and outcome[0] == "ok" and count:
                first_run = next(iter(sparse.runs()), (0, b"\x00"))
                if head in ("before-edge", "after-edge"):
                    head = EXTENT_SECTORS - sector % EXTENT_SECTORS - (head == "before-edge")
                elif isinstance(head, str):
                    start, stop = first_run[0] // SS, (first_run[0] + len(first_run[1]) - 1) // SS
                    head = {"run-first": start, "run-last": stop, "before-run": start - 1, "after-run": stop + 1}[head]
                steer_crash(real, model, max(head, 0), count)
        elif op == "advance":
            real._clock.consume(step[1])
            model.clock.consume(step[1])
        else:
            getattr(real, op)()
            getattr(model, op)()
        assert_same_with_old_data(real, model)


def dump_pair(resident, *, extents=16):
    """Twin disks and a sparse 'memory image' over all of them whose
    resident 'frames' (``{offset: bytes}``) are the only content."""
    real, model = make_pair(extents * EXTENT_SECTORS)
    image = SparseBytes(extents * EXTENT_SECTORS * SECTOR_SIZE, sorted(resident.items()))
    return real, model, image


def test_a_sparse_dump_is_one_request_priced_by_its_length():
    frame = payload(7, 0, 16, 512)  # 8 KiB
    real, model, image = dump_pair({3 * 65536 + 8192: frame, 9 * 65536: frame})
    real.write(0, image, sync=True)
    model.write(0, bytes(image), sync=True)
    assert_same(real, model)
    assert real.stats.writes == real.stats.sync_writes == 1
    assert real.stats.sectors_written == real.num_sectors
    assert real.stats.busy_ns == service_ns(len(image), sequential=False)
    assert real._clock.now_ns == real.busy_until_ns == real.stats.sync_wait_ns
    assert sorted(real._extents) == [3, 9]  # what is resident, not what exists


def test_second_dump_over_a_first_drops_zero_fills_and_overwrites():
    frame = payload(7, 0, 16, 512)
    other = payload(8, 0, 16, 512)
    real, model, first = dump_pair({3 * 65536 + 8192: frame, 9 * 65536: frame, 12 * 65536 + 512: frame})
    # The second image: extent 3 gone (wholly a gap now), extent 9 rewritten
    # in place, extent 12 partly covered by a shorter run, extent 5 new.
    second = SparseBytes(
        len(first), [(5 * 65536, other), (9 * 65536, other), (12 * 65536 + 1024, other[:1024])]
    )
    for disk, one, two in ((real, first, second), (model, bytes(first), bytes(second))):
        disk.write(0, one, sync=True)
        disk.write(0, two, sync=False)
    assert_same_with_old_data(real, model)
    assert sorted(real._extents) == [5, 9, 12]
    old = real._pending[0].old_data
    assert [offset for offset, _ in old.runs()] == [3 * 65536, 9 * 65536, 12 * 65536]  # materialised only
    assert all(len(data) == 65536 for _, data in old.runs())
    for disk in (real, model):
        disk.drain()
    assert_same(real, model)
    assert real.peek(0, real.num_sectors) == bytes(second)


@pytest.mark.parametrize("when", ["before", "after"])
def test_crash_before_or_after_a_sparse_request(when):
    frame = payload(7, 0, 16, 512)
    real, model, image = dump_pair({2 * 65536: frame, 65536 - 512: frame[:1024]})
    stale = payload(3, 0, 4 * EXTENT_SECTORS, 512)
    for disk, data in ((real, image), (model, bytes(image))):
        disk.poke(EXTENT_SECTORS, stale)  # extents 1..4 hold something else
        disk.write(8 * EXTENT_SECTORS, bytes(512), sync=False)  # keeps the head busy...
        disk.write(0, data, sync=False)  # ...so the dump queues behind it
    clocks = (real._clock, model.clock)
    if when == "before":
        for clock in clocks:
            clock.consume(1)  # the blocker is in flight; the dump never started
    else:
        for clock in clocks:
            clock.advance_to(real.busy_until_ns)
    real.crash()
    model.crash()
    assert_same(real, model)
    if when == "before":
        assert real.stats.lost_writes == 2 and real.peek(EXTENT_SECTORS, 4 * EXTENT_SECTORS) == stale
    else:
        assert real.stats.lost_writes == 0
        assert real.peek(0, 8 * EXTENT_SECTORS) == bytes(image)[: 8 * 65536]  # stale extents zeroed


@pytest.mark.parametrize(
    "torn",
    [
        EXTENT_SECTORS - 1, EXTENT_SECTORS,  # either side of an extent edge, inside a gap
        2 * EXTENT_SECTORS + 15, 2 * EXTENT_SECTORS + 16,  # last sector of a run, first of the gap after
        2 * EXTENT_SECTORS - 1, 2 * EXTENT_SECTORS,  # last of a gap, first sector of a run
        5 * EXTENT_SECTORS + 3,  # inside a run that straddles nothing
    ],
)
def test_torn_sector_at_extent_and_run_edges_of_a_sparse_request(torn):
    frame = payload(7, 0, 16, 512)
    real, model, image = dump_pair({2 * 65536: frame, 5 * 65536 + 1024: frame})
    stale = payload(3, 0, 7 * EXTENT_SECTORS, 512)
    for disk, data in ((real, image), (model, bytes(image))):
        disk.poke(0, stale)  # extents 0..6 materialised: gaps must zero them, then give them back
        disk.write(0, data, sync=False)
    assert sorted(real._extents) == [2, 5]
    steer_crash(real, model, torn, real.num_sectors)
    assert_same(real, model)
    assert real.stats.torn_sectors == 1 and real.stats.lost_writes == 1
    got, new = real.peek(0, real.num_sectors), bytes(image)
    assert got[: torn * 512] == new[: torn * 512]  # behind the head: the dump landed
    assert got[(torn + 1) * 512 : 7 * 65536] == stale[(torn + 1) * 512 :]  # beyond: old contents
    sector = got[torn * 512 : (torn + 1) * 512]
    assert sector[:256] == bytes(b ^ 0xA5 for b in new[torn * 512 : torn * 512 + 256])
    assert sector[256:] == stale[torn * 512 + 256 : (torn + 1) * 512]


def test_sparse_and_flat_length_errors_are_the_same_typed_ones():
    disk, _ = make_pair(2 * EXTENT_SECTORS)
    ragged = SparseBytes(513, [(0, b"x")])
    for call in (lambda: disk.poke(0, ragged), lambda: disk.write(0, ragged, sync=True)):
        with pytest.raises(ValueError):
            call()
    whole = SparseBytes(1024, [(600, b"x")])
    for call in (
        lambda: disk.poke(disk.num_sectors - 1, whole),
        lambda: disk.write(disk.num_sectors - 1, whole, sync=False),
    ):
        with pytest.raises(MachineCheck):
            call()
    assert not disk._extents and len(disk._pending) == 0 and disk.stats == DiskStats()
    disk.poke(0, SparseBytes(0))
    disk.write(5, SparseBytes(0), sync=True)
    assert not disk._extents and disk.stats.writes == 1 and disk.stats.sectors_written == 0
