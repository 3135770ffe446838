"""Sparse memory image == flat memory image, with the flat code as oracle.

The warm reboot dumps and recovers from ``PhysicalMemory.snapshot()``, a
:class:`~repro.util.sparse.SparseBytes` holding only the resident frames.
``dump_image()`` still builds the flat 16 MB ``bytes``; every consumer is
written against ``len`` + slice, so the same code runs on both and must
tell the same story: same slices, same recovery, same platter, same
virtual time — at the cost of the resident set.  (The disk side of the
same equivalence is in ``tests/test_disk_extents.py``.)
"""

from __future__ import annotations

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import (
    ENTRY_SIZE,
    HEADER_SIZE,
    REGISTRY_MAGIC,
    find_registry_in_image,
    read_entries_from_image,
)
from repro.errors import MachineCheck
from repro.hw.memory import PhysicalMemory
from repro.server import FileService, Request
from repro.system import build_system, system_spec_for
from repro.util.sparse import SparseBytes

PAGE = 8192
PAGES = 8
SIZE = PAGES * PAGE

# -- the type itself -----------------------------------------------------------

#: Slice bounds: inside, at and around both ends, negative, far out of range.
bound_st = st.one_of(st.none(), st.integers(-SIZE - 3, 2 * SIZE), st.integers(-40, 40))


@st.composite
def sparse_and_flat(draw, length=200):
    """A SparseBytes of ``length`` and the flat bytes it stands for."""
    flat = bytearray(length)
    runs = []
    pos = 0
    while pos < length and draw(st.booleans()):
        pos += draw(st.integers(0, 20))  # 0: a run adjacent to the last one
        data = draw(st.binary(min_size=1, max_size=30))[: length - pos]
        if not data:
            break
        runs.append((pos, data))
        flat[pos : pos + len(data)] = data
        pos += len(data)
    return SparseBytes(length, runs), bytes(flat)


class TestSparseBytes:
    @given(sparse_and_flat(), st.lists(st.tuples(bound_st, bound_st), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_every_plain_slice_is_the_bytes_slice(self, pair, bounds):
        sparse, flat = pair
        assert len(sparse) == len(flat)
        assert bytes(sparse) == flat and sparse == flat and sparse == bytearray(flat)
        assert sparse == SparseBytes(len(flat), [(0, flat)] if flat else [])
        for start, stop in bounds:
            got = sparse[start:stop]
            assert isinstance(got, (bytes, memoryview))
            assert got == flat[start:stop]
        rebuilt = bytearray(len(flat))
        for offset, data in sparse.runs():
            rebuilt[offset : offset + len(data)] = data
        assert rebuilt == flat
        for start, stop in sparse.gaps():
            assert start < stop and flat[start:stop] == bytes(stop - start)
        covered = sum(len(d) for _, d in sparse.runs()) + sum(b - a for a, b in sparse.gaps())
        assert covered == len(flat)

    def test_a_slice_inside_one_run_copies_nothing(self):
        run = bytes(range(100))
        sparse = SparseBytes(1000, [(300, run)])
        view = sparse[310:350]
        assert isinstance(view, memoryview) and view.obj is run and view.readonly
        assert sparse[300:400].obj is run
        assert isinstance(sparse[250:350], bytes)  # leaves the run: a join
        assert sparse[0:100] == bytes(100) and sparse[5000:6000] == b""

    def test_rejects_what_bytes_slicing_is_not(self):
        sparse = SparseBytes(10, [(2, b"ab")])
        with pytest.raises(TypeError):
            sparse[3]
        with pytest.raises(ValueError):
            sparse[::2]
        with pytest.raises(TypeError):
            hash(sparse)
        assert sparse != "ab" and sparse != b"ab"

    @pytest.mark.parametrize(
        "length, runs",
        [(-1, []), (4, [(2, b"abc")]), (9, [(3, b"ab"), (4, b"c")]), (9, [(5, b"a"), (1, b"b")])],
        ids=["negative", "past-the-end", "overlap", "unsorted"],
    )
    def test_malformed_runs_are_refused(self, length, runs):
        with pytest.raises(ValueError):
            SparseBytes(length, runs)

    def test_empty_runs_vanish_and_adjacent_runs_are_fine(self):
        sparse = SparseBytes(6, [(0, b"ab"), (2, b""), (2, b"cd")])
        assert list(sparse.runs()) == [(0, b"ab"), (2, b"cd")]
        assert list(sparse.gaps()) == [(4, 6)] and bytes(sparse) == b"abcd\x00\x00"
        assert bytes(SparseBytes(0)) == b"" and list(SparseBytes(3).gaps()) == [(0, 3)]


# -- PhysicalMemory.snapshot -----------------------------------------------------

addr_st = st.integers(0, SIZE - 1)
mutation_st = st.one_of(
    st.tuples(st.just("write"), addr_st, st.binary(min_size=1, max_size=3 * PAGE)),
    st.tuples(st.just("fill"), addr_st, st.integers(0, 2 * PAGE), st.integers(0, 255)),
    st.tuples(st.just("flip"), addr_st, st.integers(0, 7)),
    st.tuples(st.just("erase")),
    st.tuples(st.just("dense")),  # every frame resident: no gap left
)
#: Inside a frame, across frames and gaps, empty, straddling and beyond the end.
edge_st = st.builds(
    lambda frame, delta: frame * PAGE + delta, st.integers(0, PAGES + 1), st.integers(-9, 9)
)
slice_st = st.tuples(st.one_of(edge_st, st.integers(0, SIZE + 50)), st.one_of(edge_st, st.integers(0, 3 * SIZE)))


def mutate(mem: PhysicalMemory, op) -> None:
    if op[0] == "write":
        mem.write(op[1], op[2][: SIZE - op[1]])
    elif op[0] == "fill":
        mem.fill(op[1], min(op[2], SIZE - op[1]), op[3])
    elif op[0] == "flip":
        mem.flip_bit(op[1], op[2])
    elif op[0] == "erase":
        mem.erase()
    else:
        for pfn in range(PAGES):
            mem.write(pfn * PAGE + pfn, bytes([pfn + 1]))


class TestSnapshot:
    @given(
        st.lists(mutation_st, max_size=10),
        st.lists(slice_st, max_size=16),
        st.lists(mutation_st, min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_slice_equals_the_flat_dump_and_later_writes_do_not_show(
        self, mutations, slices, later
    ):
        mem = PhysicalMemory(SIZE, PAGE)
        for op in mutations:
            mutate(mem, op)
        snap, flat = mem.snapshot(), mem.dump_image()
        assert len(snap) == mem.size and snap == flat
        assert [offset for offset, _ in snap.runs()] == [pfn * PAGE for pfn in sorted(mem._pages)]
        for start, stop in slices:
            assert snap[start:stop] == flat[start:stop]
        resident = set(mem._pages)
        for op in later:  # the booting kernel reuses the frames
            mutate(mem, op)
        assert snap == flat
        for start, stop in slices:
            assert snap[start:stop] == flat[start:stop]
        if all(op[0] != "erase" for op in later):
            assert resident <= set(mem._pages)  # taking it evicted nothing

    def test_taking_a_snapshot_allocates_no_frame(self):
        mem = PhysicalMemory(64 * PAGE, PAGE)
        mem.write(5 * PAGE + 1, b"x")
        gens = list(mem._page_gens)
        snap = mem.snapshot()
        assert sorted(mem._pages) == [5] and mem._page_gens == gens
        assert list(snap.gaps()) == [(0, 5 * PAGE), (6 * PAGE, 64 * PAGE)]


# -- warm reboot: flat image vs snapshot on twin systems ------------------------------


def populated(system_name: str = "rio_prot", **spec):
    """A system with dirty metadata and dirty file pages in the cache."""
    system = build_system(system_spec_for(system_name, fs_blocks=256, **spec))
    system.vfs.mkdir("/d")
    for name, size in (("/d/a", 20_000), ("/b", 3 * PAGE + 17), ("/d/c", 5)):
        fd = system.vfs.open(name, create=True)
        system.vfs.write(fd, bytes([len(name)]) * size)
        system.vfs.close(fd)
    return system


def test_warm_reboot_from_the_snapshot_equals_one_from_the_flat_image(monkeypatch):
    sparse_side, flat_side = populated(), populated()
    for system in (sparse_side, flat_side):
        system.crash("twin")
    kinds = []

    def flat_snapshot(memory):
        image = memory.dump_image()
        kinds.append(type(image))
        return image

    reports = [sparse_side.reboot()]
    monkeypatch.setattr(PhysicalMemory, "snapshot", flat_snapshot)
    reports.append(flat_side.reboot())
    assert kinds == [bytes]
    assert reports[0].warm == reports[1].warm and reports[0].warm.ubc_restored >= 3
    assert reports[0].fsck == reports[1].fsck
    assert sparse_side.clock.now_ns == flat_side.clock.now_ns
    for name in ("rz0", "rz1"):  # root platter, swap
        a, b = sparse_side.machine.disks[name], flat_side.machine.disks[name]
        assert a.peek(0, a.num_sectors) == b.peek(0, b.num_sectors)
        assert a.stats == b.stats and a.busy_until_ns == b.busy_until_ns
    assert sparse_side.swap.disk.stats.writes == 1  # the dump is one request...
    assert sparse_side.swap.disk.stats.sectors_written == 16 * 1024 * 1024 // 512  # ...of all of memory
    for path in ("/d/a", "/b", "/d/c"):
        ino = sparse_side.fs.namei(path)
        size = sparse_side.fs.size_of(ino)
        assert sparse_side.fs.read(ino, 0, size) == flat_side.fs.read(flat_side.fs.namei(path), 0, size)


def test_reboot_allocates_in_proportion_to_the_resident_set():
    """A 16 MB machine with a few dozen resident frames must not pay for a
    flat image again: the parent of this change peaked above 32 MB here."""
    system = populated()
    assert system.machine.memory.size == 16 * 1024 * 1024
    assert len(system.machine.memory._pages) < 64
    system.crash("measure")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = system.reboot()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.warm.registry_found and report.warm.dumped_bytes == 16 * 1024 * 1024
    assert peak < 4 * 1024 * 1024, f"reboot peaked at {peak / 2**20:.1f} MiB of new allocations"


def test_second_dump_over_a_first_keeps_swap_small():
    """A storm's second dump drops the swap extents its gaps cover."""
    system = populated()
    system.crash("one")
    system.reboot()
    first = len(system.swap.disk._extents)
    assert 0 < first < 64  # of 256: only extents holding resident frames
    system.crash("two")
    dumped = system.machine.memory.dump_image()  # a reset with memory preserved changes nothing
    system.reboot()
    assert len(system.swap.disk._extents) <= first + 8
    # Swap holds the second image byte for byte: what the first dump left
    # in extents the second one's gaps cover is gone, not stale.
    assert system.swap.disk.peek(0, len(dumped) // 512) == dumped


@pytest.mark.parametrize("nbytes", [50 * 512, 100, 50 * 512 + 37])
def test_swap_takes_a_sparse_image_like_the_flat_one(nbytes):
    """Whole sectors: one request carrying the sparse value itself.  A
    ragged length: the same body + padded-tail pair of requests as flat."""
    from repro.disk import SimulatedDisk, SwapPartition
    from repro.hw.clock import Clock

    flat = bytearray(nbytes)
    runs = [(off, bytes([7]) * min(90, nbytes - off)) for off in range(10, nbytes, 4000)]
    for off, data in runs:
        flat[off : off + len(data)] = data
    disks = []
    for image in (SparseBytes(nbytes, runs), bytes(flat)):
        disk = SimulatedDisk("swap", 4096)
        disk.attach(Clock())
        disk.poke(1024, b"\xee" * (60 * 512))  # stale swap contents
        swap = SwapPartition(disk, start_sector=1024, num_sectors=2048)
        swap.dump_memory_image(image)
        assert swap.read_memory_image(nbytes) == flat
        disks.append(disk)
    sparse_disk, flat_disk = disks
    assert sparse_disk.peek(0, 4096) == flat_disk.peek(0, 4096)
    assert sparse_disk.stats == flat_disk.stats and sparse_disk.busy_until_ns == flat_disk.busy_until_ns
    assert sparse_disk.stats.writes == (1 if nbytes % 512 == 0 or nbytes < 512 else 2)


# -- a corrupted registry is outside input ------------------------------------------------


def noprot_with_dirty_metadata():
    system = build_system(system_spec_for("rio_noprot", fs_blocks=256))
    system.vfs.mkdir("/d")
    fd = system.vfs.open("/d/f", create=True)
    system.vfs.write(fd, b"x" * 20_000)
    system.vfs.close(fd)
    registry = system.rio.registry
    meta = next(
        e for e in registry.valid_entries() if e.is_metadata and e.dirty and e.disk_block is not None
    )
    data = next(e for e in registry.valid_entries() if not e.is_metadata and e.dirty)
    return system, registry, meta, data


def wild_store(system, registry, entry) -> None:
    """Rewrite one entry the way a wild store would: raw memory, no window."""
    system.machine.memory.write(
        registry.base_paddr + HEADER_SIZE + entry.slot * ENTRY_SIZE, entry.to_bytes()
    )


class TestCorruptedRegistry:
    def test_impossible_capacity_is_not_a_registry(self):
        system, registry, _, _ = noprot_with_dirty_metadata()
        header = struct.pack("<QIIQ", REGISTRY_MAGIC, 1 << 20, ENTRY_SIZE, registry.base_paddr)
        system.machine.memory.write(registry.base_paddr, header)
        for image in (system.machine.memory.snapshot(), system.machine.memory.dump_image()):
            assert find_registry_in_image(image, PAGE) is None
            with pytest.raises(struct.error):  # asked directly, it still says so
                read_entries_from_image(image, registry.base_paddr, 1 << 20)
        system.crash("wild store over the header")
        report = system.reboot()
        assert report.warm.registry_found is False and report.warm.valid_entries == 0
        assert report.warm.dumped_bytes == system.machine.memory.size
        assert system.vfs.exists("/")  # the system came back, cold-style

    def test_largest_capacity_that_fits_is_still_found(self):
        system, registry, _, _ = noprot_with_dirty_metadata()
        image = system.machine.memory.snapshot()
        assert find_registry_in_image(image, PAGE) == (registry.base_paddr, registry.capacity)
        room = (len(image) - registry.base_paddr - HEADER_SIZE) // ENTRY_SIZE
        for capacity, found in ((room, True), (room + 1, False)):
            header = struct.pack("<QIIQ", REGISTRY_MAGIC, capacity, ENTRY_SIZE, registry.base_paddr)
            system.machine.memory.write(registry.base_paddr, header)
            location = find_registry_in_image(system.machine.memory.snapshot(), PAGE)
            assert (location == (registry.base_paddr, capacity)) is found

    @pytest.mark.parametrize(
        "field, value",
        [
            ("disk_block", 1 << 30),  # was: MachineCheck out of the recovery path
            ("disk_block", 256),  # first block past the device
            ("phys_addr", 1 << 40),  # was: a zero-sector write, counted as restored
            ("phys_addr", 16 * 1024 * 1024 - 512),  # was: a short write (ValueError)
            ("size", 0xFFFFFFFF),
        ],
    )
    def test_impossible_metadata_entry_is_skipped_and_listed(self, field, value):
        system, registry, meta, _ = noprot_with_dirty_metadata()
        healthy = sum(
            1 for e in registry.valid_entries() if e.is_metadata and e.dirty and e.disk_block is not None
        )
        setattr(meta, field, value)
        wild_store(system, registry, meta)
        writes_before = system.disk.stats.writes
        system.machine.recorder.start()
        system.crash("wild store over an entry")
        report = system.reboot()
        assert report.warm.registry_found
        assert report.warm.invalid_entries == [meta.slot]
        assert report.warm.metadata_restored == healthy - 1
        assert system.disk.stats.writes - writes_before >= healthy - 1
        events = [e for e in system.machine.recorder.events() if e.kind == "reboot"]
        invalid = [e for e in events if e.op == "invalid-entries"]
        assert [e.payload for e in invalid] == [{"step": "metadata", "slots": [meta.slot]}]

    def test_last_block_of_the_device_is_still_restored(self):
        system, registry, meta, _ = noprot_with_dirty_metadata()
        meta.disk_block = 255
        wild_store(system, registry, meta)
        system.crash("edge")
        assert system.reboot().warm.invalid_entries == []

    def test_impossible_file_page_is_skipped_by_the_user_level_restore(self):
        system, registry, _, data = noprot_with_dirty_metadata()
        data.phys_addr = 16 * 1024 * 1024 - 100  # the page range leaves memory
        wild_store(system, registry, data)
        system.crash("wild store over a file page entry")
        report = system.reboot()
        assert report.warm.invalid_entries == [data.slot]
        assert report.warm.ubc_entries >= 1 and report.warm.ubc_skipped == 0

    def test_healthy_reboot_lists_nothing_and_emits_no_new_event(self):
        system, _, _, _ = noprot_with_dirty_metadata()
        system.machine.recorder.start()
        system.crash("healthy")
        report = system.reboot()
        assert report.warm.invalid_entries == []
        ops = [e.op for e in system.machine.recorder.events() if e.kind == "reboot"]
        assert ops == ["dump", "registry-scan", "audit", "metadata-restore", "ubc-restore"]

    def test_file_service_recovers_instead_of_tracing_back(self):
        system, registry, meta, _ = noprot_with_dirty_metadata()
        service = FileService(system)
        meta.disk_block = 1 << 30
        wild_store(system, registry, meta)
        system.crash("fault reached the registry")
        try:
            service.recover()
        except MachineCheck as exc:  # pragma: no cover - the regression
            pytest.fail(f"recovery raised {exc!r}")
        service.open_session(1)
        assert service.submit(Request(client_id=1, req_id=1, op="mkdir", path="after")) is None
        assert [response.ok for response in service.drain()] == [True]
