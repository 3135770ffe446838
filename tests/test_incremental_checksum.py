"""The detection checksum, adjusted from the written range.

Four properties keep the incremental path honest:

(a) **Arithmetic.**  ``fletcher32_adjust`` over the sums of a changed
    range is bit-identical to ``fletcher32`` of the changed buffer, and
    ``fletcher32`` is the fold of ``fletcher_sums`` (also across the
    64 KB piece boundary).
(b) **The guard, differentially.**  On real systems, scripts of
    legitimate writes interleaved with every way a frame can change
    behind the guard's back leave — after *every* ``end_write`` — the
    checksum a full recompute gives; and the whole run (memory image,
    registry, counters, warm-reboot report) equals the same run with the
    adjust path switched off.
(c) **The accounting contract.**  Every ranged mutation of a watched
    frame is accounted, every word path moves the generation only.

(The remembered registry run, part (d) of the same change, is tested next
to the per-frame reference it must equal: ``tests/test_hw_mmu.py`` and
``tests/test_tlb_coherence.py``.)
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.guard as guard_module
from repro.core.guard import RioGuard
from repro.errors import SystemCrash
from repro.fs.cache import IO_CONTEXT
from repro.fs.types import BLOCK_SIZE
from repro.hw import Machine, MachineConfig
from repro.hw.mmu import KSEG_BASE
from repro.isa.routines import HDR_DST_OFF
from repro.system import build_system, system_spec_for
from repro.util import fletcher32, fletcher32_adjust, fletcher_sums

PAGE = BLOCK_SIZE

# -- (a) arithmetic ---------------------------------------------------------

# Content comes from a drawn seed: 8 KB of drawn bytes per example is more
# than hypothesis can usefully shrink.
CONTENT = st.one_of(
    st.just(bytes(PAGE)),
    st.just(b"\xff" * PAGE),
    st.builds(lambda seed: random.Random(seed).randbytes(PAGE), st.integers(0, 1 << 32)),
)


@st.composite
def page_and_write(draw):
    page = draw(CONTENT)
    offset = draw(st.one_of(st.integers(0, PAGE), st.sampled_from([0, 1, PAGE - 2, PAGE - 1])))
    length = draw(st.integers(0, PAGE - offset))
    if draw(st.booleans()):  # a range that ends with the page
        length = PAGE - offset
    fill = draw(st.sampled_from(["random", "zero", "ones"]))
    if fill == "random":
        data = random.Random(draw(st.integers(0, 1 << 32))).randbytes(length)
    else:
        data = (b"\x00" if fill == "zero" else b"\xff") * length
    return page, offset, data


@given(page_and_write())
@settings(max_examples=300, deadline=None)
def test_adjust_equals_recompute(case):
    page, offset, data = case
    after = bytearray(page)
    after[offset : offset + len(data)] = data
    lo = offset & ~1
    hi = min(PAGE, (offset + len(data) + 1) & ~1)
    adjusted = fletcher32_adjust(
        fletcher32(page), PAGE // 2, lo // 2,
        fletcher_sums(page[lo:hi]), fletcher_sums(after[lo:hi]),
    )
    assert adjusted == fletcher32(after)


@given(st.integers(0, 3 * 65536 + 5), st.integers(0, 1 << 32), st.sampled_from(["random", "ones"]))
@settings(max_examples=60, deadline=None)
def test_fletcher32_is_the_fold_of_the_sums(length, seed, fill):
    data = random.Random(seed).randbytes(length) if fill == "random" else b"\xff" * length
    s, t = fletcher_sums(data)
    words = struct.unpack(f"<{(length + 1) // 2}H", data + b"\x00" * (length % 2))
    assert s == sum(words) % 0xFFFF
    assert t == sum(i * w for i, w in enumerate(words)) % 0xFFFF
    sum2 = (len(words) * s - t) % 0xFFFF
    assert fletcher32(data) == ((sum2 or 0xFFFF) << 16) | (s or 0xFFFF)


def test_adjust_of_an_odd_sized_buffer_tail():
    """An odd trailing byte is a zero-padded last word on both sides."""
    before = bytearray(b"\x11" * 101)
    after = bytearray(before)
    after[96:101] = b"hello"
    adjusted = fletcher32_adjust(
        fletcher32(before), 51, 48, fletcher_sums(before[96:]), fletcher_sums(after[96:])
    )
    assert adjusted == fletcher32(after)


# -- (b) the guard, differentially ----------------------------------------------


def _build(name: str, fast_path: bool):
    system = build_system(system_spec_for(name, machine=MachineConfig(fast_path=fast_path)))
    vfs = system.vfs
    fd = vfs.open("/victim", create=True)
    vfs.write(fd, random.Random(1).randbytes(3 * PAGE))
    vfs.close(fd)
    return system


def _play(name: str, fast_path: bool, seed: int, *, adjust: bool, monkeypatch):
    """One scripted run; returns everything an observer could compare."""
    counts = {"adjusted": 0, "recomputed": 0}
    real_adjust, real_recompute = fletcher32_adjust, RioGuard._page_checksum

    def counting_adjust(*args):
        counts["adjusted"] += 1
        return real_adjust(*args)

    def counting_recompute(self, page):
        counts["recomputed"] += 1
        return real_recompute(self, page)

    monkeypatch.setattr(guard_module, "fletcher32_adjust", counting_adjust)
    monkeypatch.setattr(RioGuard, "_page_checksum", counting_recompute)
    if not adjust:  # every window takes the full recompute, as before
        monkeypatch.setattr(RioGuard, "_watch_range", lambda self, page, offset, length: None)

    system = _build(name, fast_path)
    kernel, rio = system.kernel, system.rio
    memory, bus, guard = kernel.memory, kernel.bus, rio.guard
    protected = name == "rio_prot"
    rng = random.Random(seed)

    data_pages = [p for p in kernel.ubc.pages.values() if p.file_id is not None][:3]
    assert len(data_pages) == 3
    # Free-standing metadata pages over blocks the file system never
    # allocated: random bytes in them cannot confuse fsck.
    meta_pages = [
        kernel.buffer_cache.get(("meta", 0, block), disk_block=block) for block in (1000, 1001)
    ]
    pages = data_pages + meta_pages
    cache_of = {id(p): (kernel.ubc if p.kind == "data" else kernel.buffer_cache) for p in pages}

    checksums = []
    intruder = []  # a wild word to land in the page while its window is open
    real_end_write = guard.end_write

    def checked_end_write(page):
        if intruder:
            bus.store_u64(page.vaddr + intruder.pop(), 0xDEADBEEF)
        real_end_write(page)
        assert page.checksum == fletcher32(memory.frame(page.pfn)), page.key
        assert rio.registry.read_entry(page.registry_slot).checksum == page.checksum
        checksums.append((page.key, page.checksum))

    guard.end_write = checked_end_write

    def write(page, offset, data):
        cache_of[id(page)].write_into(page, offset, data, IO_CONTEXT)

    def small_range():
        length = rng.choice([1, 2, 7, 48, 128, 300, 1024, PAGE // 2])
        return rng.randrange(0, PAGE - length + 1), rng.randbytes(length)

    def window(kind: str, page) -> None:
        """One guarded write, possibly with something wrong about it."""
        if kind == "write":
            write(page, *small_range())
        elif kind == "big-write":  # more than half a page: never adjusted
            length = rng.choice([PAGE // 2 + 1, PAGE - 1, PAGE])
            write(page, rng.randrange(0, PAGE - length + 1), rng.randbytes(length))
        elif kind == "fill":
            cache_of[id(page)].fill(page, rng.randbytes(PAGE))
        elif kind == "overrun":
            page = rng.choice(data_pages)  # bcopy is the UBC's copy
            extra = rng.choice([1, 8, 100])
            length = rng.choice([16, 128])
            offset = rng.randrange(0, PAGE // 2)
            # Into the next frame, whatever it holds.  Under protection
            # that is mostly a trap and the end of the script: rarer there.
            if rng.random() < (0.05 if protected else 0.25):
                offset = PAGE - length
            kernel.klib.overrun_hook = lambda n: n + extra
            try:
                write(page, offset, rng.randbytes(length))
            finally:
                kernel.klib.overrun_hook = None
        elif kind == "bent-header":
            # A heap bit flip in the buffer header's dst pointer: the
            # copy lands a few bytes off, inside the same page.
            bend = 1 << rng.choice([0, 1, 3, 6])
            bus.store_u64(page.hdr_addr + HDR_DST_OFF, page.vaddr ^ bend)
            try:
                offset, data = small_range()
                write(page, min(offset, PAGE - len(data) - bend), data)
            finally:
                bus.store_u64(page.hdr_addr + HDR_DST_OFF, page.vaddr)

    def step(kind: str) -> None:
        page = rng.choice(pages)
        if kind == "wild-store":
            if not protected:
                bus.store(page.vaddr + rng.randrange(0, PAGE - 16), rng.randbytes(rng.choice([1, 8, 16])))
        elif kind == "wild-word":
            if not protected:
                bus.store_u64(page.vaddr + 8 * rng.randrange(0, PAGE // 8), rng.getrandbits(64))
        elif kind == "flip-bit":
            memory.flip_bit(page.pfn * PAGE + rng.randrange(PAGE), rng.randrange(8))
        else:
            # A text fault makes the copy routines run ``stq`` by ``stq``.
            kernel.interp.force_interpret = rng.random() < 0.25
            if rng.random() < 0.2:
                intruder.append(8 * rng.randrange(0, PAGE // 8))
            try:
                window(kind, page)
            finally:
                kernel.interp.force_interpret = False
                intruder.clear()

    kinds = [
        "write", "write", "write", "write", "big-write", "overrun", "bent-header", "fill",
        "wild-store", "wild-word", "flip-bit",
    ]
    try:
        for _ in range(120):
            step(rng.choice(kinds))
        # The machine dies inside a window: the half-done page is CHANGING
        # (or shadowed) and ``end_write`` never runs.
        page = rng.choice(pages)
        guard.begin_write(page, 64, 256)
        bus.store(page.vaddr + 64, rng.randbytes(100), IO_CONTEXT)
        system.crash("power cut mid-window")
    except SystemCrash as exc:  # an overrun into a protected neighbour, say
        system.crash(str(exc))
    stats = bus.stats
    before = (
        memory.dump_image(),
        (stats.loads, stats.stores, stats.bytes_loaded, stats.bytes_stored),
        (kernel.mmu.stat_pte_toggles, kernel.mmu.generation, rio.protection.stat_windows),
        system.clock.now_ns,
    )
    warm = system.reboot().warm
    assert not memory._watched  # the dead kernel's watch went with it
    return {
        "checksums": checksums,
        "before": before,
        "warm": warm,
        "clock": system.clock.now_ns,
        "counts": counts,
    }


# The reference engine interprets a word at a time: fewer scripts there.
@pytest.mark.parametrize(
    "fast_path,seed",
    [(True, 1), (True, 2), (True, 3), (True, 4), (False, 1), (False, 2)],
    ids=["fast-1", "fast-2", "fast-3", "fast-4", "reference-1", "reference-2"],
)
@pytest.mark.parametrize("name", ["rio_prot", "rio_noprot"])
def test_guard_adjust_equals_full_recompute(name, fast_path, seed, monkeypatch):
    with monkeypatch.context() as patch:
        adjusted = _play(name, fast_path, seed, adjust=True, monkeypatch=patch)
    with monkeypatch.context() as patch:
        recomputed = _play(name, fast_path, seed, adjust=False, monkeypatch=patch)
    # Both sides of the rule ran, and the second run never adjusted.
    assert adjusted["counts"]["adjusted"] > 10 and adjusted["counts"]["recomputed"] > 10
    assert recomputed["counts"]["adjusted"] == 0
    for key in ("checksums", "before", "warm", "clock"):
        assert adjusted[key] == recomputed[key], key


def test_wild_store_is_reported_unless_a_later_write_launders_it():
    """Detection semantics are what they were: a wild store into an idle
    page is a checksum mismatch at the warm reboot; one into a page that a
    legitimate write re-checksums afterwards is absorbed."""
    system = _build("rio_noprot", True)
    kernel = system.kernel
    reported, laundered, _ = [p for p in kernel.ubc.pages.values() if p.file_id is not None][:3]
    for page in (reported, laundered):
        kernel.bus.store(page.vaddr + 4000, b"wild store")
    kernel.ubc.write_into(laundered, 16, b"legitimate", IO_CONTEXT)
    assert laundered.checksum == fletcher32(kernel.memory.frame(laundered.pfn))
    slot = reported.registry_slot
    system.crash("boom")
    assert system.reboot().warm.checksum_mismatches == [slot]


# -- (c) the accounting contract ---------------------------------------------------


@pytest.fixture
def board():
    machine = Machine(MachineConfig(memory_bytes=16 * PAGE, boot_time_ns=0))
    machine.mmu.map(0, 4)
    machine.mmu.map(1, 5)
    return machine


def _watched(machine, *pfns):
    return [machine.memory.watch(pfn) for pfn in pfns]


class TestMutationAccounting:
    def test_empty_record(self, board):
        (record,) = _watched(board, 4)
        assert record == [0, PAGE, 0]
        assert board.memory._watched == {4: record}
        board.memory.unwatch(4)
        board.memory.unwatch(4)  # idempotent
        assert board.memory._watched == {}

    @pytest.mark.parametrize("route", ["fast", "checker", "tracing", "reference"])
    def test_bus_store_inside_one_page(self, board, route):
        bus, memory = board.bus, board.memory
        if route == "checker":
            bus.store_checker = lambda vaddr, length, ctx: None
        elif route == "tracing":
            bus.enable_tracing()
        elif route == "reference":
            bus.fast_path = False
        (record,) = _watched(board, 4)
        before = memory.generation(4)
        bus.store(100, b"x" * 50)
        bus.store(KSEG_BASE + 4 * PAGE + 20, b"y" * 10)
        assert record == [2, 20, 150]
        assert memory.generation(4) - before == 2

    def test_bus_store_across_pages(self, board):
        first, second, other = _watched(board, 4, 5, 6)
        board.bus.store(PAGE - 10, b"z" * 30)
        assert first == [1, PAGE - 10, PAGE]
        assert second == [1, 0, 20]
        assert other == [0, PAGE, 0]

    def test_memory_write_paths(self, board):
        memory = board.memory
        first, second = _watched(board, 4, 5)
        memory.write(4 * PAGE + PAGE - 4, b"abcdefgh")  # across two frames
        memory.write_u64(4 * PAGE + 8, 1)
        memory.write_u32(5 * PAGE + 100, 1)
        memory.fill(5 * PAGE + 200, 56)
        assert first == [2, 8, PAGE]
        assert second == [3, 0, 256]
        memory.load_image(bytes(memory.size))
        assert first == [3, 0, PAGE] and second == [4, 0, PAGE]
        assert memory.generation(4) == 3 and memory.generation(5) == 4

    def test_word_paths_move_the_generation_only(self, board):
        bus, memory = board.bus, board.memory
        assert bus.flat
        (record,) = _watched(board, 4)
        before = memory.generation(4)
        bus.store_u64(8, 1)
        bus.store_u8(3, 1)
        struct.pack_into("<Q", bus.store_frame(16), 16, 7)
        memory.flip_bit(4 * PAGE + 9, 2)
        assert memory.generation(4) - before == 4
        assert record == [0, PAGE, 0]
        memory.erase()
        assert memory.generation(4) - before == 5
        assert record == [0, PAGE, 0]

    def test_unwatched_frames_are_not_accounted(self, board):
        (record,) = _watched(board, 6)
        board.bus.store(100, b"x" * 50)
        board.memory.write(5 * PAGE, b"y")
        assert record == [0, PAGE, 0]

    def test_reset_drops_every_watch(self, board):
        _watched(board, 4, 5)
        board.reset()
        assert board.memory._watched == {}
        assert board.bus._watched is board.memory._watched  # the new bus aliases it

    def test_watch_of_a_nonexistent_frame(self, board):
        from repro.errors import MachineCheck

        with pytest.raises(MachineCheck):
            board.memory.watch(16)
