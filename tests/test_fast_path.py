"""Tests for the hot-path execution engine's cache-invalidation edges.

The fast engine caches three kinds of derived state — predecoded text
pages (keyed on frame write-generations), soft-TLB translations (keyed on
the MMU generation), and the dispatch table — and every test here attacks
one of the invalidation edges: corruption of an already-predecoded page,
protection toggles between accesses, ABOX bit flips, and unmapping.  All
of these assertions are engine-independent semantics, so the whole file
also passes under ``RIO_FAST_PATH=0`` (the differential CI leg).
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.errors import IllegalInstruction, MachineCheck, ProtectionTrap
from repro.hw import Machine, MachineConfig
from repro.hw.bus import DEFAULT_TRACE_CAP, TraceRing
from repro.hw.mmu import KSEG_BASE
from repro.isa import Interpreter
from repro.isa.routines import build_kernel_text


def build_env(fast_path: bool) -> SimpleNamespace:
    """The conftest ``env`` layout, with an explicit fast-path setting."""
    machine = Machine(
        MachineConfig(memory_bytes=2 * 1024 * 1024, boot_time_ns=0, fast_path=fast_path)
    )
    text = build_kernel_text()
    page = machine.memory.page_size
    text_pages = -(-text.size_bytes // page)
    text.load(machine.memory, base_paddr=1 * page, base_vaddr=1 * page)
    for i in range(text_pages):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for i in range(8):
        machine.mmu.map(32 + i, 32 + i)
    for i in range(2):
        machine.mmu.map(48 + i, 48 + i)
    interp = Interpreter(machine.bus, text)
    interp.force_interpret = True
    return SimpleNamespace(
        machine=machine,
        bus=machine.bus,
        mmu=machine.mmu,
        memory=machine.memory,
        text=text,
        interp=interp,
        page=page,
        heap=32 * page,
        stack_top=50 * page - 64,
    )


@pytest.fixture(params=[True, False], ids=["fast", "ref"])
def xenv(request):
    """Both engines: every invalidation edge must hold on each."""
    return build_env(request.param)


class TestPredecodeInvalidation:
    def test_bit_flip_in_predecoded_page_redecodes(self, xenv):
        """A bit flipped into a text page *after* it has been predecoded
        must be seen by the very next call — the stale predecode entries
        may not survive the frame-generation bump."""
        env = xenv
        env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)  # warm caches
        idx = env.text.routines["bzero"].start_index + 1
        word = env.text.read_word(idx)
        paddr = env.page + idx * 4  # text lives at physical page 1
        # Flip a high opcode bit so the word becomes undecodable.
        target = 0x3D << 26
        for bit in range(32):
            if (word ^ target) >> bit & 1:
                env.memory.flip_bit(paddr + bit // 8, bit % 8)
        with pytest.raises(IllegalInstruction):
            env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)

    def test_write_word_in_predecoded_page_redecodes(self, xenv):
        env = xenv
        env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)
        idx = env.text.routines["bzero"].start_index + 1
        env.text.write_word(idx, 0x3D << 26)
        with pytest.raises(IllegalInstruction):
            env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)

    def test_restored_word_runs_again(self, xenv):
        """Corrupt, observe the trap, restore the original bytes: the
        routine must work again (a third generation bump re-decodes)."""
        env = xenv
        idx = env.text.routines["bzero"].start_index + 1
        original = env.text.read_word(idx)
        baseline = env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)
        env.text.write_word(idx, 0x3D << 26)
        with pytest.raises(IllegalInstruction):
            env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)
        env.text.write_word(idx, original)
        again = env.interp.call("bzero", [env.heap, 64], sp=env.stack_top)
        assert again.value == baseline.value
        assert again.steps == baseline.steps

    def test_memory_generation_accessor(self, xenv):
        env = xenv
        g0 = env.memory.generation(32)
        env.bus.store_u64(env.heap, 1)
        g1 = env.memory.generation(32)
        assert g1 > g0
        env.memory.flip_bit(32 * env.page, 0)
        assert env.memory.generation(32) > g1
        with pytest.raises(MachineCheck):
            env.memory.generation(env.memory.num_pages)


class TestSoftTlbInvalidation:
    def test_pte_writability_toggle_traps_next_store(self, xenv):
        """set_writable(False) must take effect on the very next store,
        even though the previous store cached the translation."""
        env = xenv
        env.bus.store_u64(env.heap, 1)  # warms the (vpn, write) TLB entry
        env.mmu.set_writable(32, False)
        with pytest.raises(ProtectionTrap, match="store to protected vpn 32"):
            env.bus.store_u64(env.heap, 2)
        assert env.bus.load_u64(env.heap) == 1  # nothing written
        env.mmu.set_writable(32, True)
        env.bus.store_u64(env.heap, 3)  # and the un-protect is live too
        assert env.bus.load_u64(env.heap) == 3

    def test_kseg_through_tlb_flip_effective_immediately(self, xenv):
        """Flipping the ABOX bit changes the outcome of the very next
        KSEG store — with no other MMU traffic in between."""
        env = xenv
        frame = 33
        kaddr = KSEG_BASE + frame * env.page
        env.mmu.set_kseg_writable(frame, False)
        env.bus.store_u64(kaddr, 0xAA)  # bypasses the TLB: succeeds
        env.mmu.kseg_through_tlb = True
        with pytest.raises(ProtectionTrap, match=f"protected KSEG frame {frame}"):
            env.bus.store_u64(kaddr, 0xBB)
        env.mmu.kseg_through_tlb = False
        env.bus.store_u64(kaddr, 0xCC)  # bypass again
        assert env.bus.load_u64(kaddr) == 0xCC

    def test_unmap_invalidates_cached_translation(self, xenv):
        env = xenv
        assert env.bus.load_u64(env.heap + 8) == 0  # caches the read entry
        env.mmu.unmap(32)
        with pytest.raises(MachineCheck, match="invalid virtual address"):
            env.bus.load_u64(env.heap + 8)

    def test_remap_redirects_cached_translation(self, xenv):
        """Remapping a vpn to a different frame redirects the next access
        even though the old translation was cached."""
        env = xenv
        env.bus.store_u64(env.heap, 0x1111)
        env.mmu.map(32, 40)  # point vpn 32 at a fresh frame
        assert env.bus.load_u64(env.heap) == 0
        env.mmu.map(32, 32)
        assert env.bus.load_u64(env.heap) == 0x1111

    def test_protection_trap_during_interpretation(self, xenv):
        """The interpreter's fast store path must honour a toggle that
        happened after a previous interpreted run warmed every cache."""
        env = xenv
        env.interp.call("bzero", [env.heap, 32], sp=env.stack_top)
        env.mmu.set_writable(32, False)
        with pytest.raises(ProtectionTrap):
            env.interp.call("bzero", [env.heap, 32], sp=env.stack_top)


class TestTraceRing:
    def test_default_is_unbounded_in_practice(self):
        ring = TraceRing()
        assert ring.cap == DEFAULT_TRACE_CAP
        assert ring == []
        assert ring.dropped == 0

    def test_drops_oldest_beyond_cap(self):
        ring = TraceRing(cap=3)
        for i in range(5):
            ring.append(i)
        assert list(ring) == [2, 3, 4]
        assert ring.dropped == 2

    def test_clear_resets_dropped(self):
        ring = TraceRing(cap=2)
        for i in range(4):
            ring.append(i)
        ring.clear()
        assert ring == [] and ring.dropped == 0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            TraceRing(cap=0)

    def test_extend_is_ring_aware(self):
        ring = TraceRing(cap=3)
        ring.extend(range(5))
        assert list(ring) == [2, 3, 4]
        assert ring.dropped == 2

    def test_iadd_is_ring_aware(self):
        ring = TraceRing(cap=2)
        ring.append(0)
        ring += [1, 2, 3]
        assert isinstance(ring, TraceRing)
        assert list(ring) == [2, 3]
        assert ring.dropped == 2

    def test_listlike_reads(self):
        ring = TraceRing(cap=4)
        ring.extend([1, 2, 3])
        assert ring[0] == 1 and ring[-1] == 3
        assert ring[1:] == [2, 3]
        assert 2 in ring and 9 not in ring
        assert len(ring) == 3
        assert list(iter(ring)) == [1, 2, 3]
        assert ring == [1, 2, 3]
        assert ring != [1, 2]

    def test_enable_tracing_rebounds_ring(self, xenv):
        env = xenv
        env.bus.enable_tracing(True, cap=4)
        for i in range(6):
            env.bus.store_u8(env.heap + i, i)
        trace = env.bus.stats.trace
        assert len(trace) == 4
        assert trace.dropped == 2
        assert trace[-1] == ("store", env.heap + 5, 1, "kernel")
        env.bus.enable_tracing(False)
        assert env.bus.stats.trace == [] and env.bus.stats.trace.dropped == 0

    def test_tracing_forces_reference_sequence(self, xenv):
        """Traced interpreted runs must record per-fetch loads — i.e. the
        fast engine may not swallow fetches while tracing is on."""
        env = xenv
        env.bus.enable_tracing(True)
        result = env.interp.call("bzero", [env.heap, 16], sp=env.stack_top)
        fetch_loads = [
            t for t in env.bus.stats.trace if t[0] == "load" and t[2] == 4
        ]
        assert len(fetch_loads) == result.steps


class TestFastPathKnob:
    def test_machine_config_flag_reaches_bus(self):
        assert build_env(True).bus.fast_path is True
        assert build_env(False).bus.fast_path is False

    def test_env_var_disables_default(self, monkeypatch):
        monkeypatch.setenv("RIO_FAST_PATH", "0")
        assert MachineConfig().fast_path is False
        monkeypatch.setenv("RIO_FAST_PATH", "off")
        assert MachineConfig().fast_path is False
        monkeypatch.setenv("RIO_FAST_PATH", "1")
        assert MachineConfig().fast_path is True
        monkeypatch.delenv("RIO_FAST_PATH")
        assert MachineConfig().fast_path is True

    def test_reset_preserves_flag(self):
        env = build_env(False)
        env.machine.reset()
        assert env.machine.bus.fast_path is False


class TestEngineEquivalence:
    """Spot checks that the two engines are observably identical (the
    broad randomised version lives in test_fast_path_differential.py)."""

    CALLS = [
        ("bzero", lambda e: [e.heap, 200]),
        ("bcopy", lambda e: [e.heap, e.heap + 0x1000, 123]),
        ("checksum_block", lambda e: [e.heap, 128]),
    ]

    @pytest.mark.parametrize("name,argf", CALLS, ids=[c[0] for c in CALLS])
    def test_result_and_stats_match(self, name, argf):
        fast, ref = build_env(True), build_env(False)
        rf = fast.interp.call(name, argf(fast), sp=fast.stack_top)
        rr = ref.interp.call(name, argf(ref), sp=ref.stack_top)
        assert rf == rr
        sf, sr = fast.bus.stats, ref.bus.stats
        assert (sf.loads, sf.stores, sf.bytes_loaded, sf.bytes_stored) == (
            sr.loads,
            sr.stores,
            sr.bytes_loaded,
            sr.bytes_stored,
        )
        assert [fast.memory.page_checksum(p) for p in range(32, 40)] == [
            ref.memory.page_checksum(p) for p in range(32, 40)
        ]


class TestHostCost:
    """The two host-side claims DESIGN.md §4 makes for the hot path: it
    is worth having, and the flight recorder costs nothing when off."""

    #: One store-dense, one branch/ALU-dense, one copy loop — a fixed
    #: instruction count each.
    LOOPS = [
        ("bzero", lambda e: [e.heap, 4096]),
        ("checksum_block", lambda e: [e.heap, 4096]),
        ("bcopy", lambda e: [e.heap, e.heap + 0x1000, 2048]),
    ]

    @staticmethod
    def best_of(env, name, args, repeats=5):
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = env.interp.call(name, args, sp=env.stack_top)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    @pytest.mark.parametrize("name,argf", LOOPS, ids=[c[0] for c in LOOPS])
    def test_hot_path_beats_reference_by_the_ci_floor(self, name, argf):
        """Best-of-5 over the same instruction count on each engine; the
        floor is CI's 1.5x, which a loaded runner still clears (a 2-vCPU
        box measures 15x and more)."""
        fast, ref = build_env(True), build_env(False)
        rf, fast_s = self.best_of(fast, name, argf(fast))
        rr, ref_s = self.best_of(ref, name, argf(ref))
        assert rf == rr
        assert ref_s / fast_s >= 1.5, f"{name}: {ref_s / fast_s:.2f}x over {rf.steps} steps"

    def test_stopped_recorder_is_never_called(self, monkeypatch):
        """Free when off, as a count: every emission site guards on
        ``rec.enabled``, so a stopped recorder sees no ``emit`` call and
        no ring append — where a started one sees both."""
        env = build_env(True)
        recorder = env.machine.recorder
        calls = []
        emit = recorder.emit
        monkeypatch.setattr(
            recorder, "emit", lambda *a, **kw: (calls.append(a), emit(*a, **kw))
        )

        def drive():
            env.mmu.set_writable(33, False)
            env.mmu.set_writable(33, True)
            for name, argf in self.LOOPS:
                env.interp.call(name, argf(env), sp=env.stack_top)

        assert not recorder.enabled  # the default on every Machine
        drive()
        assert calls == [] and len(recorder) == 0
        recorder.start()
        drive()
        assert len(calls) == len(recorder) == 2
        recorder.stop()
        drive()
        assert len(calls) == len(recorder) == 2
