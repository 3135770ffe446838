"""Tests for the memory bus and the machine crash/reset lifecycle."""

import pytest

from repro.errors import CrashedMachineError, MachineCheck, ProtectionTrap
from repro.hw import KSEG_BASE, Machine, MachineConfig
from repro.hw.bus import AccessContext

PAGE = 8192


@pytest.fixture
def machine():
    return Machine(MachineConfig(memory_bytes=16 * PAGE, boot_time_ns=1000))


class TestBus:
    def test_store_load_roundtrip(self, machine):
        machine.mmu.map(0, 3)
        machine.bus.store(100, b"rio")
        assert machine.bus.load(100, 3) == b"rio"
        assert machine.memory.read(3 * PAGE + 100, 3) == b"rio"

    def test_u64_helpers(self, machine):
        machine.mmu.map(0, 0)
        machine.bus.store_u64(8, 0xABCDEF)
        assert machine.bus.load_u64(8) == 0xABCDEF
        machine.bus.store_u8(3, 0x7F)
        assert machine.bus.load_u8(3) == 0x7F

    def test_kseg_access(self, machine):
        machine.bus.store(KSEG_BASE + 2 * PAGE, b"ubc page")
        assert machine.memory.read(2 * PAGE, 8) == b"ubc page"

    def test_stats_accumulate(self, machine):
        machine.mmu.map(0, 0)
        machine.bus.store(0, b"abcd")
        machine.bus.load(0, 4)
        assert machine.bus.stats.stores == 1
        assert machine.bus.stats.loads == 1
        assert machine.bus.stats.bytes_stored == 4
        assert machine.bus.stats.bytes_loaded == 4

    def test_store_checker_invoked(self, machine):
        """The code-patching hook: every store is pre-checked."""
        machine.mmu.map(0, 0)
        seen = []

        def checker(vaddr, length, ctx):
            seen.append((vaddr, length, ctx.procedure))
            if vaddr == 64:
                raise ProtectionTrap("code patch check", address=vaddr)

        machine.bus.store_checker = checker
        machine.bus.store(0, b"ok", AccessContext(procedure="test"))
        with pytest.raises(ProtectionTrap):
            machine.bus.store(64, b"blocked")
        assert seen[0] == (0, 2, "test")
        assert machine.bus.stats.checked_stores == 2
        # The blocked store must not have written anything.
        assert machine.memory.read(64, 1) == b"\x00"

    def test_protection_trap_propagates(self, machine):
        machine.mmu.map(1, 1, writable=False)
        with pytest.raises(ProtectionTrap):
            machine.bus.store(PAGE, b"nope")

    def test_illegal_address_machine_check(self, machine):
        with pytest.raises(MachineCheck):
            machine.bus.load(0xDEADBEEF000, 8)


class TestMachineLifecycle:
    def test_crash_freezes_bus(self, machine):
        machine.mmu.map(0, 0)
        machine.bus.store(0, b"before")
        machine.crash("test crash")
        with pytest.raises(CrashedMachineError):
            machine.bus.store(0, b"after")
        with pytest.raises(CrashedMachineError):
            machine.bus.load(0, 1)

    def test_crash_is_recorded(self, machine):
        machine.crash("kernel panic: test", kind="panic")
        assert machine.crashed
        assert machine.crash_log[-1].reason == "kernel panic: test"
        assert machine.crash_log[-1].kind == "panic"

    def test_double_crash_records_once(self, machine):
        machine.crash("first")
        machine.crash("second")
        assert len(machine.crash_log) == 1

    def test_reset_preserves_memory_alpha_semantics(self, machine):
        machine.memory.write(5 * PAGE, b"warm reboot data")
        machine.crash("boom")
        machine.reset(preserve_memory=True)
        assert not machine.crashed
        assert machine.memory.read(5 * PAGE, 16) == b"warm reboot data"

    def test_reset_erases_memory_pc_semantics(self, machine):
        machine.memory.write(5 * PAGE, b"warm reboot data")
        machine.crash("boom")
        machine.reset(preserve_memory=False)
        assert machine.memory.read(5 * PAGE, 16) == b"\x00" * 16

    def test_reset_clears_mmu_state(self, machine):
        machine.mmu.map(0, 0)
        machine.mmu.kseg_through_tlb = True
        machine.crash("boom")
        machine.reset()
        assert not machine.mmu.kseg_through_tlb  # ABOX bit is CPU state
        with pytest.raises(MachineCheck):
            machine.mmu.translate(0, write=False)

    def test_reset_consumes_boot_time(self, machine):
        t0 = machine.clock.now_ns
        machine.crash("boom")
        machine.reset()
        assert machine.clock.now_ns == t0 + 1000

    def test_require_up(self, machine):
        machine.require_up()
        machine.crash("down")
        with pytest.raises(CrashedMachineError):
            machine.require_up()


class TestClock:
    def test_consume_and_listeners(self, machine):
        """A listener runs at the first advance that reaches a deadline it
        asked for, once; it re-arms itself for more."""
        clock, ticks = machine.clock, []
        t0 = clock.now_ns
        clock.on_advance(ticks.append)
        clock.consume(500)
        assert ticks == []  # registered, but no deadline yet
        clock.wake_at(t0 + 2000)
        clock.consume(500)
        clock.advance_to(t0 + 1999)
        assert ticks == []
        clock.advance_to(t0 + 2500)  # passes the deadline
        clock.consume(0)
        clock.advance_to(t0 + 3000)
        assert ticks == [t0 + 2500]  # woken once: the deadline is spent
        clock.wake_at(t0 + 3000)  # already reached: the next advance wakes it
        clock.advance_to(t0 + 1000)  # in the past: no advance, no wake
        clock.consume(0)
        assert ticks == [t0 + 2500, t0 + 3000]
        clock.wake_at(t0 + 5000)
        clock.wake_at(t0 + 4000)  # the earliest deadline wins
        clock.advance_to(t0 + 4000)
        assert ticks == [t0 + 2500, t0 + 3000, t0 + 4000]
        assert clock.now_ns == t0 + 4000

    def test_negative_consume_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.clock.consume(-1)

