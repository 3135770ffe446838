"""Tests for the fault injector: each of the 13 types must be armed
mechanistically and produce the right class of consequences."""

import pytest

from repro.errors import KernelPanic, SystemCrash, WatchdogTimeout
from repro.faults import FAULT_CATEGORIES, FaultInjector, FaultType
from repro.faults.injector import (
    BCOPY_INTERVAL,
    KMALLOC_INTERVAL,
    STACK_WINDOW,
)
from repro.isa.encoding import Op
from repro.system import SystemSpec, build_system


@pytest.fixture
def system():
    return build_system(SystemSpec("ufs_delayed", fs_blocks=512))


def injector_for(system, seed=1):
    return FaultInjector(system.kernel, seed)


def arm_premature_free(injector, heap):
    """kmalloc until the allocation fault arms a premature free (it
    fires once every interval, at most ``KMALLOC_INTERVAL[1]`` calls);
    returns the new ``(due_ns, addr)``."""
    armed = len(injector._pending_frees)
    for _ in range(KMALLOC_INTERVAL[1]):
        heap.kmalloc(64)
        if len(injector._pending_frees) > armed:
            return injector._pending_frees[-1]
    raise AssertionError("the allocation fault never fired")


def overruns(hook, count):
    """The first ``count`` inflations the overrun hook makes of a
    zero-length copy."""
    extras = []
    while len(extras) < count:
        extra = hook(0)
        if extra:
            extras.append(extra)
    return extras


def lock_ops_until_crash(lock, limit=10_000):
    """Acquire and release until an elided lock op brings the kernel down."""
    with pytest.raises(SystemCrash) as crash:
        for _ in range(limit):
            lock.acquire()
            lock.release()
    return crash.value


class TestTaxonomy:
    def test_thirteen_types(self):
        assert len(list(FaultType)) == 13

    def test_categories_cover_all_types(self):
        covered = [t for types in FAULT_CATEGORIES.values() for t in types]
        assert sorted(covered, key=lambda t: t.value) == sorted(
            FaultType, key=lambda t: t.value
        )

    def test_table1_row_labels(self):
        assert FaultType.KERNEL_TEXT.value == "kernel text"
        assert FaultType.DELETE_RANDOM_INST.value == "delete random inst."


class TestTextMutations:
    def test_text_flips_mark_routines_corrupted(self, system):
        record = injector_for(system).inject(FaultType.KERNEL_TEXT)
        assert len(record.details) == 20
        assert any(not r.pristine for r in system.kernel.text.routines.values())

    def test_delete_branch_replaces_with_nop(self, system):
        text = system.kernel.text
        branches_before = sum(
            1
            for i in range(1, len(text.words))
            if text.read_instruction(i).is_branch
            and text.read_instruction(i).op is not Op.BR
        )
        injector_for(system).inject(FaultType.DELETE_BRANCH)
        branches_after = sum(
            1
            for i in range(1, len(text.words))
            if text.read_instruction(i).is_branch
            and text.read_instruction(i).op is not Op.BR
        )
        assert branches_after < branches_before

    def test_dst_reg_mutation_changes_register(self, system):
        record = injector_for(system).inject(FaultType.DESTINATION_REG)
        assert record.details  # at least one mutation applied

    def test_off_by_one_swaps_comparisons(self, system):
        text = system.kernel.text

        def count(op):
            return sum(
                1
                for i in range(1, len(text.words))
                if text.read_instruction(i).op is op
            )

        strict_before = count(Op.CMPULT)
        injector_for(system, seed=3).inject(FaultType.OFF_BY_ONE)
        # Some strict/non-strict comparisons flipped.
        assert count(Op.CMPULT) != strict_before or count(Op.CMPLT) != strict_before

    def test_pointer_fault_nops_setup_instruction(self, system):
        record = injector_for(system).inject(FaultType.POINTER)
        assert any("pointer" in d for d in record.details)

    def test_initialization_targets_prologues(self, system):
        record = injector_for(system).inject(FaultType.INITIALIZATION)
        assert all("NOP at word" in d for d in record.details)

    def test_corrupted_code_eventually_crashes(self, system):
        """With its data plane shredded, the kernel must go down while
        running the workload, not silently succeed."""
        injector_for(system, seed=5).inject(FaultType.DELETE_RANDOM_INST)
        with pytest.raises(SystemCrash):
            for i in range(500):
                fd = system.vfs.open(f"/f{i}", create=True)
                system.vfs.write(fd, b"payload" * 100)
                system.vfs.close(fd)
        assert system.machine.crashed


class TestDataFlips:
    def test_heap_flips_target_live_allocations(self, system):
        record = injector_for(system).inject(FaultType.KERNEL_HEAP)
        assert len(record.details) == 20

    def test_stack_flips_land_near_stack_top(self, system):
        record = injector_for(system).inject(FaultType.KERNEL_STACK)
        top = system.kernel.klib.stack_top
        for detail in record.details:
            addr = int(detail.split()[1], 16)
            assert top - STACK_WINDOW <= addr < top


class TestHookFaults:
    def test_allocation_fault_prematurely_frees(self, system):
        injector = injector_for(system)
        injector.inject(FaultType.ALLOCATION)
        heap = system.kernel.heap
        due, addr = arm_premature_free(injector, heap)
        assert heap.is_live(addr)
        system.clock.consume(due - system.clock.now_ns + 1)  # the "thread" wakes
        assert not heap.is_live(addr)

    def test_each_pending_free_wakes_at_its_own_due_time(self, system):
        """A free armed while another is pending is made at its own due
        time: the listener re-arms for what is left after each wake."""
        injector = injector_for(system)
        injector.inject(FaultType.ALLOCATION)
        heap, clock = system.kernel.heap, system.clock
        (first_due, first), (second_due, second) = sorted(
            [arm_premature_free(injector, heap), arm_premature_free(injector, heap)]
        )
        assert clock.now_ns < first_due < second_due
        clock.consume(first_due - clock.now_ns)
        assert not heap.is_live(first) and heap.is_live(second)
        clock.consume(second_due - clock.now_ns)
        assert not heap.is_live(second)

    def test_pending_free_dies_with_its_kernel(self, system):
        """A premature free still pending at the crash belongs to the dead
        kernel: the reboot neither runs it nor keeps its clock listener,
        and the disks' listeners stay."""
        injector = injector_for(system)
        injector.inject(FaultType.ALLOCATION)
        arm_premature_free(injector, system.kernel.heap)
        armed = list(system.clock._listeners)
        assert injector._process_pending_frees in armed
        system.crash("a free is pending")
        system.reboot()  # the 30 s boot passes the free's due time
        assert system.clock._listeners == [
            cb for cb in armed if cb != injector._process_pending_frees
        ]

    def test_copy_overrun_inflates_length(self, system):
        injector = injector_for(system)
        injector.inject(FaultType.COPY_OVERRUN)
        hook = system.kernel.klib.overrun_hook
        assert hook is not None
        lengths = [hook(100) for _ in range(BCOPY_INTERVAL[1])]
        assert max(lengths) > 100

    def test_overrun_distribution_matches_paper(self, system):
        injector = injector_for(system, seed=9)
        injector.inject(FaultType.COPY_OVERRUN)
        extras = overruns(system.kernel.klib.overrun_hook, 2000)
        one_byte = sum(1 for e in extras if e == 1) / len(extras)
        small = sum(1 for e in extras if 2 <= e <= 1024) / len(extras)
        big = sum(1 for e in extras if e > 1024) / len(extras)
        assert 0.42 <= one_byte <= 0.58   # paper: 50%
        assert 0.36 <= small <= 0.52      # paper: 44%
        assert 0.02 <= big <= 0.12        # paper: 6%

    def test_synchronization_elides_lock_ops(self, system):
        injector = injector_for(system)
        injector.inject(FaultType.SYNCHRONIZATION)
        crash = lock_ops_until_crash(system.kernel.locks.lock("probe"))
        assert isinstance(crash, (WatchdogTimeout, KernelPanic))

    def test_synchronization_deadlock_is_watchdog(self, system):
        injector = injector_for(system, seed=2)
        injector.inject(FaultType.SYNCHRONIZATION)
        lock_ops_until_crash(system.kernel.locks.lock("dl"))


class TestDeterminism:
    def test_same_seed_same_mutations(self, system):
        a = build_system(SystemSpec("ufs_delayed", fs_blocks=512))
        b = build_system(SystemSpec("ufs_delayed", fs_blocks=512))
        rec_a = FaultInjector(a.kernel, 77).inject(FaultType.KERNEL_TEXT)
        rec_b = FaultInjector(b.kernel, 77).inject(FaultType.KERNEL_TEXT)
        assert rec_a.details == rec_b.details
