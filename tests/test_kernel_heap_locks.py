"""Tests for the kernel heap allocator and locks."""

import pytest

from repro.errors import FileNotFound, KernelPanic, NoSpace, WatchdogTimeout
from repro.fs.types import ROOT_INO
from repro.hw import Machine, MachineConfig
from repro.kernel.kmalloc import HEADER_BYTES, KernelHeap
from repro.kernel.locks import LockManager
from repro.system import build_system, system_spec_for

PAGE = 8192


@pytest.fixture
def heap():
    machine = Machine(MachineConfig(memory_bytes=16 * PAGE, boot_time_ns=0))
    for vpn in range(4):
        machine.mmu.map(vpn, vpn)
    return KernelHeap(machine.bus, 0, 4 * PAGE)


class TestKernelHeap:
    def test_alloc_and_free(self, heap):
        addr = heap.kmalloc(100)
        assert heap.is_live(addr)
        heap.kfree(addr)
        assert not heap.is_live(addr)

    def test_allocations_do_not_overlap(self, heap):
        blocks = [(heap.kmalloc(64), 64) for _ in range(20)]
        spans = sorted((a, a + n) for a, n in blocks)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_data_survives_other_allocations(self, heap):
        a = heap.kmalloc(32)
        heap.bus.store(a, b"keep me around..")
        for _ in range(10):
            heap.kmalloc(48)
        assert heap.bus.load(a, 16) == b"keep me around.."

    def test_free_reuses_space(self, heap):
        a = heap.kmalloc(256)
        heap.kfree(a)
        b = heap.kmalloc(256)
        assert b == a  # first-fit finds the same hole

    def test_coalescing(self, heap):
        addrs = [heap.kmalloc(1000) for _ in range(3)]
        for addr in addrs:
            heap.kfree(addr)
        big = heap.kmalloc(2800)  # only fits if the three holes merged
        assert heap.is_live(big)

    def test_exhaustion_raises(self, heap):
        with pytest.raises(NoSpace):
            for _ in range(10_000):
                heap.kmalloc(4096)

    def test_corrupted_header_panics_on_free(self, heap):
        addr = heap.kmalloc(64)
        # A heap fault clobbers the allocation header.
        heap.bus.store(addr - HEADER_BYTES, b"\xde\xad\xbe\xef")
        with pytest.raises(KernelPanic, match="magic"):
            heap.kfree(addr)

    def test_double_free_panics(self, heap):
        addr = heap.kmalloc(64)
        heap.kfree(addr)
        with pytest.raises(KernelPanic):
            heap.kfree(addr)

    def test_alloc_hook_fires(self, heap):
        calls = []
        heap.alloc_hook = lambda addr, size: calls.append((addr, size))
        addr = heap.kmalloc(40)
        assert calls == [(addr, 40)]

    def test_rejects_nonpositive_size(self, heap):
        with pytest.raises(ValueError):
            heap.kmalloc(0)

    def test_stats(self, heap):
        a = heap.kmalloc(8)
        heap.kmalloc(8)
        heap.kfree(a)
        assert heap.stat_allocs == 2
        assert heap.stat_frees == 1
        assert len(heap._live) == 1


class TestLocks:
    def test_acquire_release(self):
        manager = LockManager()
        lock = manager.lock("buf")
        lock.acquire()
        assert lock.held
        lock.release()
        assert not lock.held

    def test_same_name_same_lock(self):
        manager = LockManager()
        assert manager.lock("x") is manager.lock("x")

    def test_context_manager(self):
        manager = LockManager()
        with manager.lock("y") as lock:
            assert lock.held
        assert not lock.held

    def test_reacquire_deadlocks(self):
        manager = LockManager()
        lock = manager.lock("a")
        lock.acquire()
        with pytest.raises(WatchdogTimeout, match="deadlock"):
            lock.acquire()

    def test_unlock_unheld_panics(self):
        manager = LockManager()
        with pytest.raises(KernelPanic, match="unheld"):
            manager.lock("b").release()

    def test_elided_release_leaves_lock_held(self):
        manager = LockManager()
        manager.elision_hook = lambda lock, op: op == "release"
        lock = manager.lock("c")
        lock.acquire()
        lock.release()  # elided!
        assert lock.held
        with pytest.raises(WatchdogTimeout):
            lock.acquire()

    def test_elided_acquire_opens_race_window(self):
        manager = LockManager()
        elide_next = [True]

        def hook(lock, op):
            if op == "acquire" and elide_next[0]:
                elide_next[0] = False
                return True
            return False

        manager.elision_hook = hook
        lock = manager.lock("d")
        lock.acquire()  # elided: section runs unprotected
        assert manager.any_racing()
        assert manager.racy_sections == 1
        lock.release()  # balanced: no panic, race window closes
        assert not manager.any_racing()
        assert not lock.held

    def test_an_errno_releases_the_lock_and_a_crash_does_not(self):
        manager = LockManager()
        lock = manager.lock("e")
        with pytest.raises(NoSpace):
            with lock:
                raise NoSpace("full")
        assert not lock.held
        with pytest.raises(KernelPanic):
            with lock:
                raise KernelPanic("dying")
        assert lock.held  # the crashed kernel's state, as it was


class TestAnErrnoInsideALockSection:
    """The three sections an ordinary errno leaves from.  Each used to leak
    its lock, so the next op on it deadlocked into a watchdog crash."""

    @staticmethod
    def held(system) -> list:
        return sorted(name for name, lock in system.kernel.locks._locks.items() if lock.held)

    def test_ialloc_out_of_inodes(self):
        system = build_system(system_spec_for("disk"))
        created = 0
        with pytest.raises(NoSpace, match="out of inodes"):
            while True:
                system.vfs.close(system.vfs.open(f"/f{created}", create=True))
                created += 1
        assert created == 508 and self.held(system) == []
        system.vfs.unlink("/f0")
        system.vfs.close(system.vfs.open("/again", create=True))

    def test_dir_add_cannot_grow_a_full_directory(self):
        system = build_system(system_spec_for("disk"))
        fd = system.vfs.open("/big", create=True)
        with pytest.raises(NoSpace, match="file system full"):
            while True:
                system.vfs.write(fd, b"x" * 8192)
        system.vfs.close(fd)
        created = 0
        with pytest.raises(NoSpace, match="file system full"):  # the root's second block
            while True:
                system.vfs.close(system.vfs.open(f"/f{created}", create=True))
                created += 1
        assert created > 200 and self.held(system) == []
        system.vfs.unlink("/big")
        system.vfs.close(system.vfs.open("/again", create=True))
        assert system.vfs.exists("/again")

    def test_dir_remove_of_a_missing_name(self):
        system = build_system(system_spec_for("disk"))
        fs = system.fs
        with pytest.raises(FileNotFound):
            fs.dir_remove(fs.iget(ROOT_INO), "nope")
        assert self.held(system) == []
        system.vfs.close(system.vfs.open("/after", create=True))
        system.vfs.unlink("/after")
