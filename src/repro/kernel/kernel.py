"""The kernel: boots over a machine and hosts the file system stack.

Boot lays out the address space (text, heap, stack, staging, buffer cache
slots), loads the ISA kernel text into physical frames, and builds the
service objects (heap allocator, lock manager, klib, background activity).
Caches are created separately via :meth:`Kernel.init_caches` so a Rio
guard can be installed between boot and cache creation.

The kernel also owns the crash path: :meth:`go_down` classifies the fatal
exception, optionally performs the default Unix panic behaviour of writing
dirty data back to disk (which Rio turns off — section 2.3), and brings
the machine down.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    IllegalInstruction,
    KernelPanic,
    MachineCheck,
    ProtectionTrap,
    ReproError,
    SystemCrash,
    WatchdogTimeout,
)
from repro.fs.cache import BufferCache, CacheGuard, UnifiedBufferCache
from repro.fs.types import BLOCK_SIZE
from repro.hw.clock import NS_PER_SEC
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SIZE
from repro.isa.interpreter import Interpreter
from repro.isa.routines import build_kernel_text
from repro.kernel.background import BackgroundActivity
from repro.kernel.klib import NS_PER_INSTRUCTION, KLib
from repro.kernel.kmalloc import KernelHeap
from repro.kernel.layout import (
    HEAP_PAGES,
    KBUF_BASE,
    KHEAP_BASE,
    KSTACK_BASE,
    KSTAGE_BASE,
    KTEXT_BASE,
    REGISTRY_PAGES,
    STACK_PAGES,
    STAGING_PAGES,
    FramePool,
    Regions,
    buffer_cache_pages,
)
from repro.kernel.locks import LockManager


#: One frame holds one file system block: the registry's unit is the
#: "8 KB file cache page" (section 2.2).
assert PAGE_SIZE == BLOCK_SIZE


@dataclass
class KernelConfig:
    """Kernel-wide tunables."""

    #: The update daemon's flush interval ("once every 30 seconds").
    update_interval_ns: int = 30 * NS_PER_SEC


#: Fixed CPU cost of entering a system call.
SYSCALL_OVERHEAD_NS = 25_000
#: Reduced entry cost for syscalls after the first inside a
#: :meth:`Kernel.begin_batch` scope (trap taken once, warm caches): the
#: file service's batched submission path relies on this.
BATCH_SYSCALL_OVERHEAD_NS = 2_500
#: Frames the UBC must leave free for the rest of the kernel.
_UBC_RESERVE_FRAMES = 16

CRASH_KINDS = {
    MachineCheck: "machine_check",
    ProtectionTrap: "protection_trap",
    KernelPanic: "panic",
    IllegalInstruction: "illegal_instruction",
    WatchdogTimeout: "watchdog",
}

#: Crash kinds on which the panic procedure still runs (and, by default,
#: syncs dirty data).  A hung machine never reaches panic.
_PANIC_PATH_KINDS = {"panic", "machine_check", "illegal_instruction", "protection_trap"}


class Kernel:
    """A booted kernel instance over a :class:`~repro.hw.Machine`."""

    def __init__(self, machine: Machine, config: KernelConfig | None = None) -> None:
        self.machine = machine
        self.config = config or KernelConfig()
        self.page_size = PAGE_SIZE
        self.memory = machine.memory
        self.mmu = machine.mmu
        self.bus = machine.bus
        self.clock = machine.clock
        #: Flight recorder convenience handle (see :mod:`repro.obs`).
        self.recorder = machine.recorder

        # Reserve enough top-of-memory frames that the registry can hold
        # one entry per physical page (every page could be a file buffer).
        from repro.core.registry import ENTRY_SIZE, HEADER_SIZE

        needed = -(-(HEADER_SIZE + self.memory.num_pages * ENTRY_SIZE) // self.page_size)
        registry_pages = max(REGISTRY_PAGES, needed)
        self.frames = FramePool(
            self.memory.num_pages, reserved_top=registry_pages
        )
        self.regions = Regions(registry_frames=self.frames.top_frames())
        self._boot_text()
        self._boot_region("heap_frames", KHEAP_BASE, HEAP_PAGES)
        self._boot_region("stack_frames", KSTACK_BASE, STACK_PAGES)
        self._boot_region("staging_frames", KSTAGE_BASE, STAGING_PAGES)

        self.interp = Interpreter(self.bus, self.text)
        self.klib = KLib(self.interp, self.clock, self.regions.stack_top())
        self.heap = KernelHeap(self.bus, KHEAP_BASE, HEAP_PAGES * self.page_size)
        self.locks = LockManager()
        self.background = BackgroundActivity(self)

        self.block_devices: dict[int, object] = {}
        self.filesystems: dict[int, object] = {}
        self.buffer_cache: BufferCache | None = None
        self.ubc: UnifiedBufferCache | None = None
        self.guard: CacheGuard | None = None
        #: Rio's panic change (section 2.3): the owning System derives it
        #: on every boot and toggle; False keeps the Unix panic sync.
        self.reliability_writes_off = False
        #: Chaos capability registry, installed (and re-installed on
        #: every boot) by the owning System; ``None`` means calm.
        self.chaos = None
        #: Tiered backing store behind the root disk (see
        #: :mod:`repro.backend`), re-pointed by the owning System on
        #: every boot; ``None`` means the local disk is the only tier.
        self.backing = None

        self._next_update_ns = self.clock.now_ns + self.config.update_interval_ns
        self._in_update = False
        self.stat_syscalls = 0
        self.stat_update_runs = 0
        self.stat_batched_syscalls = 0
        self._batch_depth = 0
        self._batch_first_charged = False

    # -- boot helpers ------------------------------------------------------

    def _boot_text(self) -> None:
        self.text = build_kernel_text()
        npages = -(-self.text.size_bytes // self.page_size)
        pfns = self.frames.alloc_many(npages)
        if pfns != list(range(pfns[0], pfns[0] + npages)):
            raise ConfigurationError("boot text frames not contiguous")
        self.regions.text_frames = pfns
        self.text.load(self.memory, pfns[0] * self.page_size, KTEXT_BASE)
        for i, pfn in enumerate(pfns):
            # Kernel text is mapped read-only, as on a real system.
            self.mmu.map(KTEXT_BASE // self.page_size + i, pfn, writable=False)

    def install_kernel_text(self, text) -> None:
        """Replace the kernel text image (e.g. with a code-patched build).

        The new image is loaded into freshly allocated contiguous frames
        and remapped at ``KTEXT_BASE`` before the old frames are released
        — allocating first keeps the pool's ascending run intact so the
        contiguity requirement holds.
        """
        npages = -(-text.size_bytes // self.page_size)
        pfns = self.frames.alloc_many(npages)
        if pfns != list(range(pfns[0], pfns[0] + npages)):
            raise ConfigurationError("replacement text frames not contiguous")
        old_pfns = self.regions.text_frames
        old_npages = len(old_pfns)
        text.load(self.memory, pfns[0] * self.page_size, KTEXT_BASE)
        for i, pfn in enumerate(pfns):
            self.mmu.map(KTEXT_BASE // self.page_size + i, pfn, writable=False)
        for i in range(npages, old_npages):  # stale tail mappings, if shrinking
            self.mmu.unmap(KTEXT_BASE // self.page_size + i)
        self.regions.text_frames = pfns
        self.text = text
        self.interp.text = text
        for pfn in old_pfns:
            self.frames.free(pfn)

    def _boot_region(self, name: str, base: int, npages: int) -> None:
        pfns = self.frames.alloc_many(npages)
        setattr(self.regions, name, pfns)
        for i, pfn in enumerate(pfns):
            self.mmu.map(base // self.page_size + i, pfn, writable=True)

    # -- cache creation ---------------------------------------------------------

    def init_caches(self, guard: CacheGuard | None = None) -> None:
        """Create the buffer cache and UBC, optionally Rio-guarded."""
        self.guard = guard or CacheGuard()
        meta_capacity = buffer_cache_pages(self.frames.num_frames)
        self.buffer_cache = BufferCache(
            self, meta_capacity, KBUF_BASE, self.guard
        )
        # Budget the UBC so that both caches filled to capacity still fit
        # in the frame pool (plus the reserve for transient allocations).
        ubc_capacity = max(
            8,
            self.frames.free_count - meta_capacity - _UBC_RESERVE_FRAMES,
        )
        self.ubc = UnifiedBufferCache(self, ubc_capacity, self.guard)

    @property
    def registry_frames(self) -> list[int]:
        return self.regions.registry_frames

    # -- devices and file systems --------------------------------------------------

    def attach_block_device(self, dev: int, disk) -> None:
        self.block_devices[dev] = disk

    def block_device(self, dev: int):
        if dev not in self.block_devices:
            raise ConfigurationError(f"no block device {dev}")
        return self.block_devices[dev]

    def register_filesystem(self, dev: int, fs) -> None:
        self.filesystems[dev] = fs

    # -- data staging (the "user buffer" the kernel copies in from) -------------------

    @contextmanager
    def uncharged(self):
        """Charge no CPU time inside the scope (untimed setup phases and
        administrative flushes); nests, and restores on any exit."""
        klib = self.klib
        charged = klib.charge_time
        klib.charge_time = False
        try:
            yield
        finally:
            klib.charge_time = charged

    def charge_copy(self, nbytes: int) -> None:
        """CPU cost of moving ``nbytes`` through a kernel copy path —
        used for copy-out on reads (copy-in costs come from the ISA data
        plane) and by MFS.  ~1.25 instructions per byte, the 8-byte-loop
        bcopy rate."""
        if self.klib.charge_time and nbytes:
            self.clock.consume(int(nbytes * 1.25 * NS_PER_INSTRUCTION))

    def stage_data(self, data: bytes) -> int:
        """Place user data in the staging region; returns its kernel vaddr.

        The store models the *user process* writing its own buffer, so it
        bypasses the kernel store path (no protection checks, no charge).
        """
        limit = len(self.regions.staging_frames) * self.page_size
        if len(data) > limit:
            raise ConfigurationError(f"staging overflow: {len(data)} > {limit}")
        vaddr = KSTAGE_BASE
        pos = 0
        while pos < len(data):
            page_off = (vaddr + pos) % self.page_size
            take = min(len(data) - pos, self.page_size - page_off)
            paddr = self.mmu.translate(vaddr + pos, write=False)
            self.memory.write(paddr, data[pos : pos + take])
            pos += take
        return vaddr

    # -- syscall bookkeeping, daemons, preemption ---------------------------------------

    def begin_batch(self) -> None:
        """Enter a batched-syscall scope (nestable).

        The first syscall inside the scope pays the full
        ``SYSCALL_OVERHEAD_NS`` prologue; subsequent ones pay the
        reduced ``BATCH_SYSCALL_OVERHEAD_NS`` — one trap, warm
        entry path.  Only the fixed entry cost changes; per-byte and
        per-instruction costs are charged as usual.
        """
        if self._batch_depth == 0:
            self._batch_first_charged = False
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Leave a batched-syscall scope opened by :meth:`begin_batch`."""
        if self._batch_depth > 0:
            self._batch_depth -= 1

    def syscall_entered(self) -> None:
        """Common prologue: charge overhead, run background kernel work,
        let the update daemon fire if its deadline passed."""
        self.machine.require_up()
        self.stat_syscalls += 1
        if self.klib.charge_time:
            if self._batch_depth > 0 and self._batch_first_charged:
                self.stat_batched_syscalls += 1
                self.clock.consume(BATCH_SYSCALL_OVERHEAD_NS)
            else:
                self._batch_first_charged = True
                self.clock.consume(SYSCALL_OVERHEAD_NS)
        self.background.run_once()
        self.maybe_run_update()

    def maybe_run_update(self) -> None:
        if self.clock.now_ns >= self._next_update_ns:
            self.run_update_daemon()

    def run_update_daemon(self) -> None:
        """The 30-second flush daemon."""
        if self._in_update:
            return
        self._in_update = True
        try:
            self.stat_update_runs += 1
            self._next_update_ns = self.clock.now_ns + self.config.update_interval_ns
            for fs in self.filesystems.values():
                fs.periodic_flush()
        finally:
            self._in_update = False

    def preemption_point(self) -> None:
        """A point inside a multi-step metadata update where, if a lock
        acquire was elided (synchronization fault), the update daemon may
        preempt and flush half-finished state to disk."""
        if self.locks.any_racing():
            self.run_update_daemon()

    # -- the crash path ---------------------------------------------------------------------

    def go_down(self, exc: SystemCrash) -> None:
        """Bring the system down on a fatal exception.

        By default the Unix panic procedure writes dirty data back to disk
        on the way down; Rio disables that (``reliability_writes_off``).
        """
        if self.machine.crashed:
            return
        kind = CRASH_KINDS.get(type(exc), "panic")
        rec = self.recorder
        if rec.enabled:
            rec.emit(
                "crash",
                kind,
                reason=str(exc),
                panic_code=exc.code if isinstance(exc, KernelPanic) else None,
            )
        if not self.reliability_writes_off and kind in _PANIC_PATH_KINDS:
            # Imported here: a kernel that never syncs on the way down never
            # loads the backend package.
            from repro.backend.common import BackendError

            try:
                if self.buffer_cache is not None:
                    self.buffer_cache.flush_all(sync=False)
                if self.ubc is not None:
                    self.ubc.flush_all(sync=False)
                # The flushes are queued asynchronously; whichever have not
                # reached the platter when machine.crash() resolves the disk
                # queue are lost or torn — a dying kernel's sync is racy.
            except (ReproError, BackendError):
                pass  # a dying kernel's sync often fails part way
        self.machine.crash(str(exc), kind=kind)
