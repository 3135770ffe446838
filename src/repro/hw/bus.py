"""The memory bus: every kernel load and store goes through here.

The paper's central observation about why memory is vulnerable is that "any
store instruction by any kernel procedure can easily change any data in
memory simply by using the wrong address".  The bus is where that danger
lives in the simulation: wild stores issued by fault-corrupted code travel
exactly the same path as legitimate stores, so whether they corrupt the
file cache, trap on a protected page, or machine-check on an illegal
address is decided by the same mechanism in both cases.

The bus also hosts the *code patching* hook: when a store checker is
installed (see :mod:`repro.core.protection`), every store is pre-checked
against the file cache's registered-writable ranges, modelling the
sandboxing-style instrumentation used on CPUs that cannot force physical
addresses through the TLB.

Hot path
--------

When :attr:`MemoryBus.fast_path` is on (the default, see
``MachineConfig.fast_path``), accesses that fit inside one page take a
zero-copy route: the ``(virtual page base, write)`` pair is looked up in a
software TLB that caches the physical page base of each successful MMU
translation, and the bytes are read/written directly in the frame's
backing ``bytearray``.  The soft TLB is invalidated wholesale whenever
:attr:`MMU.generation` changes — any ``map``/``unmap``, any PTE or KSEG
writability toggle, and any flip of the ABOX ``kseg_through_tlb`` bit —
so protection changes take effect on the very next access, exactly as on
the slow path.  Misses, page-crossing accesses, traced runs, and (for
stores) an installed store checker all fall back to the original
translate-everything path, which keeps trap types, messages, ordering and
every :class:`BusStats` counter identical between the two routes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import CrashedMachineError
from repro.hw.mmu import MMU

_MASK64 = (1 << 64) - 1


@dataclass
class AccessContext:
    """Identifies the kernel procedure performing an access.

    ``procedure`` is used for trap attribution in the campaign logs;
    ``is_io_path`` marks accesses made on behalf of an I/O request — such
    accesses model *indirect* corruption (section 3.2) and are still
    honoured by protection windows that the I/O procedure opened.
    """

    procedure: str = "kernel"
    is_io_path: bool = False


KERNEL_CONTEXT = AccessContext()

StoreChecker = Callable[[int, int, AccessContext], None]

#: Default bound on the access trace (entries, not bytes).  Long traced
#: runs drop their oldest records instead of growing without limit.
DEFAULT_TRACE_CAP = 100_000


class TraceRing:
    """A bounded access trace: drops its oldest entry once ``cap``
    entries are held, counting the drops in :attr:`dropped`.

    Backed by a ``collections.deque(maxlen=cap)`` so eviction is O(1)
    (the previous list-based version paid ``del self[0]`` — O(n) — per
    append once full, taxing exactly the long traced runs the cap
    exists for).  It is deliberately *not* a list subclass: every
    mutator is ring-aware (``append``, ``extend``, ``+=``), so nothing
    can silently bypass the cap or the ``dropped`` accounting, while
    the list-like reads tests rely on (``len``, iteration, indexing,
    slicing, ``in``, ``== []``) all keep working.
    """

    __slots__ = ("cap", "dropped", "_buf")

    def __init__(self, cap: int = DEFAULT_TRACE_CAP) -> None:
        if cap <= 0:
            raise ValueError("trace cap must be positive")
        self.cap = cap
        self.dropped = 0
        self._buf: deque = deque(maxlen=cap)

    # -- mutators (all ring-aware) --------------------------------------

    def append(self, item) -> None:
        if len(self._buf) == self.cap:
            self.dropped += 1
        self._buf.append(item)

    def extend(self, items) -> None:
        for item in items:
            self.append(item)

    def __iadd__(self, items) -> "TraceRing":
        self.extend(items)
        return self

    def clear(self) -> None:
        self._buf.clear()
        self.dropped = 0

    # -- list-like reads ------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)

    def __contains__(self, item) -> bool:
        return item in self._buf

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._buf)[index]
        return self._buf[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceRing):
            return list(self._buf) == list(other._buf)
        if isinstance(other, (list, tuple)):
            return list(self._buf) == list(other)
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"TraceRing({list(self._buf)!r}, cap={self.cap}, dropped={self.dropped})"


@dataclass
class BusStats:
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    checked_stores: int = 0
    trace: TraceRing = field(default_factory=TraceRing)


class MemoryBus:
    """Mediates all kernel memory accesses through the MMU."""

    def __init__(self, mmu: MMU, fast_path: bool = True) -> None:
        self.mmu = mmu
        self.memory = mmu.memory
        self.stats = BusStats()
        #: Flight recorder hook (attached by :class:`repro.hw.Machine`);
        #: components that only hold a bus (e.g. the registry) reach the
        #: recorder through here.  ``None`` for standalone buses.
        self.recorder = None
        self.store_checker: Optional[StoreChecker] = None
        self._crashed_check: Callable[[], bool] = lambda: False
        self._tracing = False
        #: Engage the soft TLB + zero-copy word paths (and, transitively,
        #: the interpreter's predecode engine).  Off = reference path.
        self.fast_path = fast_path
        self._page_size = mmu.memory.page_size
        self._pages = mmu.memory._pages
        self._zero_page = mmu.memory._zero_page  # loads never allocate
        #: Soft TLB: (virtual page base, write) -> (physical page base, pfn).
        self._tlb: dict[tuple[int, bool], tuple[int, int]] = {}
        self._tlb_gen = -1

    def attach_crash_check(self, check: Callable[[], bool]) -> None:
        """Install the machine's "am I crashed" predicate."""
        self._crashed_check = check

    def enable_tracing(self, enabled: bool = True, cap: int | None = None) -> None:
        """Record (kind, vaddr, length, procedure) tuples — for tests.

        ``cap`` (entries) re-bounds the trace ring; the default keeps the
        most recent :data:`DEFAULT_TRACE_CAP` accesses and counts drops in
        ``stats.trace.dropped``.  Tracing forces every access — including
        interpreter instruction fetches — down the slow path so the
        recorded sequence is the reference sequence.
        """
        self._tracing = enabled
        if cap is not None:
            self.stats.trace = TraceRing(cap)
        if not enabled:
            self.stats.trace.clear()

    def _guard(self) -> None:
        if self._crashed_check():
            raise CrashedMachineError("memory access on crashed machine")

    # -- the soft TLB ---------------------------------------------------

    def _fast_page(self, vaddr: int, off: int, write: bool) -> tuple[int, int]:
        """Translate the page holding ``vaddr`` via the soft TLB.

        Returns ``(physical page base, pfn)``; misses consult
        :meth:`MMU.translate` (so every MachineCheck / ProtectionTrap and
        every ``stat_protection_traps`` bump is the slow path's own) and
        only successful translations are cached.
        """
        mmu = self.mmu
        gen = mmu.generation
        if gen != self._tlb_gen:
            self._tlb.clear()
            self._tlb_gen = gen
        key = (vaddr - off, write)
        hit = self._tlb.get(key)
        if hit is None:
            paddr = mmu.translate(vaddr, write=write)
            pbase = paddr - off
            hit = (pbase, pbase // self._page_size)
            self._tlb[key] = hit
        return hit

    # -- loads ----------------------------------------------------------

    def load(self, vaddr: int, length: int, ctx: AccessContext = KERNEL_CONTEXT) -> bytes:
        """Kernel load through the MMU (may machine-check)."""
        self._guard()
        stats = self.stats
        stats.loads += 1
        stats.bytes_loaded += length
        if self._tracing:
            stats.trace.append(("load", vaddr, length, ctx.procedure))
        elif self.fast_path and length:
            off = vaddr % self._page_size
            if off + length <= self._page_size:
                _, pfn = self._fast_page(vaddr, off, False)
                return bytes(self._pages.get(pfn, self._zero_page)[off : off + length])
        out = bytearray()
        for paddr, take in self.mmu.translate_range(vaddr, length, write=False):
            out += self.memory.read(paddr, take)
        return bytes(out)

    def load_u64(self, vaddr: int, ctx: AccessContext = KERNEL_CONTEXT) -> int:
        ps = self._page_size
        off = vaddr % ps
        if self.fast_path and not self._tracing and off <= ps - 8:
            self._guard()
            stats = self.stats
            stats.loads += 1
            stats.bytes_loaded += 8
            _, pfn = self._fast_page(vaddr, off, False)
            page = self._pages.get(pfn, self._zero_page)
            return int.from_bytes(page[off : off + 8], "little")
        return int.from_bytes(self.load(vaddr, 8, ctx), "little")

    def load_u8(self, vaddr: int, ctx: AccessContext = KERNEL_CONTEXT) -> int:
        if self.fast_path and not self._tracing:
            self._guard()
            stats = self.stats
            stats.loads += 1
            stats.bytes_loaded += 1
            off = vaddr % self._page_size
            _, pfn = self._fast_page(vaddr, off, False)
            return self._pages.get(pfn, self._zero_page)[off]
        return self.load(vaddr, 1, ctx)[0]

    # -- stores ---------------------------------------------------------

    def store(
        self,
        vaddr: int,
        data: bytes | bytearray | memoryview,
        ctx: AccessContext = KERNEL_CONTEXT,
    ) -> None:
        """Kernel store through the MMU and (when installed) the
        code-patching store checker; may trap or machine-check."""
        self._guard()
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        n = len(data)
        stats = self.stats
        if self.store_checker is not None:
            stats.checked_stores += 1
            self.store_checker(vaddr, n, ctx)
        stats.stores += 1
        stats.bytes_stored += n
        if self._tracing:
            stats.trace.append(("store", vaddr, n, ctx.procedure))
        elif self.fast_path and n and self.store_checker is None:
            off = vaddr % self._page_size
            if off + n <= self._page_size:
                _, pfn = self._fast_page(vaddr, off, True)
                page = self._pages.get(pfn)
                if page is None:
                    page = self.memory.page(pfn)
                self.memory._page_gens[pfn] += 1
                page[off : off + n] = data
                return
        runs = self.mmu.translate_range(vaddr, n, write=True)
        if len(runs) == 1:
            self.memory.write(runs[0][0], data)
        else:
            view = data if isinstance(data, memoryview) else memoryview(data)
            pos = 0
            for paddr, take in runs:
                self.memory.write(paddr, view[pos : pos + take])
                pos += take

    def store_u64(self, vaddr: int, value: int, ctx: AccessContext = KERNEL_CONTEXT) -> None:
        ps = self._page_size
        off = vaddr % ps
        if (
            self.fast_path
            and not self._tracing
            and self.store_checker is None
            and off <= ps - 8
        ):
            self._guard()
            stats = self.stats
            stats.stores += 1
            stats.bytes_stored += 8
            _, pfn = self._fast_page(vaddr, off, True)
            page = self._pages.get(pfn)
            if page is None:
                page = self.memory.page(pfn)
            self.memory._page_gens[pfn] += 1
            page[off : off + 8] = (value & _MASK64).to_bytes(8, "little")
            return
        self.store(vaddr, (value & _MASK64).to_bytes(8, "little"), ctx)

    def store_u8(self, vaddr: int, value: int, ctx: AccessContext = KERNEL_CONTEXT) -> None:
        if self.fast_path and not self._tracing and self.store_checker is None:
            self._guard()
            stats = self.stats
            stats.stores += 1
            stats.bytes_stored += 1
            off = vaddr % self._page_size
            _, pfn = self._fast_page(vaddr, off, True)
            page = self._pages.get(pfn)
            if page is None:
                page = self.memory.page(pfn)
            self.memory._page_gens[pfn] += 1
            page[off] = value & 0xFF
            return
        self.store(vaddr, bytes([value & 0xFF]), ctx)
