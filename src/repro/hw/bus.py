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
``MachineConfig.fast_path``), an access that fits inside one page is one
flat function body, in the order every route keeps — *crash guard, stats
bump, translate*:

* **Inline.**  The crash guard reads :attr:`MemoryBus.crashed`, a plain
  flag (it *is* the machine's crash state; ``Machine.crashed`` is a
  property over it).  The soft TLB — one ``virtual page base -> pfn``
  table per access kind — is probed in place, one ``dict.get`` and
  nothing else.  A word is read or written straight in the frame's
  ``bytearray`` with ``struct`` (``unpack_from`` / ``pack_into``): a
  never-written frame reads the shared zero page and allocates nothing,
  a store bumps the frame's write generation.  A *ranged* store
  (:meth:`MemoryBus.store`) of a frame someone watches also accounts its
  extent (``PhysicalMemory.watch``): one truth test of a dict that is
  empty outside a guarded cache write.  The word stores and the page
  port do not — a moved generation with nothing accounted is how the
  watcher learns that a store it cannot place happened.
* **The tables are the MMU's.**  They live in :class:`MMU`
  (``tlb_loads`` / ``tlb_stores``; the bus only binds them) because an
  entry is dropped by the mutation that can change it and by no other:
  ``set_writable`` / ``set_kseg_writable`` / ``set_kseg_writable_run``
  drop the *store* entry of a page that just lost write permission
  (granting it drops nothing: a non-writable page has no store entry),
  ``map`` / ``unmap`` drop that page's two entries, a flip of the ABOX
  ``kseg_through_tlb`` bit empties both tables.  A protection change
  therefore takes effect on the very next access to that page, and a
  registry window — the entry's frame unprotected and re-protected
  around one store — costs the next access to the heap, the stack or any
  other cache page nothing.
* **The miss handler owns every trap.**  A failed probe calls
  :meth:`MemoryBus._fast_page`, which runs :meth:`MMU.translate` itself,
  so each MachineCheck / ProtectionTrap, each trap event and each
  ``stat_protection_traps`` bump is the reference route's own, raised
  after the stats bump exactly as there; only a successful translation
  is cached.  ``BusStats.tlb_misses`` counts its calls — work done on
  the slow path only.
* **The page port** (:attr:`MemoryBus.flat`, :meth:`MemoryBus.load_frame`,
  :meth:`MemoryBus.store_frame`, :meth:`MemoryBus.settle`) hands a caller
  the live frame behind a virtual address through the same tables and
  the same miss handler, and takes the caller's own access counts
  afterwards.  The kernel's native walkers (``isa/routines.py``) are
  built on it: they no longer make one bus call per word.  What they
  preserve is everything that could be seen when they did — the
  load/store/byte totals, also when the walk ends in a trap or panic
  (the faulting access counted, nothing after it); the trap itself,
  type, message and ``address``, because the port is asked about the
  faulting word; the bytes in memory; a moved write generation on every
  frame stored to.
* **The reference route, untouched,** takes everything else: tracing on,
  a store checker installed (stores), a page-crossing access,
  ``fast_path=False`` — and, in the walkers, the word-by-word bodies do.
  Trap types, messages, ordering and the load / store / byte counters of
  :class:`BusStats` are identical between the two routes.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import CrashedMachineError
from repro.hw.mmu import MMU

_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("<Q")
_CRASHED = "memory access on crashed machine"


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
    #: Calls of the soft TLB's miss handler (none on the reference route).
    tlb_misses: int = 0
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
        #: The machine is down: every access raises
        #: :class:`CrashedMachineError`.  This flag *is* the machine's
        #: crash state (``Machine.crashed`` reads and writes it), so the
        #: access paths test it without a call.
        self.crashed = False
        self._tracing = False
        #: Engage the soft TLB + zero-copy word paths (and, transitively,
        #: the interpreter's predecode engine).  Off = reference path.
        self.fast_path = fast_path
        self._page_size = mmu.memory.page_size
        self._pages = mmu.memory._pages
        self._page_gens = mmu.memory._page_gens
        self._watched = mmu.memory._watched  # mutation accounting, see there
        self._zero_page = mmu.memory._zero_page  # loads never allocate
        #: The soft TLB is the MMU's (it invalidates per page); bound here
        #: so a probe is one attribute and one ``dict.get``.
        self._tlb_loads = mmu.tlb_loads
        self._tlb_stores = mmu.tlb_stores

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

    # -- the soft TLB ---------------------------------------------------

    def _fast_page(self, vaddr: int, off: int, write: bool) -> int:
        """The soft TLB's miss handler: translate the page holding
        ``vaddr`` and return its pfn.

        The access paths probe the TLB inline and come here only when the
        probe fails.  The translation is :meth:`MMU.translate`'s own — so
        is every MachineCheck / ProtectionTrap and every
        ``stat_protection_traps`` bump — and only a successful one is
        cached.  ``stats.tlb_misses`` counts the calls (trapping ones
        too); a hit does no such work.
        """
        self.stats.tlb_misses += 1
        pfn = (self.mmu.translate(vaddr, write=write) - off) // self._page_size
        (self._tlb_stores if write else self._tlb_loads)[vaddr - off] = pfn
        return pfn

    # -- the page port --------------------------------------------------

    @property
    def flat(self) -> bool:
        """May a caller use the page port?  True when nothing needs to
        see each access: fast path on, tracing off, no store checker."""
        return self.fast_path and not self._tracing and self.store_checker is None

    def load_frame(self, vaddr: int) -> bytes | bytearray:
        """Page port, load side: the live frame of the page holding
        ``vaddr`` (the shared zero page if nothing ever wrote it).

        Same soft TLB, same miss handler — hence the same MachineCheck,
        raised for ``vaddr`` itself — as :meth:`load_u64`, but no crash
        guard and no stats: a counted word run (``isa/routines.py``)
        guards first, counts each access where its assembly issues it
        and hands the totals to :meth:`settle`.  Only while :attr:`flat`.
        """
        off = vaddr % self._page_size
        pfn = self._tlb_loads.get(vaddr - off)
        if pfn is None:
            pfn = self._fast_page(vaddr, off, False)
        return self._pages.get(pfn, self._zero_page)

    def store_frame(self, vaddr: int) -> bytearray:
        """Page port, store side: the frame of the page holding ``vaddr``,
        allocated and its write generation bumped, ready for one
        ``pack_into``.  Traps as :meth:`store_u64` would for ``vaddr``;
        otherwise as :meth:`load_frame`."""
        off = vaddr % self._page_size
        pfn = self._tlb_stores.get(vaddr - off)
        if pfn is None:
            pfn = self._fast_page(vaddr, off, True)
        page = self._pages.get(pfn)
        if page is None:
            page = self.memory.page(pfn)
        self._page_gens[pfn] += 1
        return page

    def settle(
        self, loads: int = 0, stores: int = 0, bytes_loaded: int = 0, bytes_stored: int = 0
    ) -> None:
        """Add a batch of accesses a caller counted itself to the stats —
        from a ``finally``, so a run that traps settles what it issued."""
        stats = self.stats
        stats.loads += loads
        stats.stores += stores
        stats.bytes_loaded += bytes_loaded
        stats.bytes_stored += bytes_stored

    # -- loads ----------------------------------------------------------

    def load(self, vaddr: int, length: int, ctx: AccessContext = KERNEL_CONTEXT) -> bytes:
        """Kernel load through the MMU (may machine-check)."""
        if self.crashed:
            raise CrashedMachineError(_CRASHED)
        stats = self.stats
        stats.loads += 1
        stats.bytes_loaded += length
        if self._tracing:
            stats.trace.append(("load", vaddr, length, ctx.procedure))
        elif self.fast_path and length:
            off = vaddr % self._page_size
            if off + length <= self._page_size:
                pfn = self._tlb_loads.get(vaddr - off)
                if pfn is None:
                    pfn = self._fast_page(vaddr, off, False)
                return bytes(self._pages.get(pfn, self._zero_page)[off : off + length])
        out = bytearray()
        for paddr, take in self.mmu.translate_range(vaddr, length, write=False):
            out += self.memory.read(paddr, take)
        return bytes(out)

    def load_u64(self, vaddr: int, ctx: AccessContext = KERNEL_CONTEXT) -> int:
        off = vaddr % self._page_size
        if self.fast_path and not self._tracing and off <= self._page_size - 8:
            if self.crashed:
                raise CrashedMachineError(_CRASHED)
            stats = self.stats
            stats.loads += 1
            stats.bytes_loaded += 8
            pfn = self._tlb_loads.get(vaddr - off)
            if pfn is None:
                pfn = self._fast_page(vaddr, off, False)
            return _U64.unpack_from(self._pages.get(pfn, self._zero_page), off)[0]
        return int.from_bytes(self.load(vaddr, 8, ctx), "little")

    def load_u8(self, vaddr: int, ctx: AccessContext = KERNEL_CONTEXT) -> int:
        if self.fast_path and not self._tracing:
            if self.crashed:
                raise CrashedMachineError(_CRASHED)
            stats = self.stats
            stats.loads += 1
            stats.bytes_loaded += 1
            off = vaddr % self._page_size
            pfn = self._tlb_loads.get(vaddr - off)
            if pfn is None:
                pfn = self._fast_page(vaddr, off, False)
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
        if self.crashed:
            raise CrashedMachineError(_CRASHED)
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
                pfn = self._tlb_stores.get(vaddr - off)
                if pfn is None:
                    pfn = self._fast_page(vaddr, off, True)
                page = self._pages.get(pfn)
                if page is None:
                    page = self.memory.page(pfn)
                self._page_gens[pfn] += 1
                page[off : off + n] = data
                if self._watched:
                    self.memory.account(pfn, off, off + n)
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
        off = vaddr % self._page_size
        if (
            self.fast_path
            and not self._tracing
            and self.store_checker is None
            and off <= self._page_size - 8
        ):
            if self.crashed:
                raise CrashedMachineError(_CRASHED)
            stats = self.stats
            stats.stores += 1
            stats.bytes_stored += 8
            pfn = self._tlb_stores.get(vaddr - off)
            if pfn is None:
                pfn = self._fast_page(vaddr, off, True)
            page = self._pages.get(pfn)
            if page is None:
                page = self.memory.page(pfn)
            self._page_gens[pfn] += 1
            _U64.pack_into(page, off, value & _MASK64)
            return
        self.store(vaddr, (value & _MASK64).to_bytes(8, "little"), ctx)

    def store_u8(self, vaddr: int, value: int, ctx: AccessContext = KERNEL_CONTEXT) -> None:
        if self.fast_path and not self._tracing and self.store_checker is None:
            if self.crashed:
                raise CrashedMachineError(_CRASHED)
            stats = self.stats
            stats.stores += 1
            stats.bytes_stored += 1
            off = vaddr % self._page_size
            pfn = self._tlb_stores.get(vaddr - off)
            if pfn is None:
                pfn = self._fast_page(vaddr, off, True)
            page = self._pages.get(pfn)
            if page is None:
                page = self.memory.page(pfn)
            self._page_gens[pfn] += 1
            page[off] = value & 0xFF
            return
        self.store(vaddr, bytes([value & 0xFF]), ctx)
