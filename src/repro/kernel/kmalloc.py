"""The kernel heap: kmalloc/kfree over a region of simulated memory.

Allocation headers are real bytes in the heap (magic + size ahead of each
block), so heap corruption — from bit flips, copy overruns past a block's
end, or the injected *allocation management* fault that prematurely frees
a live block — has mechanistic consequences: a clobbered header turns the
next ``kfree`` into a kernel panic; a prematurely freed block gets reused
and two owners scribble over each other.

The *allocation fault hook* implements the paper's fault: "modifying the
kernel malloc procedure to occasionally ... prematurely free the newly
allocated block of memory".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import KernelPanic, NoSpace
from repro.hw.bus import AccessContext, MemoryBus

KMALLOC_MAGIC = 0x4D41_4C4C  # "MALL"
HEADER_BYTES = 16
MIN_BLOCK = 32


class KernelHeap:
    """A first-fit allocator with in-memory block headers."""

    def __init__(self, bus: MemoryBus, base: int, size: int) -> None:
        self.bus = bus
        self.base = base
        self.size = size
        #: Free list of (addr, size) spans, address-ordered.
        self._free: list[tuple[int, int]] = [(base, size)]
        self._live: dict[int, int] = {}  # user addr -> block size
        #: Hook invoked after every kmalloc: ``hook(user_addr, size)``.
        #: Used by the fault injector for allocation-management faults.
        self.alloc_hook: Optional[Callable[[int, int], None]] = None
        self.stat_allocs = 0
        self.stat_frees = 0

    def _ctx(self) -> AccessContext:
        return AccessContext(procedure="kmalloc")

    def kmalloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the user address."""
        if size <= 0:
            raise ValueError("kmalloc size must be positive")
        need = max(MIN_BLOCK, HEADER_BYTES + ((size + 7) & ~7))
        for index, (addr, span) in enumerate(self._free):
            if span >= need:
                remainder = span - need
                if remainder >= MIN_BLOCK:
                    self._free[index] = (addr + need, remainder)
                else:
                    need = span
                    del self._free[index]
                user = addr + HEADER_BYTES
                self.bus.store_u64(addr, (need << 32) | KMALLOC_MAGIC, self._ctx())
                self._live[user] = need
                self.stat_allocs += 1
                if self.alloc_hook is not None:
                    self.alloc_hook(user, size)
                return user
        raise NoSpace("kernel heap exhausted")

    def kfree(self, user: int) -> None:
        """Free a block; panics on a corrupted or bogus header, as a real
        kernel's consistency checks would."""
        addr = user - HEADER_BYTES
        header = self.bus.load_u64(addr, self._ctx())
        if header & 0xFFFFFFFF != KMALLOC_MAGIC:
            raise KernelPanic("kfree: bad allocation header magic")
        size = header >> 32
        if self._live.get(user) != size:
            raise KernelPanic("kfree: block not allocated (double free?)")
        del self._live[user]
        self.bus.store_u64(addr, 0, self._ctx())  # poison the header
        self.stat_frees += 1
        self._insert_free(addr, size)

    def _insert_free(self, addr: int, size: int) -> None:
        """Insert a span, coalescing with address-adjacent neighbours."""
        self._free.append((addr, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for span_addr, span_size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == span_addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + span_size)
            else:
                merged.append((span_addr, span_size))
        self._free = merged

    def is_live(self, user: int) -> bool:
        return user in self._live
