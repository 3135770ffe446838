"""Background kernel activity: the generic-kernel-code fault surface.

On a real system, most injected faults land in code that has nothing to do
with the file cache, and most crashes come from that code tripping over
illegal addresses or its own consistency checks (section 3.3).  To give
our injector the same target surface, the kernel maintains a run queue and
a vnode hash table as real linked structures in heap memory and walks them
constantly between workload operations (``sched_tick`` / ``vnode_scan`` in
the ISA).  Faults in their text or data crash the machine in varied,
realistic ways — panics, machine checks, watchdog hangs — almost never
touching file data.
"""

from __future__ import annotations

from repro.hw.bus import AccessContext
from repro.isa.routines import PROC_MAGIC, VNODE_MAGIC

PROC_NODE_BYTES = 32
VNODE_BYTES = 32

# Who a tick's accesses are attributed to (contexts are read-only labels).
_CONTEXT_SWITCH = AccessContext(procedure="context_switch")
_SCHED_TICK = AccessContext(procedure="sched_tick")
_VNODE_SCAN = AccessContext(procedure="vnode_scan")
_NET_SOFTINTR = AccessContext(procedure="net_softintr")


class BackgroundActivity:
    """Builds and exercises the background kernel data structures."""

    def __init__(
        self,
        kernel,
        num_procs: int = 8,
        num_buckets: int = 8,
        vnodes_per_bucket: int = 2,
        bcopy_every: int = 4,
    ) -> None:
        self.kernel = kernel
        self.num_procs = num_procs
        self.num_buckets = num_buckets
        self.bcopy_every = bcopy_every
        ctx = AccessContext(procedure="background_init")
        heap = kernel.heap
        bus = kernel.bus

        # Run queue: singly-linked list of proc structs.
        self.runqueue_head = heap.kmalloc(8)
        proc_addrs = [heap.kmalloc(PROC_NODE_BYTES) for _ in range(num_procs)]
        bus.store_u64(self.runqueue_head, proc_addrs[0] if proc_addrs else 0, ctx)
        for i, addr in enumerate(proc_addrs):
            bus.store_u64(addr, PROC_MAGIC, ctx)
            nxt = proc_addrs[i + 1] if i + 1 < len(proc_addrs) else 0
            bus.store_u64(addr + 8, nxt, ctx)
            bus.store_u64(addr + 16, 0, ctx)

        # Vnode hash table: buckets of singly-linked chains.
        self.vnode_table = heap.kmalloc(8 * num_buckets)
        for bucket in range(num_buckets):
            prev = 0
            for _ in range(vnodes_per_bucket):
                node = heap.kmalloc(VNODE_BYTES)
                bus.store_u64(node, VNODE_MAGIC, ctx)
                bus.store_u64(node + 8, prev, ctx)
                bus.store_u64(node + 16, 0, ctx)
                prev = node
            bus.store_u64(self.vnode_table + 8 * bucket, prev, ctx)

        # A "sleeping thread's" saved context on the kernel stack.  Real
        # kernel stacks hold the frames of suspended threads, which is
        # what stack bit flips corrupt on a real machine; our interpreter
        # calls are leaf-only, so we park the context switcher's saved
        # pointers (run queue, vnode table) on the stack and reload them
        # every tick — a flip there sends the next walk into the weeds.
        self.saved_context = kernel.klib.stack_top - 256
        bus.store_u64(self.saved_context, self.runqueue_head, ctx)
        bus.store_u64(self.saved_context + 8, self.vnode_table, ctx)

        # Scratch buffers moved around by background bcopys.  On a real
        # kernel most bcopy traffic is unrelated to the file cache
        # (networking, IPC, ...), so most copy-overrun firings smash
        # kernel heap neighbours, not file pages; these copies recreate
        # that target profile.
        self.scratch_src = heap.kmalloc(160)
        self.scratch_dst = heap.kmalloc(160)

        self.ticks_run = 0

    def run_once(self) -> None:
        """One quantum of background kernel work."""
        klib = self.kernel.klib
        bus = self.kernel.bus
        # "Context switch": reload the walkers' base pointers from the
        # saved context on the kernel stack.
        runqueue_head = bus.load_u64(self.saved_context, _CONTEXT_SWITCH)
        vnode_table = bus.load_u64(self.saved_context + 8, _CONTEXT_SWITCH)
        klib.sched_tick(runqueue_head, _SCHED_TICK)
        klib.vnode_scan(vnode_table, self.num_buckets, _VNODE_SCAN)
        if self.bcopy_every and self.ticks_run % self.bcopy_every == 0:
            klib.bcopy(self.scratch_src, self.scratch_dst, 160, _NET_SOFTINTR)
        self.ticks_run += 1
