"""Kernel routines: assembly sources and native fast-path equivalents.

The data-movement plane of the simulated kernel is written here in the
mini-ISA:

* ``bcopy`` / ``bzero`` — the kernel copy/zero primitives.  The paper's
  *copy overrun* fault targets exactly ``bcopy``.
* ``cache_copy`` — the file cache write path: loads the destination buffer
  address out of a buffer *header in kernel heap memory* (so heap bit flips
  genuinely redirect stores), performs magic-number and bounds sanity
  checks (``panic #21``/``#22``), spills and reloads registers on the
  kernel stack (so stack bit flips genuinely corrupt pointers and return
  addresses), then copies.
* ``checksum_block`` — a quadword additive checksum.
* ``sched_tick`` / ``vnode_scan`` — background kernel activity: linked-list
  and hash-chain walks with consistency checks (``panic #31``/``#33``).
  These run constantly between workload operations, giving injected faults
  the large "generic kernel code" target surface they have on a real
  system, where most faults crash the machine without going anywhere near
  the file cache.

Each native registered via :func:`build_kernel_text` leaves the same
memory, raises the same panics and returns the same step count as its
assembly, so a run behaves identically whether a routine executes natively
(pristine text) or on the interpreter (corrupted text) — only host speed
differs.  The walkers issue the assembly's bus traffic word for word and
stop at its watchdog; the copies issue one ranged load and one ranged
store, count their steps in closed form and ignore the step budget: their
longest, a page plus an overrun, is some 12 000 of a call's 500 000
steps.  ``bzero`` and ``checksum_block`` have no native: no kernel path
calls them, so they are text the faults land in and the interpreter
runs, nothing more.
"""

from __future__ import annotations

import struct

from repro.errors import KernelPanic, SystemCrash
from repro.hw.bus import AccessContext, MemoryBus
from repro.isa.interpreter import PANIC_MESSAGES, watchdog
from repro.isa.text import KernelText

CACHE_HDR_MAGIC = 0x7B0F
PROC_MAGIC = 0x50C5
VNODE_MAGIC = 0x7A0D

#: Buffer header layout used by ``cache_copy`` (offsets in bytes).
HDR_MAGIC_OFF = 0
HDR_DST_OFF = 8
HDR_SIZE_OFF = 16
HDR_FLAGS_OFF = 24
HDR_BYTES = 32

ROUTINE_SOURCES: dict[str, str] = {
    "bcopy": """
        ; bcopy(a0=src, a1=dst, a2=len) -> v0 = bytes copied
        bis   a2, zero, v0
        lda   t0, 8(zero)
    qloop:
        cmpult a2, t0, t1
        bne   t1, tail
        ldq   t2, 0(a0)
        stq   t2, 0(a1)
        lda   a0, 8(a0)
        lda   a1, 8(a1)
        lda   a2, -8(a2)
        br    qloop
    tail:
        beq   a2, done
        ldb   t2, 0(a0)
        stb   t2, 0(a1)
        lda   a0, 1(a0)
        lda   a1, 1(a1)
        lda   a2, -1(a2)
        br    tail
    done:
        ret
    """,
    "bzero": """
        ; bzero(a0=dst, a1=len) -> v0 = bytes zeroed
        bis   a1, zero, v0
        lda   t0, 8(zero)
    qloop:
        cmpult a1, t0, t1
        bne   t1, tail
        stq   zero, 0(a0)
        lda   a0, 8(a0)
        lda   a1, -8(a1)
        br    qloop
    tail:
        beq   a1, done
        stb   zero, 0(a0)
        lda   a0, 1(a0)
        lda   a1, -1(a1)
        br    tail
    done:
        ret
    """,
    "cache_copy": """
        ; cache_copy(a0=hdr, a1=src, a2=off, a3=len) -> v0 = len
        ; hdr: [0]=magic, [8]=dst base, [16]=buffer size, [24]=flags
        lda   sp, -32(sp)
        stq   ra, 0(sp)
        stq   a0, 8(sp)
        stq   a1, 16(sp)
        ldq   t0, 0(a0)
        lda   t1, 0x7B0F(zero)
        cmpeq t0, t1, t2
        bne   t2, magic_ok
        panic #21
    magic_ok:
        ldq   a0, 8(sp)
        ldq   t3, 8(a0)
        ldq   t4, 16(a0)
        addq  a2, a3, t5
        cmpule t5, t4, t6
        bne   t6, size_ok
        panic #22
    size_ok:
        bis   a3, zero, v0
        addq  t3, a2, t7
        ldq   a1, 16(sp)
        lda   t0, 8(zero)
    qloop:
        cmpult a3, t0, t1
        bne   t1, tail
        ldq   t2, 0(a1)
        stq   t2, 0(t7)
        lda   a1, 8(a1)
        lda   t7, 8(t7)
        lda   a3, -8(a3)
        br    qloop
    tail:
        beq   a3, done
        ldb   t2, 0(a1)
        stb   t2, 0(t7)
        lda   a1, 1(a1)
        lda   t7, 1(t7)
        lda   a3, -1(a3)
        br    tail
    done:
        ldq   ra, 0(sp)
        lda   sp, 32(sp)
        ret
    """,
    "checksum_block": """
        ; checksum_block(a0=addr, a1=len) -> v0 = sum of quadwords
        bis   zero, zero, v0
        lda   t0, 8(zero)
    loop:
        cmpult a1, t0, t1
        bne   t1, done
        ldq   t2, 0(a0)
        addq  v0, t2, v0
        lda   a0, 8(a0)
        lda   a1, -8(a1)
        br    loop
    done:
        ret
    """,
    "sched_tick": """
        ; sched_tick(a0=&head): walk run queue, bump tick counters
        ; proc: [0]=magic, [8]=next, [16]=ticks
        ldq   t5, 0(a0)
        lda   t1, 0x50C5(zero)
    loop:
        beq   t5, done
        ldq   t0, 0(t5)
        cmpeq t0, t1, t2
        bne   t2, ok
        panic #31
    ok:
        ldq   t3, 16(t5)
        lda   t3, 1(t3)
        stq   t3, 16(t5)
        ldq   t5, 8(t5)
        br    loop
    done:
        ret
    """,
    "vnode_scan": """
        ; vnode_scan(a0=table, a1=nbuckets): walk vnode hash chains
        ; vnode: [0]=magic, [8]=next, [16]=refcnt
        bis   a0, zero, s0
        bis   a1, zero, s1
        lda   t1, 0x7A0D(zero)
    bucket_loop:
        beq   s1, done
        ldq   t5, 0(s0)
    chain:
        beq   t5, next_bucket
        ldq   t0, 0(t5)
        cmpeq t0, t1, t2
        bne   t2, chain_ok
        panic #33
    chain_ok:
        ldq   t3, 16(t5)
        lda   t3, 1(t3)
        stq   t3, 16(t5)
        ldq   t5, 8(t5)
        br    chain
    next_bucket:
        lda   s0, 8(s0)
        lda   s1, -1(s1)
        br    bucket_loop
    done:
        ret
    """,
}

MASK64 = (1 << 64) - 1


# -- native fast paths -------------------------------------------------------
#
# Each returns ``(value, steps)``.  A copy's steps are the assembly's fixed
# instructions (the sentinel ``halt`` among them), 8 per quadword and 7
# per tail byte.


def _native_bcopy(
    bus: MemoryBus, args: list[int], ctx: AccessContext, budget: int
) -> tuple[int, int]:
    src, dst, length = args[0], args[1], args[2]
    if length:
        bus.store(dst, bus.load(src, length, ctx), ctx)
    return length, 7 + 8 * (length // 8) + 7 * (length % 8)


def _native_cache_copy(
    bus: MemoryBus, args: list[int], ctx: AccessContext, budget: int
) -> tuple[int, int]:
    hdr, src, off, length = args[0], args[1], args[2], args[3]
    magic = bus.load_u64(hdr + HDR_MAGIC_OFF, ctx)
    if magic != CACHE_HDR_MAGIC:
        raise KernelPanic(PANIC_MESSAGES[21], code=21)
    dst_base = bus.load_u64(hdr + HDR_DST_OFF, ctx)
    size = bus.load_u64(hdr + HDR_SIZE_OFF, ctx)
    if (off + length) & MASK64 > size:
        raise KernelPanic(PANIC_MESSAGES[22], code=22)
    if length:
        bus.store((dst_base + off) & MASK64, bus.load(src, length, ctx), ctx)
    return length, 25 + 8 * (length // 8) + 7 * (length % 8)


# The two walkers are one loop: ``sched_tick`` is ``vnode_scan`` over a
# one-slot table with its own magic, panic and instruction layout.  The
# walk makes one bus call per word in the assembly's order and counts its
# instructions against the call's step budget, so a chain a fault bent
# into a cycle ends in the interpreter's watchdog after the same accesses,
# and a walk that ends returns the count the kernel is charged.
#
# A walk repeats itself: its only effect is one more on each counter.  So
# a clean walk on a flat bus whose slots and nodes are aligned words of
# one page, no counter doubling as another counter or as a word the walk
# follows, leaves a plan (:class:`_WalkPlan`) on the bus, and the next
# call for the same slot replays it while the page still holds the bytes
# the plan recorded (:func:`_run_chains`): the walk reads nothing else,
# so on whichever frame the page maps to now it would do the same.  The
# walk's first two probes of that page — a load at the first slot, a
# store at the first node's counter — are the replay's, which then adds 1
# to every counter lane at once.  Anything else, a changed byte, a
# counter about to wrap, runs the walk, which records afresh.

_U64 = struct.Struct("<Q")
_NODE_BYTES = 24  # magic, next, counter

#: ``(routine, magic, panic code, lead, follow, tail)``: the instructions
#: the assembly executes before each head-word load, after it, and after
#: the last chain's closing branch (``ret`` and the sentinel ``halt``).
_SCHED_TICK = ("sched_tick", PROC_MAGIC, 31, 0, 1, 2)
_VNODE_SCAN = ("vnode_scan", VNODE_MAGIC, 33, 4, 0, 6)


class _WalkPlan:
    """The known effect of a clean walk over one page.

    ``image`` is ``frame[lo:hi]`` as the walk left it (``value`` the same
    bytes as a little-endian int), ``lanes`` holds a 1 in every counter's
    lane and ``headroom`` counts the replays before some counter wraps.
    """

    __slots__ = (
        "magic", "nslots", "steps", "lo", "hi", "image", "value", "lanes",
        "headroom", "store_at", "first_loads", "counts",
    )


def _record_plan(bus, slot, nslots, magic, nodes, steps) -> None:
    """Leave the plan of the walk that just ran clean, or drop the old one."""
    page_size = bus.memory.page_size
    base = slot - slot % page_size
    counters = {node + 16 for node in nodes}
    followed = {slot + 8 * i for i in range(nslots)} | set(nodes)
    followed |= {node + 8 for node in nodes}
    if (
        not bus.flat
        or not nodes
        or slot % 8
        or slot + 8 * nslots > base + page_size
        or any(node % 8 or not base <= node <= base + page_size - _NODE_BYTES for node in nodes)
        or len(counters) < len(nodes)
        or not counters.isdisjoint(followed)
    ):
        bus.walk_plans.pop(slot, None)
        return
    frame = bus.load_frame(slot)  # the walk loaded this word: a TLB hit
    lo = min(slot, min(nodes)) - base
    hi = max(slot + 8 * nslots, max(nodes) + _NODE_BYTES) - base
    plan = _WalkPlan()
    plan.magic, plan.nslots, plan.steps, plan.lo, plan.hi = magic, nslots, steps, lo, hi
    plan.image = bytes(frame[lo:hi])
    plan.value = int.from_bytes(plan.image, "little")
    plan.lanes = sum(1 << 8 * (counter - base - lo) for counter in counters)
    plan.headroom = min(MASK64 - _U64.unpack_from(frame, c - base)[0] for c in counters)
    plan.store_at = nodes[0] + 16
    # The head words up to the first full one, then that node's magic and
    # counter: what the walk had issued when it stored for the first time.
    first = next(i for i in range(nslots) if _U64.unpack_from(frame, slot - base + 8 * i)[0])
    plan.first_loads = first + 3
    loads, stores = nslots + 3 * len(nodes), len(nodes)
    plan.counts = (loads, stores, 8 * loads, 8 * stores)
    bus.walk_plans[slot] = plan


def _visit_words(bus, node, magic, code, ctx, room, routine, budget) -> int:
    """Check and bump one node, one bus call per word; returns ``next``.

    ``room`` is what is left of the budget at the node's loop test: its
    instructions load the magic 2nd, panic or load the counter 5th,
    store 7th and load ``next`` 8th, of 9."""
    if room < 2:
        raise watchdog(routine, budget)
    node_magic = bus.load_u64(node, ctx)
    if room < 5:
        raise watchdog(routine, budget)
    if node_magic != magic:
        raise KernelPanic(PANIC_MESSAGES[code], code=code)
    count = bus.load_u64(node + 16, ctx)
    if room < 7:
        raise watchdog(routine, budget)
    bus.store_u64(node + 16, count + 1, ctx)
    if room < 8:
        raise watchdog(routine, budget)
    return bus.load_u64(node + 8, ctx)


def _walk_chains(bus, slot, nslots, walker, ctx, budget) -> int:
    """Walk the chain hanging off each of ``nslots`` head words at ``slot``;
    returns the steps the assembly executes, and a clean run leaves its
    plan (:func:`_record_plan`)."""
    routine, magic, code, lead, follow, tail = walker
    steps = 0
    nodes = []
    for head in range(slot, slot + 8 * nslots, 8):
        steps += lead + 1
        if steps > budget:
            raise watchdog(routine, budget)
        node = bus.load_u64(head, ctx)
        steps += follow
        while node:
            nodes.append(node)
            node = _visit_words(bus, node, magic, code, ctx, budget - steps, routine, budget)
            steps += 9
        steps += 1  # the loop test that finds the chain's end
    steps += tail
    if steps > budget:
        raise watchdog(routine, budget)
    _record_plan(bus, slot, nslots, magic, nodes, steps)
    return steps


def _run_chains(bus, slot, nslots, walker, ctx, budget) -> int:
    """:func:`_walk_chains`, or the replay of the plan its last clean run
    at ``slot`` left, while that plan still holds."""
    plan = bus.walk_plans.get(slot)
    if (
        plan is None or plan.magic != walker[1] or plan.nslots != nslots or not plan.headroom
        or plan.steps > budget or not bus.flat or bus.crashed
    ):
        return _walk_chains(bus, slot, nslots, walker, ctx, budget)
    try:
        frame = bus.load_frame(slot)
    except SystemCrash:
        bus.settle(1, 0, 8, 0)  # the first head word
        raise
    lo, hi = plan.lo, plan.hi
    if frame[lo:hi] != plan.image:
        return _walk_chains(bus, slot, nslots, walker, ctx, budget)
    try:
        bus.store_frame(plan.store_at)
    except SystemCrash:
        loads = plan.first_loads
        bus.settle(loads, 1, 8 * loads, 8)
        raise
    plan.value = value = plan.value + plan.lanes
    plan.image = frame[lo:hi] = value.to_bytes(hi - lo, "little")
    plan.headroom -= 1
    bus.settle(*plan.counts)
    return plan.steps


def _native_sched_tick(
    bus: MemoryBus, args: list[int], ctx: AccessContext, budget: int
) -> tuple[int, int]:
    return 0, _run_chains(bus, args[0], 1, _SCHED_TICK, ctx, budget)


def _native_vnode_scan(
    bus: MemoryBus, args: list[int], ctx: AccessContext, budget: int
) -> tuple[int, int]:
    return 0, _run_chains(bus, args[0], args[1], _VNODE_SCAN, ctx, budget)


def build_kernel_text(transform=None) -> KernelText:
    """Assemble the kernel routine set and register the native fast paths.

    With a ``transform`` (e.g. the code patcher) the text is rewritten and
    **no natives are registered**: rewritten text must actually execute on
    the interpreter — that is the point of patching it — and the native
    equivalents would neither run the inserted checks nor charge their
    cost.
    """
    text = KernelText(ROUTINE_SOURCES, transform=transform)
    if transform is not None:
        return text
    text.register_native("bcopy", _native_bcopy)
    text.register_native("cache_copy", _native_cache_copy)
    text.register_native("sched_tick", _native_sched_tick)
    text.register_native("vnode_scan", _native_vnode_scan)
    return text
