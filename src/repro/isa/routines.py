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
* ``checksum_block`` — quadword additive checksum used for registry
  auditing.
* ``sched_tick`` / ``vnode_scan`` — background kernel activity: linked-list
  and hash-chain walks with consistency checks (``panic #31``/``#33``).
  These run constantly between workload operations, giving injected faults
  the large "generic kernel code" target surface they have on a real
  system, where most faults crash the machine without going anywhere near
  the file cache.

Each native registered via :func:`build_kernel_text` issues the same bus
traffic as its assembly and raises the same panics, so a run behaves
identically whether a routine executes natively (pristine text) or on the
interpreter (corrupted text) — only speed differs.
"""

from __future__ import annotations

import struct

from repro.errors import KernelPanic
from repro.hw.bus import AccessContext, MemoryBus
from repro.isa.interpreter import PANIC_MESSAGES
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


def _native_bcopy(bus: MemoryBus, args: list[int], ctx: AccessContext) -> int:
    src, dst, length = args[0], args[1], args[2]
    if length:
        bus.store(dst, bus.load(src, length, ctx), ctx)
    return length


def _bcopy_steps(args: list[int]) -> int:
    length = args[2]
    return 6 + 8 * (length // 8) + 7 * (length % 8)


def _bcopy_stores(args: list[int]) -> int:
    length = args[2]
    return length // 8 + length % 8


def _native_bzero(bus: MemoryBus, args: list[int], ctx: AccessContext) -> int:
    dst, length = args[0], args[1]
    if length:
        bus.store(dst, b"\x00" * length, ctx)
    return length


def _bzero_steps(args: list[int]) -> int:
    length = args[1]
    return 6 + 6 * (length // 8) + 6 * (length % 8)


def _bzero_stores(args: list[int]) -> int:
    length = args[1]
    return length // 8 + length % 8


def _native_cache_copy(bus: MemoryBus, args: list[int], ctx: AccessContext) -> int:
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
    return length


def _cache_copy_steps(args: list[int]) -> int:
    length = args[3]
    return 20 + 8 * (length // 8) + 7 * (length % 8)


def _cache_copy_stores(args: list[int]) -> int:
    length = args[3]
    # The register spills in the prologue are stores too.
    return 3 + length // 8 + length % 8


def _native_checksum_block(bus: MemoryBus, args: list[int], ctx: AccessContext) -> int:
    addr, length = args[0], args[1]
    data = bus.load(addr, length - length % 8, ctx) if length >= 8 else b""
    total = 0
    for i in range(0, len(data), 8):
        total = (total + int.from_bytes(data[i : i + 8], "little")) & MASK64
    return total


def _checksum_steps(args: list[int]) -> int:
    return 4 + 6 * (args[1] // 8)


# The two walkers are one loop: ``sched_tick`` is ``vnode_scan`` over a
# one-slot table with its own magic and panic.  While the bus is ``flat``
# the loop is a *counted word run*: it takes pages from the bus's page
# port, reads a node with one unpack and bumps its counter with one
# ``pack_into`` on the frame, counts every access at the program point
# where the assembly issues it (so a MachineCheck, ProtectionTrap or panic
# leaves the counts of the word-by-word walk: the faulting access counted,
# nothing after it) and settles the totals on the way out.  The page port
# is asked about the faulting word's own address, so each trap is
# ``MMU.translate``'s own.  The one frame the run holds on to is the page
# it last stored to — allocated, so it is the live frame for loads too,
# and known writable until the run ends; a page it has only read is
# fetched again per access, because a store may yet allocate the frame
# behind a zero page.  One bus call per word — :func:`_visit_words` and
# ``bus.load_u64`` — remains the route when the bus is not flat (tracing,
# a store checker, ``fast_path=False``) or is down, and for a head slot or
# a node that straddles a page.

_U64 = struct.Struct("<Q")
_NODE = struct.Struct("<QQQ")  # magic, next, counter


def _visit_words(bus: MemoryBus, node: int, magic: int, code: int, ctx: AccessContext) -> int:
    """Check and bump one node, one bus call per word; returns ``next``."""
    if bus.load_u64(node, ctx) != magic:
        raise KernelPanic(PANIC_MESSAGES[code], code=code)
    bus.store_u64(node + 16, bus.load_u64(node + 16, ctx) + 1, ctx)
    return bus.load_u64(node + 8, ctx)


def _walk_chains(
    bus: MemoryBus, slot: int, nslots: int, magic: int, code: int, ctx: AccessContext
) -> int:
    """Walk the chain hanging off each of ``nslots`` head words at ``slot``."""
    # On a downed machine the first access goes to the bus, which raises.
    flat = bus.flat and not bus.crashed
    load_frame, store_frame = bus.load_frame, bus.store_frame
    unpack_node, pack_word = _NODE.unpack_from, _U64.pack_into
    page_size = bus.memory.page_size
    word_room = page_size - 8
    node_room = page_size - _NODE.size
    held_base = -1  # virtual base of the page last stored to, and its frame
    held = None
    loads = stores = 0
    try:
        for _ in range(nslots):
            off = slot % page_size
            if flat and off <= word_room:
                loads += 1
                node = _U64.unpack_from(load_frame(slot), off)[0]
            else:
                node = bus.load_u64(slot, ctx)
            while node:
                off = node % page_size
                if flat and off <= node_room:
                    stored_here = node - off == held_base
                    loads += 1  # ldq magic
                    frame = held if stored_here else load_frame(node)
                    node_magic, nxt, count = unpack_node(frame, off)
                    if node_magic != magic:
                        raise KernelPanic(PANIC_MESSAGES[code], code=code)
                    loads += 1  # ldq counter
                    stores += 1  # stq counter
                    if not stored_here:
                        held = frame = store_frame(node + 16)
                        held_base = node - off
                    pack_word(frame, off + 16, (count + 1) & MASK64)
                    loads += 1  # ldq next
                    node = nxt
                else:
                    node = _visit_words(bus, node, magic, code, ctx)
            slot += 8
    finally:
        if loads:
            bus.settle(loads, stores, 8 * loads, 8 * stores)
    return 0


def _native_sched_tick(bus: MemoryBus, args: list[int], ctx: AccessContext) -> int:
    return _walk_chains(bus, args[0], 1, PROC_MAGIC, 31, ctx)


def _native_vnode_scan(bus: MemoryBus, args: list[int], ctx: AccessContext) -> int:
    return _walk_chains(bus, args[0], args[1], VNODE_MAGIC, 33, ctx)


def _const_steps(value: int):
    return lambda args: value


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
    text.register_native("bcopy", _native_bcopy, _bcopy_steps, _bcopy_stores)
    text.register_native("bzero", _native_bzero, _bzero_steps, _bzero_stores)
    text.register_native(
        "cache_copy", _native_cache_copy, _cache_copy_steps, _cache_copy_stores
    )
    text.register_native(
        "checksum_block", _native_checksum_block, _checksum_steps, _const_steps(0)
    )
    text.register_native(
        "sched_tick", _native_sched_tick, _const_steps(120), _const_steps(16)
    )
    text.register_native(
        "vnode_scan", _native_vnode_scan, _const_steps(400), _const_steps(32)
    )
    return text
