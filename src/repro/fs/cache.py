"""The page cache layer: buffer cache (metadata) and UBC (file data).

Mirrors Digital Unix as described in section 2: metadata blocks live in
the **buffer cache**, in wired kernel virtual memory mapped through the
page table; regular file data lives in the **UBC**, in physical pages
addressed through KSEG.  The distinction is load-bearing for Rio: page
table protection alone covers the buffer cache, but protecting the UBC
requires forcing KSEG through the TLB.

Every cached page owns a 32-byte *buffer header* in the kernel heap
(magic, destination address, size) — real bytes that the write path reads
before every copy, so heap corruption redirects or panics real writes.

A pluggable :class:`CacheGuard` observes attach/detach and brackets every
write.  The null guard (non-Rio systems) does nothing; Rio's guard (in
:mod:`repro.core`) opens/closes protection windows, maintains the registry
entry (address, file id, offset, size, dirty, disk block) and the
detection checksums.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigurationError, KernelPanic, NoSpace, OutOfMemory
from repro.fs.types import BLOCK_SIZE, FileId, SECTORS_PER_BLOCK
from repro.hw.bus import AccessContext
from repro.util.checksum import fletcher32
from repro.isa.routines import (
    CACHE_HDR_MAGIC,
    HDR_BYTES,
    HDR_DST_OFF,
    HDR_MAGIC_OFF,
    HDR_SIZE_OFF,
)

#: Access context for I/O-path stores (fills from disk).  Indirect
#: corruption — an I/O procedure called with wrong parameters — flows
#: through here and is *not* stopped by Rio's protection (section 3.2).
IO_CONTEXT = AccessContext(procedure="io", is_io_path=True)


@dataclass
class CachePage:
    """One cached 8 KB page (a metadata block or a file data page)."""

    key: tuple
    kind: str  # "meta" | "data"
    dev: int
    pfn: int
    vaddr: int
    hdr_addr: int
    dirty: bool = False
    file_id: Optional[FileId] = None
    file_offset: int = 0
    #: Disk block this page belongs at (None until known/allocated).
    disk_block: Optional[int] = None
    pin_count: int = 0
    write_generation: int = 0
    registry_slot: Optional[int] = None
    #: Metadata class ("super" | "bitmap" | "inode" | "dir" | "indirect" |
    #: "journal"); policies use it to decide which updates are synchronous.
    meta_class: Optional[str] = None
    #: Byte ranges written since the journal last saw this page; AdvFS
    #: logs these extents rather than whole 8 KB images.
    journal_extents: list = field(default_factory=list)
    #: Populated by the guard when checksums are maintained: the frame's
    #: detection checksum, and the frame's write generation
    #: (``PhysicalMemory.generation``) when it was computed — equal
    #: generations mean ``checksum`` is still that of the frame's content.
    checksum: int = 0
    checksum_gen: int = -1

    def pin(self) -> None:
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise ConfigurationError("unpin of unpinned page")
        self.pin_count -= 1


class CacheGuard:
    """Null guard: no protection, no registry, no checksums."""

    def on_attach(self, page: CachePage) -> None:
        pass

    def on_detach(self, page: CachePage) -> None:
        pass

    def begin_write(self, page: CachePage, offset: int = 0, length: int = BLOCK_SIZE) -> None:
        """A write of ``[offset, offset + length)`` of the page (default:
        all of it) is about to happen."""

    def end_write(self, page: CachePage) -> None:
        pass

    def on_dirty_changed(self, page: CachePage) -> None:
        pass

    def on_placement_changed(self, page: CachePage) -> None:
        """File id / offset / disk block of the page changed."""


class PageCache:
    """Base class for the two caches; subclasses differ in addressing."""

    kind = "meta"

    def __init__(self, kernel, capacity: int, guard: CacheGuard | None = None) -> None:
        self.kernel = kernel
        self.capacity = capacity
        self.guard = guard or CacheGuard()
        self.pages: "OrderedDict[tuple, CachePage]" = OrderedDict()
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_evictions = 0
        self.stat_flushes = 0
        #: Clustered eviction write-back sweeps (see :meth:`_clean_cluster`).
        self.stat_clean_sweeps = 0
        self._recorder = kernel.recorder

    # -- subclass hooks ---------------------------------------------------

    def _acquire_vaddr(self, pfn: int) -> int:
        raise NotImplementedError

    def _release_vaddr(self, page: CachePage) -> None:
        raise NotImplementedError

    # -- lookup / attach ------------------------------------------------------

    def lookup(self, key: tuple) -> Optional[CachePage]:
        page = self.pages.get(key)
        if page is not None:
            self.pages.move_to_end(key)
        return page

    def get(
        self,
        key: tuple,
        *,
        loader: Optional[Callable[[CachePage], None]] = None,
        file_id: Optional[FileId] = None,
        file_offset: int = 0,
        disk_block: Optional[int] = None,
    ) -> CachePage:
        """Return the cached page for ``key``, attaching (and optionally
        loading) it on a miss."""
        page = self.lookup(key)
        if page is not None:
            self.stat_hits += 1
            return page
        self.stat_misses += 1
        chaos = self.kernel.chaos
        if (
            chaos is not None
            and not self.kernel.locks.any_held()
            and chaos.should_fail("fail_alloc")
        ):
            # Denied before any state changes: no frame, no header, no
            # cache entry — the request fails cleanly with ENOMEM.  Only
            # outside lock sections: an exception unwinding through a
            # held kernel lock leaks it (a crash path), and a critical
            # section's page grant comes from a reserved pool anyway.
            raise OutOfMemory("chaos: page grant denied")
        self._make_room()
        kernel = self.kernel
        pfn = kernel.frames.alloc()
        vaddr = self._acquire_vaddr(pfn)
        hdr = kernel.heap.kmalloc(HDR_BYTES)
        ctx = AccessContext(procedure="cache_attach")
        kernel.bus.store_u64(hdr + HDR_MAGIC_OFF, CACHE_HDR_MAGIC, ctx)
        kernel.bus.store_u64(hdr + HDR_DST_OFF, vaddr, ctx)
        kernel.bus.store_u64(hdr + HDR_SIZE_OFF, BLOCK_SIZE, ctx)
        page = CachePage(
            key=key,
            kind=self.kind,
            dev=key[1],
            pfn=pfn,
            vaddr=vaddr,
            hdr_addr=hdr,
            file_id=file_id,
            file_offset=file_offset,
            disk_block=disk_block,
        )
        self.pages[key] = page
        self.guard.on_attach(page)
        if loader is not None:
            loader(page)
        else:
            self.fill(page, b"\x00" * BLOCK_SIZE)
        return page

    #: Fraction of capacity cleaned in one clustered eviction sweep.
    EVICT_CLUSTER_FRACTION = 8

    def _make_room(self) -> None:
        while len(self.pages) >= self.capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        """Evict the least-recently-used unpinned page.

        When the victim is dirty, a clustered cleaning sweep
        (:meth:`_clean_cluster`) first writes a batch of LRU dirty pages
        back in ascending disk-block order — one elevator pass and one
        completion wait instead of a full seek-plus-rotation stall per
        evicted page.  The victim is part of that batch, so it is clean
        (on the platter) before it is dropped, and the next evictions in
        LRU order hit already-cleaned pages for free: sustained overflow
        costs an amortized fraction of a batched write per eviction
        rather than a synchronous disk write each (the superlinear term
        that collapsed the 64-client file service).
        """
        victim = None
        for page in self.pages.values():
            if page.pin_count == 0:
                victim = page
                break
        if victim is None:
            raise NoSpace("all cache pages pinned")
        if victim.dirty:
            self._clean_cluster()
        self.drop(victim)
        self.stat_evictions += 1

    def _clean_cluster(self) -> None:
        """Write back a batch of LRU dirty pages and wait once.

        Flushes up to ``capacity // EVICT_CLUSTER_FRACTION`` unpinned
        dirty pages asynchronously in ascending disk-block order (an
        elevator pass: consecutive blocks coalesce into near-sequential
        transfers), then advances the clock to the last write's
        completion so every flushed page is on the platter — and marked
        clean — before any of them may be dropped.  Durability across a
        crash is preserved: a page leaves memory only after its disk
        copy is safe.
        """
        budget = max(1, self.capacity // self.EVICT_CLUSTER_FRACTION)
        cluster = []
        for page in self.pages.values():
            if page.pin_count == 0 and page.dirty:
                if page.disk_block is None:
                    # No placement: fall through to the strict sync path
                    # so the misconfiguration surfaces exactly as before.
                    self.flush_page(page, sync=True)
                    return
                cluster.append(page)
                if len(cluster) >= budget:
                    break
        if not cluster:
            raise NoSpace("all cache pages pinned")
        self.stat_clean_sweeps += 1
        last_by_dev: dict[int, object] = {}
        for page in sorted(cluster, key=lambda p: (p.dev, p.disk_block)):
            request = self.flush_page(page, sync=False)
            if request is not None:
                last_by_dev[page.dev] = request
        if last_by_dev:
            done_ns = max(r.completion_ns for r in last_by_dev.values())
            self.kernel.clock.advance_to(done_ns)  # retires the writes

    def drop(self, page: CachePage) -> None:
        """Detach a page without writing it anywhere."""
        self.guard.on_detach(page)
        self.pages.pop(page.key, None)
        self._release_vaddr(page)
        self.kernel.heap.kfree(page.hdr_addr)
        self.kernel.frames.free(page.pfn)

    # -- reading / writing -------------------------------------------------------

    def read(self, page: CachePage, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > BLOCK_SIZE:
            raise ConfigurationError("cache read out of page bounds")
        return self.kernel.bus.load(page.vaddr + offset, length, IO_CONTEXT)

    def _header_dst(self, page: CachePage, ctx: AccessContext) -> int:
        """Read the destination pointer from the in-heap buffer header,
        with the magic sanity check a real kernel would apply."""
        magic = self.kernel.bus.load_u64(page.hdr_addr + HDR_MAGIC_OFF, ctx)
        if magic != CACHE_HDR_MAGIC:
            raise KernelPanic("buffer header magic corrupted")
        return self.kernel.bus.load_u64(page.hdr_addr + HDR_DST_OFF, ctx)

    def write_into(
        self,
        page: CachePage,
        offset: int,
        data: bytes,
        ctx: AccessContext = IO_CONTEXT,
    ) -> None:
        """Copy ``data`` into the page through the kernel data plane."""
        if offset < 0 or offset + len(data) > BLOCK_SIZE:
            raise ConfigurationError("cache write out of page bounds")
        if not data:
            return
        kernel = self.kernel
        rec = self._recorder
        if rec.enabled:
            rec.emit(
                "cache", "write",
                page=str(page.key), kind=self.kind,
                offset=offset, length=len(data),
            )
        staging = kernel.stage_data(data)
        # No try/finally here on purpose: if the system crashes mid-copy,
        # the protection window stays open and the registry CHANGING flag
        # (or shadow redirection) stays set — exactly the crash-time state
        # the warm reboot and the checksum detector must see.
        self.guard.begin_write(page, offset, len(data))
        if self.kind == "data":
            # UBC path: uiomove/copyin — plain bcopy to the address
            # read out of the buffer header (overrun hook applies).
            dst = self._header_dst(page, ctx)
            kernel.klib.bcopy(staging, dst + offset, len(data), ctx)
        else:
            # Metadata path: bounds-checked copy through the header.
            kernel.klib.cache_copy(page.hdr_addr, staging, offset, len(data), ctx)
        self.guard.end_write(page)
        page.write_generation += 1
        page.journal_extents.append((offset, len(data)))
        self.set_dirty(page, True)

    def fill(self, page: CachePage, data: bytes) -> None:
        """Bulk-fill a page (from disk or zeroes) via the authorized path;
        leaves the page clean."""
        if len(data) != BLOCK_SIZE:
            raise ConfigurationError("fill requires a whole page")
        rec = self._recorder
        if rec.enabled:
            rec.emit("cache", "fill", page=str(page.key), kind=self.kind)
        self.guard.begin_write(page)
        self.kernel.bus.store(page.vaddr, data, IO_CONTEXT)
        self.guard.end_write(page)
        page.journal_extents.clear()  # a full (re)load supersedes deltas

    def set_dirty(self, page: CachePage, dirty: bool) -> None:
        if page.dirty != dirty:
            page.dirty = dirty
            self.guard.on_dirty_changed(page)

    def set_placement(
        self,
        page: CachePage,
        *,
        file_id: Optional[FileId] = None,
        file_offset: Optional[int] = None,
        disk_block: Optional[int] = None,
    ) -> None:
        if file_id is not None:
            page.file_id = file_id
        if file_offset is not None:
            page.file_offset = file_offset
        if disk_block is not None:
            page.disk_block = disk_block
        self.guard.on_placement_changed(page)

    # -- write-back ------------------------------------------------------------

    def flush_page(self, page: CachePage, *, sync: bool):
        """Write a dirty page to its disk block; returns the disk request.

        The transfer reads physical memory directly (DMA does not go
        through the CPU's TLB), so this is also the path by which
        *indirect* corruption — wrong parameters handed to an I/O routine —
        reaches the disk despite any protection.
        """
        if not page.dirty:
            return None
        if page.disk_block is None:
            raise ConfigurationError(f"page {page.key} has no disk placement")
        kernel = self.kernel
        disk = kernel.block_device(page.dev)
        data = kernel.memory.read(page.pfn * BLOCK_SIZE, BLOCK_SIZE)
        generation = page.write_generation
        self.stat_flushes += 1
        rec = self._recorder
        if rec.enabled:
            # The content checksum makes corrupted flushes visible in the
            # event stream without shipping page images around.
            rec.emit(
                "wb", "flush",
                page=str(page.key), block=page.disk_block,
                sync=sync, checksum=fletcher32(data),
            )

        def on_complete(_request) -> None:
            live = self.pages.get(page.key)
            if live is page and page.write_generation == generation:
                self.set_dirty(page, False)

        request = disk.write(
            page.disk_block * SECTORS_PER_BLOCK,
            data,
            sync=sync,
            on_complete=on_complete,
        )
        # The flush boundary is the upload boundary: a tiered backing
        # store (see repro.backend.tiered) queues the block for remote
        # upload the moment its local write is issued.  The disk poked
        # the new content synchronously above, so an upload triggered
        # here reads exactly what this flush wrote.
        backing = kernel.backing
        if backing is not None and backing.disk is disk:
            backing.note_flush(page.disk_block)
        return request

    def dirty_pages(self) -> list[CachePage]:
        return [p for p in self.pages.values() if p.dirty]

    def flush_all(self, *, sync: bool) -> int:
        """Flush every dirty page; returns the number of flushes issued."""
        dirty = self.dirty_pages()
        for page in dirty:
            self.flush_page(page, sync=sync)
        return len(dirty)

    def invalidate_file(self, file_id: FileId) -> None:
        """Drop every page belonging to a (deleted) file."""
        for page in [p for p in self.pages.values() if p.file_id == file_id]:
            self.drop(page)


class BufferCache(PageCache):
    """Metadata cache in wired kernel virtual memory (mapped pages)."""

    kind = "meta"

    def __init__(self, kernel, capacity: int, base_vaddr: int, guard=None) -> None:
        super().__init__(kernel, capacity, guard)
        self.base_vaddr = base_vaddr
        self._free_slots = list(range(capacity - 1, -1, -1))

    def _acquire_vaddr(self, pfn: int) -> int:
        if not self._free_slots:
            raise NoSpace("buffer cache slots exhausted")
        slot = self._free_slots.pop()
        vaddr = self.base_vaddr + slot * BLOCK_SIZE
        self.kernel.mmu.map(vaddr // BLOCK_SIZE, pfn, writable=True)
        return vaddr

    def _release_vaddr(self, page: CachePage) -> None:
        vpn = page.vaddr // BLOCK_SIZE
        self.kernel.mmu.unmap(vpn)
        self._free_slots.append((page.vaddr - self.base_vaddr) // BLOCK_SIZE)


class UnifiedBufferCache(PageCache):
    """File data cache in physical pages, addressed through KSEG.

    "To conserve TLB slots, the UBC is not mapped into the kernel's
    virtual address space; instead it is accessed using physical
    addresses." — section 2.  This is why plain page-table protection
    cannot cover it.
    """

    kind = "data"

    def _acquire_vaddr(self, pfn: int) -> int:
        return self.kernel.mmu.kseg_address(pfn * BLOCK_SIZE)

    def _release_vaddr(self, page: CachePage) -> None:
        # Nothing mapped; but stale KSEG protection must not leak to the
        # frame's next owner.
        self.kernel.mmu.set_kseg_writable(page.pfn, True)
