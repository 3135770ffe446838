"""RioGuard: wires the registry, protection and shadow paging into the
page caches via the :class:`~repro.fs.cache.CacheGuard` interface.

Per cache event:

* **attach** — allocate a registry slot, record (physical address, file
  id, offset, size, disk block), protect the page.
* **begin write** — open a protection window.  For metadata pages with
  shadowing on, copy the page to a shadow frame and atomically point the
  registry entry at the shadow (the pre-image), so a crash mid-update
  recovers a consistent version (section 2.3).  For data pages, set the
  CHANGING flag — blocks being modified at crash time "cannot be
  identified as corrupt or intact by the checksum mechanism".
* **end write** — bring the detection checksum up to date, point the
  registry back at the (now updated) original, clear CHANGING, close the
  window.
* **dirty / placement changes** — keep the registry entry current.  "Registry
  information changes relatively infrequently during normal operation, so
  the overhead of maintaining it is low."

The detection checksum costs what the write touched
-----------------------------------------------------

Fletcher-32 is linear in the words it covers, so after a write to a known
range the page's checksum can be *adjusted* from the old and the new
content of that range (:func:`~repro.util.checksum.fletcher32_adjust`) —
bit-identical to checksumming the page again.  The guard does so only
when the lowest layer proves the range is all that changed:

* at ``begin_write`` the frame's write generation still equals the one
  recorded when ``page.checksum`` was last computed — nothing touched the
  frame since, so the stored checksum is the pre-image's — and the range
  is at most half a page (two partial passes must beat one full pass);
  the guard then sums the pre-image range and *watches* the frame
  (:meth:`~repro.hw.memory.PhysicalMemory.watch`);
* at ``end_write`` the generation moved exactly as often as the frame
  accounted a ranged mutation, and their extent lies inside the range.
  The new sums are read from the frame as it is now, never from the
  caller's data.

Anything else — a wild store, a flipped bit, an overrun, a copy sent
astray by a corrupted header pointer, a word-by-word interpreted copy, a
fill — fails one of those tests and takes the full recompute, which
absorbs the foreign bytes exactly as it always did.
"""

from __future__ import annotations

from repro.core.config import RioConfig
from repro.core.protection import ProtectionManager
from repro.core.registry import (
    FLAG_CHANGING,
    FLAG_DIRTY,
    FLAG_META,
    FLAG_VALID,
    Registry,
    RegistryEntry,
)
from repro.errors import ConfigurationError
from repro.fs.cache import CacheGuard, CachePage
from repro.fs.types import BLOCK_SIZE
from repro.util.checksum import fletcher32_adjust, fletcher_sums


class RioGuard(CacheGuard):
    """The guard installed on both caches of a Rio system."""

    def __init__(self, kernel, registry: Registry, protection: ProtectionManager, config: RioConfig) -> None:
        self.kernel = kernel
        self.registry = registry
        self.protection = protection
        self.config = config
        #: page key -> shadow_pfn for in-flight shadowed metadata writes.
        self._shadows: dict[tuple, int] = {}
        #: page key -> the page whose protection window is open.
        self._open_windows: dict[tuple, CachePage] = {}
        #: page key -> ``(watch record, generation, lo, hi, pre-image
        #: sums)`` of an open window whose checksum can be adjusted.
        self._adjustable: dict[tuple, tuple] = {}
        self._recorder = kernel.recorder

    # -- helpers ----------------------------------------------------------

    def _page_size(self) -> int:
        return self.kernel.page_size

    def _entry_for(self, page: CachePage) -> RegistryEntry:
        flags = FLAG_VALID
        if page.dirty:
            flags |= FLAG_DIRTY
        if page.kind == "meta":
            flags |= FLAG_META
        return RegistryEntry(
            slot=page.registry_slot,
            phys_addr=page.pfn * self._page_size(),
            dev=page.dev,
            ino=page.file_id.ino if page.file_id else 0,
            file_offset=page.file_offset,
            size=self._page_size(),
            flags=flags,
            disk_block=page.disk_block,
            checksum=page.checksum,
        )

    def _page_checksum(self, page: CachePage) -> int:
        return self.kernel.memory.page_checksum(page.pfn)

    def _watch_range(self, page: CachePage, offset: int, length: int) -> None:
        """If the write of ``[offset, offset + length)`` about to begin
        qualifies (module docstring), sum the range's pre-image and start
        accounting the frame's mutations."""
        memory = self.kernel.memory
        pfn, page_size = page.pfn, memory.page_size
        generation = memory.generation(pfn)
        if 2 * length > page_size or generation != page.checksum_gen:
            # Not left to a window that never reached ``end_write``.
            self._adjustable.pop(page.key, None)
            return
        lo = offset & ~1  # widened to whole 16-bit words, inside the page
        hi = min(page_size, (offset + length + 1) & ~1)
        pre = fletcher_sums(memory.frame(pfn)[lo:hi])
        self._adjustable[page.key] = (memory.watch(pfn), generation, lo, hi, pre)

    def _update_checksum(self, page: CachePage) -> None:
        """Make ``page.checksum`` that of the frame as it is now: adjusted
        when the accounting of an open window proves that only the
        announced range changed, recomputed in full otherwise."""
        memory = self.kernel.memory
        pfn = page.pfn
        memory.unwatch(pfn)
        now = memory.generation(pfn)
        window = self._adjustable.pop(page.key, None)
        if window is not None:
            (mutations, first, last), generation, lo, hi, pre = window
            if now - generation != mutations or first < lo or last > hi:
                window = None  # (an empty extent, ``(page_size, 0)``, passes)
        if window is None:
            page.checksum = self._page_checksum(page)
        else:
            page.checksum = fletcher32_adjust(
                page.checksum,
                (memory.page_size + 1) >> 1,
                lo >> 1,
                pre,
                fletcher_sums(memory.frame(pfn)[lo:hi]),
            )
        page.checksum_gen = now

    # -- CacheGuard interface ------------------------------------------------

    def on_attach(self, page: CachePage) -> None:
        page.registry_slot = self.registry.alloc_slot()
        if self.config.maintain_checksums:
            self._update_checksum(page)  # no window yet: a full pass
        self.registry.write_entry(self._entry_for(page))
        self.protection.protect_page(page)

    def on_detach(self, page: CachePage) -> None:
        if page.registry_slot is None:
            raise ConfigurationError("detach of unregistered page")
        self.registry.free_slot(page.registry_slot)
        page.registry_slot = None
        self.protection.unprotect_page(page)

    def begin_write(self, page: CachePage, offset: int = 0, length: int = BLOCK_SIZE) -> None:
        self.protection.open_page_window(page)
        self._open_windows[page.key] = page
        if page.kind == "meta" and self.config.shadow_metadata:
            # Shadow page: preserve the pre-image and point the registry
            # at it for the duration of the update.
            shadow_pfn = self.kernel.frames.alloc()
            page_size = self._page_size()
            memory = self.kernel.memory
            memory.write(shadow_pfn * page_size, memory.frame(page.pfn))
            self._shadows[page.key] = shadow_pfn
            rec = self._recorder
            if rec.enabled:
                rec.emit(
                    "shadow", "begin-write",
                    page=str(page.key), shadow_pfn=shadow_pfn, pfn=page.pfn,
                )
            self.registry.update_fields(
                page.registry_slot, phys_addr=shadow_pfn * page_size
            )
        else:
            self.registry.update_flags(page.registry_slot, set_flags=FLAG_CHANGING)
        if self.config.maintain_checksums:
            # Last, so the watch sees the caller's stores and not the
            # registry's (which go to other frames anyway).
            self._watch_range(page, offset, length)

    def end_write(self, page: CachePage) -> None:
        if self.config.maintain_checksums:
            self._update_checksum(page)
        rec = self._recorder
        if rec.enabled:
            # The page-content checksum is engine-independent and is what
            # lets forensics see *data* divergence at page granularity.
            rec.emit(
                "shadow", "end-write",
                page=str(page.key),
                shadowed=page.key in self._shadows,
                checksum=page.checksum,
            )
        shadow_pfn = self._shadows.pop(page.key, None)
        if shadow_pfn is not None:
            # Atomically point the registry back at the updated original.
            self.registry.update_fields(
                page.registry_slot,
                phys_addr=page.pfn * self._page_size(),
                checksum=page.checksum,
            )
            self.kernel.frames.free(shadow_pfn)
        else:
            self.registry.update_fields(page.registry_slot, checksum=page.checksum)
            self.registry.update_flags(page.registry_slot, clear_flags=FLAG_CHANGING)
        opened = self._open_windows.pop(page.key, None)
        if opened is not None:
            self.protection.close_page_window(opened)

    def on_dirty_changed(self, page: CachePage) -> None:
        if page.registry_slot is None:
            return
        if page.dirty:
            self.registry.update_flags(page.registry_slot, set_flags=FLAG_DIRTY)
        else:
            self.registry.update_flags(page.registry_slot, clear_flags=FLAG_DIRTY)

    def on_placement_changed(self, page: CachePage) -> None:
        if page.registry_slot is None:
            return
        self.registry.update_fields(
            page.registry_slot,
            dev=page.dev,
            ino=page.file_id.ino if page.file_id else 0,
            file_offset=page.file_offset,
            disk_block=page.disk_block,
        )
