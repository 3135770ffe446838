"""RioGuard: wires the registry, protection and shadow paging into the
page caches via the :class:`~repro.fs.cache.CacheGuard` interface.

Per cache event, one registry call (:meth:`Registry.update`) and only
the bookkeeping something reads:

* **attach** — allocate a registry slot, record (physical address, file
  id, offset, size, disk block), protect the page.
* **begin write** — open a protection window.  For metadata pages with
  shadowing on, copy the page to a shadow frame and atomically point the
  registry entry at the shadow (the pre-image), so a crash mid-update
  recovers a consistent version (section 2.3).  For data pages, with
  detection checksums on, set the CHANGING flag — blocks being modified
  at crash time "cannot be identified as corrupt or intact by the
  checksum mechanism".
* **end write** — point the registry back at the (now updated)
  original; with detection checksums on, bring the checksum up to date
  and clear CHANGING (two stores, one batch); close the window.
* **dirty / placement changes** — keep the registry entry current.  "Registry
  information changes relatively infrequently during normal operation, so
  the overhead of maintaining it is low."

CHANGING and the stored checksum have one reader, the warm reboot's
checksum audit, which runs only when checksums are maintained
(``System.reboot``); with them off the guard stores neither, and a data
page's write costs the registry nothing.

The detection checksum costs what the write touched
-----------------------------------------------------

Fletcher-32 is linear in the words it covers, so after a write to a known
range the page's checksum can be *adjusted* from the old and the new
content of that range (:func:`~repro.util.checksum.fletcher32_adjust`) —
bit-identical to checksumming the page again.  The guard does so only
when the lowest layer proves the range is all that changed:

* at ``begin_write`` the frame's checksum is known at its current write
  generation (:meth:`~repro.hw.memory.PhysicalMemory.known_checksum`:
  nothing touched the frame since it was recorded, so it is the
  pre-image's) and the range is at most half a page (two partial passes
  must beat one full pass); the guard then sums the pre-image range and
  *watches* the frame (:meth:`~repro.hw.memory.PhysicalMemory.watch`);
* at ``end_write`` the generation moved exactly as often as the frame
  accounted a ranged mutation, and their extent lies inside the range.
  The new sums are read from the frame as it is now, never from the
  caller's data.

Anything else — a wild store, a flipped bit, an overrun, a copy sent
astray by a corrupted header pointer, a word-by-word interpreted copy, a
fill — fails one of those tests and takes the full recompute, which
absorbs the foreign bytes exactly as it always did.  Either way the
result is recorded as the frame's known checksum, which is what an
attach of a recycled frame and the shadow copy of a metadata page reuse.
"""

from __future__ import annotations

from repro.core.config import RioConfig
from repro.core.protection import ProtectionManager
from repro.core.registry import (
    FLAG_CHANGING,
    FLAG_DIRTY,
    FLAG_META,
    FLAG_VALID,
    NO_CHANGES,
    Registry,
    RegistryEntry,
)
from repro.errors import ConfigurationError
from repro.fs.cache import CacheGuard, CachePage
from repro.fs.types import BLOCK_SIZE
from repro.util.checksum import fletcher32_adjust, fletcher_sums

#: The one-edit batches of the flag-only callbacks (:meth:`Registry.update`).
_SET_CHANGING = ((FLAG_CHANGING, 0, NO_CHANGES),)
_SET_DIRTY = ((FLAG_DIRTY, 0, NO_CHANGES),)
_CLEAR_DIRTY = ((0, FLAG_DIRTY, NO_CHANGES),)


class RioGuard(CacheGuard):
    """The guard installed on both caches of a Rio system."""

    def __init__(self, kernel, registry: Registry, protection: ProtectionManager, config: RioConfig) -> None:
        self.kernel = kernel
        self.registry = registry
        self.protection = protection
        self.config = config
        #: page key -> shadow_pfn for in-flight shadowed metadata writes.
        self._shadows: dict[tuple, int] = {}
        #: page key -> ``(watch record, generation, lo, hi, pre-image
        #: sums)`` of an open window whose checksum can be adjusted.
        self._adjustable: dict[tuple, tuple] = {}
        self._recorder = kernel.recorder
        self._page_size = kernel.page_size
        self._checksums = config.maintain_checksums

    # -- helpers ----------------------------------------------------------

    def _entry_for(self, page: CachePage) -> RegistryEntry:
        flags = FLAG_VALID
        if page.dirty:
            flags |= FLAG_DIRTY
        if page.kind == "meta":
            flags |= FLAG_META
        return RegistryEntry(
            slot=page.registry_slot,
            phys_addr=page.pfn * self._page_size,
            dev=page.dev,
            ino=page.file_id.ino if page.file_id else 0,
            file_offset=page.file_offset,
            size=self._page_size,
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
        checksum = memory.known_checksum(pfn)
        if 2 * length > page_size or checksum is None:
            # Not left to a window that never reached ``end_write``.
            self._adjustable.pop(page.key, None)
            return
        lo = offset & ~1  # widened to whole 16-bit words, inside the page
        hi = min(page_size, (offset + length + 1) & ~1)
        pre = fletcher_sums(memory.frame(pfn)[lo:hi])
        self._adjustable[page.key] = (
            memory.watch(pfn), memory.generation(pfn), lo, hi, pre, checksum
        )

    def _update_checksum(self, page: CachePage) -> None:
        """Make ``page.checksum`` that of the frame as it is now: adjusted
        when the accounting of an open window proves that only the
        announced range changed, else the frame's known checksum or a
        full recompute."""
        memory = self.kernel.memory
        pfn = page.pfn
        memory.unwatch(pfn)
        window = self._adjustable.pop(page.key, None)
        if window is not None:
            (mutations, first, last), generation, lo, hi, pre, checksum = window
            if memory.generation(pfn) - generation != mutations or first < lo or last > hi:
                window = None  # (an empty extent, ``(page_size, 0)``, passes)
        if window is None:
            page.checksum = self._page_checksum(page)
        else:
            page.checksum = fletcher32_adjust(
                checksum,
                (memory.page_size + 1) >> 1,
                lo >> 1,
                pre,
                fletcher_sums(memory.frame(pfn)[lo:hi]),
            )
            memory.record_checksum(pfn, page.checksum)

    # -- CacheGuard interface ------------------------------------------------

    def on_attach(self, page: CachePage) -> None:
        page.registry_slot = self.registry.alloc_slot()
        if self._checksums:
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
        if page.kind == "meta" and self.config.shadow_metadata:
            # Shadow page: preserve the pre-image and point the registry
            # at it for the duration of the update.
            shadow_pfn = self.kernel.frames.alloc()
            self.kernel.memory.copy_frame(page.pfn, shadow_pfn)
            self._shadows[page.key] = shadow_pfn
            rec = self._recorder
            if rec.enabled:
                rec.emit(
                    "shadow", "begin-write",
                    page=str(page.key), shadow_pfn=shadow_pfn, pfn=page.pfn,
                )
            self.registry.update(
                page.registry_slot, ((0, 0, {"phys_addr": shadow_pfn * self._page_size}),)
            )
        elif self._checksums:
            self.registry.update(page.registry_slot, _SET_CHANGING)
        if self._checksums:
            # Last, so the watch sees the caller's stores and not the
            # registry's (which go to other frames anyway).
            self._watch_range(page, offset, length)

    def end_write(self, page: CachePage) -> None:
        if self._checksums:
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
            changes = {"phys_addr": page.pfn * self._page_size}
            if self._checksums:
                changes["checksum"] = page.checksum
            self.registry.update(page.registry_slot, ((0, 0, changes),))
            self.kernel.frames.free(shadow_pfn)
        elif self._checksums:
            self.registry.update(
                page.registry_slot,
                ((0, 0, {"checksum": page.checksum}), (0, FLAG_CHANGING, NO_CHANGES)),
            )
        self.protection.close_page_window(page)

    def on_dirty_changed(self, page: CachePage) -> None:
        if page.registry_slot is None:
            return
        self.registry.update(page.registry_slot, _SET_DIRTY if page.dirty else _CLEAR_DIRTY)

    def on_placement_changed(self, page: CachePage) -> None:
        if page.registry_slot is None:
            return
        placement = {
            "dev": page.dev,
            "ino": page.file_id.ino if page.file_id else 0,
            "file_offset": page.file_offset,
            "disk_block": page.disk_block,
        }
        self.registry.update(page.registry_slot, ((0, 0, placement),))
