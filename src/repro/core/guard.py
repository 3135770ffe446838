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
* **end write** — recompute the detection checksum, point the registry
  back at the (now updated) original, clear CHANGING, close the window.
* **dirty / placement changes** — keep the registry entry current.  "Registry
  information changes relatively infrequently during normal operation, so
  the overhead of maintaining it is low."
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
from repro.util.checksum import fletcher32


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
        return fletcher32(
            self.kernel.memory.read(page.pfn * self._page_size(), self._page_size())
        )

    # -- CacheGuard interface ------------------------------------------------

    def on_attach(self, page: CachePage) -> None:
        page.registry_slot = self.registry.alloc_slot()
        if self.config.maintain_checksums:
            page.checksum = self._page_checksum(page)
        self.registry.write_entry(self._entry_for(page))
        self.protection.protect_page(page)

    def on_detach(self, page: CachePage) -> None:
        if page.registry_slot is None:
            raise ConfigurationError("detach of unregistered page")
        self.registry.free_slot(page.registry_slot)
        page.registry_slot = None
        self.protection.unprotect_page(page)

    def _recorder(self):
        rec = getattr(self.kernel, "recorder", None)
        return rec if rec is not None and rec.enabled else None

    def begin_write(self, page: CachePage) -> None:
        self.protection.open_page_window(page)
        self._open_windows[page.key] = page
        if page.kind == "meta" and self.config.shadow_metadata:
            # Shadow page: preserve the pre-image and point the registry
            # at it for the duration of the update.
            shadow_pfn = self.kernel.frames.alloc()
            page_size = self._page_size()
            pre_image = self.kernel.memory.read(page.pfn * page_size, page_size)
            self.kernel.memory.write(shadow_pfn * page_size, pre_image)
            self._shadows[page.key] = shadow_pfn
            rec = self._recorder()
            if rec is not None:
                rec.emit(
                    "shadow", "begin-write",
                    page=str(page.key), shadow_pfn=shadow_pfn, pfn=page.pfn,
                )
            self.registry.update_fields(
                page.registry_slot, phys_addr=shadow_pfn * page_size
            )
        else:
            self.registry.update_flags(page.registry_slot, set_flags=FLAG_CHANGING)

    def end_write(self, page: CachePage) -> None:
        if self.config.maintain_checksums:
            page.checksum = self._page_checksum(page)
        rec = self._recorder()
        if rec is not None:
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
