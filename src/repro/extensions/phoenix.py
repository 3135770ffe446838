"""A Phoenix-style checkpointing in-memory file system cache [Gait90].

Section 6: "Phoenix keeps two versions of an in-memory file system.  One
of these versions is kept write-protected; the other version is
unprotected and evolves from the write-protected one via copy-on-write.
At periodic checkpoints, the system write-protects the unprotected
version and deletes obsolete pages in the original version.  Rio differs
from Phoenix in two major ways: 1) Phoenix does not ensure the
reliability of every write; instead, writes are only made permanent at
periodic checkpoints; 2) Phoenix keeps multiple copies of modified pages,
while Rio keeps only one copy."

This implementation rides on the Rio machinery so the two designs differ
*only* in the contrast the paper draws:

* the registry entry for each buffer points at the page's state as of the
  last **checkpoint** (a protected snapshot frame), not its live state;
* pages that never made it into a checkpoint are marked clean in the
  registry, so the warm reboot does not restore them — writes since the
  last checkpoint die with the crash;
* every modified page occupies two frames (live + snapshot) between
  checkpoints — the memory cost Rio avoids.
"""

from __future__ import annotations

from repro.core.config import ProtectionMode, RioConfig
from repro.core.guard import RioGuard
from repro.core.protection import ProtectionManager
from repro.core.registry import FLAG_DIRTY, Registry
from repro.fs.cache import CachePage


class PhoenixGuard(RioGuard):
    """Like RioGuard, but registry state reflects the last checkpoint."""

    def __init__(self, kernel, registry, protection, config, cache_ref) -> None:
        super().__init__(kernel, registry, protection, config)
        self._phoenix = cache_ref

    def on_attach(self, page: CachePage) -> None:
        super().on_attach(page)
        # Until a checkpoint captures this page, a crash must not restore
        # it: only checkpointed state is permanent.
        self.registry.update_flags(page.registry_slot, clear_flags=FLAG_DIRTY)

    def on_dirty_changed(self, page: CachePage) -> None:
        # The registry's dirty flag tracks *checkpoint* state, not live
        # state; checkpoints manage it.
        pass

    def on_detach(self, page: CachePage) -> None:
        self._phoenix.release_snapshot(page.key)
        super().on_detach(page)


class PhoenixFileCache:
    """The Phoenix counterpart to :class:`~repro.core.rio.RioFileCache`.

    Usage::

        kernel = Kernel(machine)
        phoenix = PhoenixFileCache(kernel)
        kernel.init_caches(guard=phoenix.guard)
        ...
        phoenix.checkpoint()     # called periodically (or from a daemon)
    """

    def __init__(self, kernel, config: RioConfig | None = None) -> None:
        self.kernel = kernel
        # Phoenix protects the *snapshot* version; the live version is
        # unprotected by design.
        self.config = config or RioConfig(
            protection=ProtectionMode.NONE,
            maintain_checksums=False,
            shadow_metadata=False,
        )
        frames = kernel.registry_frames
        base_paddr = frames[0] * kernel.page_size
        self.protection = ProtectionManager(kernel, self.config)
        self.registry = Registry(
            kernel.bus,
            base_paddr,
            len(frames) * kernel.page_size,
            protection=self.protection,
        )
        self.guard = PhoenixGuard(kernel, self.registry, self.protection, self.config, self)
        self.registry.format()
        self.protection.install(frames)
        kernel.reliability_writes_off = True
        kernel.config.panic_syncs_dirty = False
        #: page key -> snapshot pfn (the write-protected version).
        self._snapshots: dict[tuple, int] = {}
        self.checkpoints_taken = 0

    # -- checkpointing --------------------------------------------------

    def release_snapshot(self, key: tuple) -> None:
        pfn = self._snapshots.pop(key, None)
        if pfn is not None:
            self.kernel.frames.free(pfn)

    def checkpoint(self) -> int:
        """Capture the current state of every cached page into protected
        snapshot frames; returns the number of pages captured."""
        kernel = self.kernel
        page_size = kernel.page_size
        captured = 0
        for cache in (kernel.buffer_cache, kernel.ubc):
            if cache is None:
                continue
            for page in cache.pages.values():
                old = self._snapshots.get(page.key)
                snap = kernel.frames.alloc()
                kernel.memory.write(
                    snap * page_size,
                    kernel.memory.read(page.pfn * page_size, page_size),
                )
                self._snapshots[page.key] = snap
                if old is not None:
                    kernel.frames.free(old)  # "deletes obsolete pages"
                set_flags = FLAG_DIRTY if page.dirty else 0
                self.registry.update_fields(
                    page.registry_slot, phys_addr=snap * page_size
                )
                if set_flags:
                    self.registry.update_flags(page.registry_slot, set_flags=set_flags)
                else:
                    self.registry.update_flags(
                        page.registry_slot, clear_flags=FLAG_DIRTY
                    )
                captured += 1
        self.checkpoints_taken += 1
        return captured

    # -- accounting --------------------------------------------------------

    @property
    def snapshot_frames(self) -> int:
        """Extra frames Phoenix holds that Rio would not ("multiple copies
        of modified pages")."""
        return len(self._snapshots)
