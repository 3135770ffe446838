"""RioFileCache: assembles registry + protection + guard onto a kernel."""

from __future__ import annotations

from repro.core.config import RioConfig
from repro.core.guard import RioGuard
from repro.core.protection import ProtectionManager
from repro.core.registry import Registry
from repro.errors import ConfigurationError


class RioFileCache:
    """The reliable-file-cache machinery for one booted kernel.

    Usage::

        kernel = Kernel(machine)
        rio = RioFileCache(kernel, RioConfig.with_protection())
        kernel.init_caches(guard=rio.guard)

    A non-Rio (disk-based) system simply skips this object and boots with
    the null guard.
    """

    def __init__(self, kernel, config: RioConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config or RioConfig()
        frames = kernel.registry_frames
        if not frames:
            raise ConfigurationError("kernel reserved no registry frames")
        # The reserved frames are contiguous at the top of memory.
        base_paddr = frames[0] * kernel.page_size
        region_bytes = len(frames) * kernel.page_size
        self.protection = ProtectionManager(kernel, self.config)
        self.registry = Registry(
            kernel.bus,
            base_paddr,
            region_bytes,
            protection=self.protection,
        )
        self.guard = RioGuard(kernel, self.registry, self.protection, self.config)
        self.registry.format()
        self.protection.install(frames)
        kernel.reliability_writes_off = self.config.reliability_writes_off
        if self.config.reliability_writes_off:
            # "we modify the panic procedure to avoid writing dirty data
            # back to disk before a crash" (section 2.3).
            kernel.config.panic_syncs_dirty = False
