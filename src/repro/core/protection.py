"""Protection of the file cache against wild kernel stores (section 2.1).

Three modes:

* ``NONE`` — every method is a no-op ("Rio without protection").
* ``VM_KSEG`` — buffer cache pages are write-protected through their page
  table entries; UBC pages (physically addressed) are protected by setting
  the ABOX control bit so *all* KSEG accesses map through the TLB, then
  write-protecting the KSEG entries.  "Disabling KSEG addresses in this
  manner adds essentially no overhead."
* ``CODE_PATCHING`` — for CPUs that cannot force physical addresses
  through the TLB: the kernel text is rewritten at install time with an
  address check in front of every store (see
  :mod:`repro.isa.analysis.patch`) and executes on the interpreter, at a
  cost of a few extra instructions per store (measured at 20-50% overall
  slowdown in the paper).  The inline check guards the *fixed* protected
  region — the registry frames sequestered at the top of physical memory;
  pages whose protection toggles dynamically (cache pages inside write
  windows) are enforced by the bus store-checker, standing in for the
  patched kernel's protected-page table lookup.

In every mode, legitimate file cache writes happen inside *windows*: the
page is made writable, written, and re-protected.  "The only time a file
cache page is vulnerable to an unauthorized store is while it is being
written, and disks have the same vulnerability."
"""

from __future__ import annotations

from repro.core.config import ProtectionMode, RioConfig
from repro.errors import ProtectionTrap
from repro.fs.cache import CachePage
from repro.hw.bus import AccessContext, KERNEL_CONTEXT
from repro.hw.mmu import KSEG_BASE
from repro.isa.analysis.patch import CodePatcher, RoutinePatchReport
from repro.isa.routines import build_kernel_text


class ProtectionManager:
    """Applies and lifts write protection over file cache pages."""

    def __init__(self, kernel, config: RioConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.mode = config.protection
        #: Every registry frame (protected at install, opened whole by
        #: ``Registry.format``).
        self._registry_pfns: tuple[int, ...] = ()
        #: The machine's flight recorder (fixed per kernel).
        self._recorder = kernel.recorder
        # Code-patching bookkeeping: which pages are currently protected.
        self._patched_vpns: set[int] = set()
        self._patched_pfns: set[int] = set()
        #: Per-routine reports from the binary rewriting pass.
        self.patch_reports: dict[str, RoutinePatchReport] = {}
        #: The inline checks' threshold: lowest KSEG address of the
        #: sequestered registry region.
        self.patch_threshold: int | None = None
        self.stat_windows = 0
        self.stat_patch_traps = 0

    # -- installation ----------------------------------------------------

    def install(self, registry_pfns: list[int]) -> None:
        """Engage the mechanism on the booted kernel."""
        self._registry_pfns = tuple(registry_pfns)
        rec = self._recorder
        if rec.enabled:
            rec.emit("prot", "install", mode=self.mode.name, registry_pfns=len(registry_pfns))
        if self.mode is ProtectionMode.NONE:
            return
        if self.mode is ProtectionMode.VM_KSEG:
            # The ABOX control-register bit: map KSEG through the TLB.
            self.kernel.mmu.kseg_through_tlb = True
        else:
            self._install_code_patching()
        self._set_frames_protected(self._registry_pfns, True)

    def _install_code_patching(self) -> None:
        """Rewrite the kernel text with inline store checks.

        Rebuilds the text image through the binary patcher (so every
        routine thereafter executes on the interpreter — there are no
        natives for patched text), publishes the protection threshold in
        a descriptor quadword the interpreter hands to each call in
        ``gp``, and keeps the bus store-checker for the dynamically
        protected cache pages.
        """
        kernel = self.kernel
        patcher = CodePatcher()
        kernel.install_kernel_text(build_kernel_text(transform=patcher))
        self.patch_reports = patcher.reports
        self.patch_threshold = (
            KSEG_BASE + min(self._registry_pfns) * kernel.page_size
        )
        descriptor = kernel.heap.kmalloc(8)
        kernel.bus.store_u64(descriptor, self.patch_threshold, KERNEL_CONTEXT)
        kernel.interp.global_pointer = descriptor
        kernel.bus.store_checker = self._check_store

    # -- primitive protection toggles ---------------------------------------

    def _set_pfn_protected(self, pfn: int, protected: bool) -> None:
        if self.mode is ProtectionMode.VM_KSEG:
            self.kernel.mmu.set_kseg_writable(pfn, not protected)
        elif self.mode is ProtectionMode.CODE_PATCHING:
            (self._patched_pfns.add if protected else self._patched_pfns.discard)(pfn)

    def _set_vpn_protected(self, vpn: int, protected: bool) -> None:
        if self.mode is ProtectionMode.VM_KSEG:
            self.kernel.mmu.set_writable(vpn, not protected)
        elif self.mode is ProtectionMode.CODE_PATCHING:
            (self._patched_vpns.add if protected else self._patched_vpns.discard)(vpn)

    def _set_page_protected(self, page: CachePage, protected: bool) -> None:
        if self.mode is ProtectionMode.NONE:
            return
        if page.kind == "data":
            self._set_pfn_protected(page.pfn, protected)
        else:
            self._set_vpn_protected(page.vaddr // self.kernel.page_size, protected)

    # -- public interface used by the guard ------------------------------------

    def protect_page(self, page: CachePage) -> None:
        self._set_page_protected(page, True)

    def unprotect_page(self, page: CachePage) -> None:
        self._set_page_protected(page, False)

    # -- write windows ----------------------------------------------------
    #
    # A window is an ``open_*`` call, the legitimate stores, then the
    # matching ``close_*`` call.  Deliberately *not* exception-safe: if
    # the system crashes while a window is open, ``close_*`` never runs
    # and the page stays writable — the same vulnerability a disk sector
    # being written at crash time has.

    def open_page_window(self, page: CachePage) -> None:
        """Open a write window over one cache page."""
        self.stat_windows += 1
        rec = self._recorder
        if rec.enabled:
            rec.emit("prot", "page-window", page=str(page.key), kind=page.kind)
        self.unprotect_page(page)

    def close_page_window(self, page: CachePage) -> None:
        """Close the window :meth:`open_page_window` opened over ``page``."""
        self.protect_page(page)

    def open_registry_window(self, pfns=None) -> None:
        """Open a write window over the registry frames ``pfns`` — the one
        or two an entry store touches; every registry frame when omitted
        (``Registry.format``, once per boot).  The others stay protected."""
        self.stat_windows += 1
        rec = self._recorder
        if rec.enabled:
            rec.emit("prot", "registry-window")
        self._set_frames_protected(self._registry_pfns if pfns is None else pfns, False)

    def close_registry_window(self, pfns=None) -> None:
        """Re-protect the frames :meth:`open_registry_window` opened."""
        self._set_frames_protected(self._registry_pfns if pfns is None else pfns, True)

    def _set_frames_protected(self, pfns, protected: bool) -> None:
        if self.mode is ProtectionMode.VM_KSEG:
            self.kernel.mmu.set_kseg_writable_run(pfns, not protected)
        elif self.mode is ProtectionMode.CODE_PATCHING:
            if protected:
                self._patched_pfns.update(pfns)
            else:
                self._patched_pfns.difference_update(pfns)

    # -- the code-patching store checker -------------------------------------------

    def _check_store(self, vaddr: int, length: int, ctx: AccessContext) -> None:
        """The check compiled in front of every kernel store: is the target
        inside the file cache (or registry) without a window open?"""
        page_size = self.kernel.page_size
        if vaddr >= KSEG_BASE:
            paddr = vaddr - KSEG_BASE
            first = paddr // page_size
            last = (paddr + max(length, 1) - 1) // page_size
            for pfn in range(first, last + 1):
                if pfn in self._patched_pfns:
                    self.stat_patch_traps += 1
                    rec = self._recorder
                    if rec.enabled:
                        rec.emit("trap", "patch", pfn=pfn, address=vaddr)
                    raise ProtectionTrap(
                        f"code patch: store to protected frame {pfn}", address=vaddr
                    )
        else:
            first = vaddr // page_size
            last = (vaddr + max(length, 1) - 1) // page_size
            for vpn in range(first, last + 1):
                if vpn in self._patched_vpns:
                    self.stat_patch_traps += 1
                    rec = self._recorder
                    if rec.enabled:
                        rec.emit("trap", "patch", vpn=vpn, address=vaddr)
                    raise ProtectionTrap(
                        f"code patch: store to protected page {vpn}", address=vaddr
                    )
