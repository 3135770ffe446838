"""MMU: page-table protection and the Alpha KSEG physical-address window.

Two properties of the DEC Alpha drive Rio's protection design (section 2.1)
and both are modelled here:

1. **Page-table write protection.**  Turning off the write-permission bit
   for file cache pages makes unauthorized stores trap.  File cache
   procedures briefly re-enable the bit around legitimate writes.

2. **KSEG bypass and the ABOX control bit.**  Addresses in a dedicated
   window (top bits ``10`` on the Alpha; here everything at or above
   :data:`KSEG_BASE`) map directly to physical memory *bypassing the TLB* —
   and the bulk of the file cache (the UBC) is accessed exactly this way.
   Setting a bit in the ABOX CPU control register forces KSEG accesses
   through the TLB so they too can be write-protected.  The
   :attr:`MMU.kseg_through_tlb` flag models that bit.

A third mode, *code patching*, for CPUs that cannot force KSEG through the
TLB, is implemented at the bus/interpreter level (see
:mod:`repro.core.protection`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineCheck, ProtectionTrap
from repro.hw.memory import PhysicalMemory

#: Base virtual address of the KSEG window.  ``KSEG_BASE + p`` addresses
#: physical byte ``p``.  Chosen huge so random corrupted pointers almost
#: never land inside it — mirroring the paper's observation that on a
#: 64-bit machine most wild addresses are simply illegal.
KSEG_BASE = 1 << 42


@dataclass
class PageTableEntry:
    """A (simplified) PTE: frame number plus validity and writability."""

    pfn: int
    valid: bool = True
    writable: bool = True


class MMU:
    """Translates virtual addresses and enforces write protection.

    Two translation structures exist:

    * ``_page_table`` maps *mapped kernel virtual* page numbers to PTEs —
      this is where the buffer cache (metadata) lives, in wired virtual
      memory, as on Digital Unix.
    * ``_kseg_writable`` tracks per-frame write permission for the KSEG
      window.  It is consulted **only** when :attr:`kseg_through_tlb` is
      set; otherwise KSEG stores bypass protection entirely, which is
      exactly the vulnerability Rio's ABOX trick closes.
    """

    def __init__(self, memory: PhysicalMemory) -> None:
        self.memory = memory
        self.page_size = memory.page_size
        self._num_pages = memory.num_pages
        self._page_table: dict[int, PageTableEntry] = {}
        self._kseg_writable: dict[int, bool] = {}
        self._kseg_through_tlb = False
        #: Flight recorder hook (attached by :class:`repro.hw.Machine`);
        #: traps and protection toggles are emitted from here so both
        #: execution engines — whose misses all funnel through
        #: :meth:`translate` — produce identical event streams.
        self.recorder = None
        #: Translation generation: bumped by anything that can change the
        #: outcome of :meth:`translate` (``map``/``unmap``, writability
        #: toggles, the ABOX bit).  The interpreter keys its predecoded
        #: text pages on this counter.
        self.generation = 0
        #: The soft TLB the memory bus probes, one table per access kind:
        #: ``virtual page base -> pfn`` of translations that succeeded.
        #: The tables live here because only the MMU knows what a mutation
        #: can change, and each mutator drops exactly that: a page that
        #: stops being writable loses its store entry, ``map``/``unmap``
        #: drop the page's two entries, the ABOX flip empties both tables.
        #: Gaining write permission drops nothing — a non-writable page
        #: never had a store entry — and no writability change can alter
        #: a load translation or another page's store translation.
        self.tlb_loads: dict[int, int] = {}
        self.tlb_stores: dict[int, int] = {}
        #: Counts of protection-relevant events, for the evaluation.
        self.stat_protection_traps = 0
        self.stat_pte_toggles = 0

    @property
    def kseg_through_tlb(self) -> bool:
        """The ABOX control bit: force KSEG accesses through the TLB."""
        return self._kseg_through_tlb

    @kseg_through_tlb.setter
    def kseg_through_tlb(self, value: bool) -> None:
        value = bool(value)
        if value != self._kseg_through_tlb:
            self._kseg_through_tlb = value
            self.generation += 1
            self.tlb_loads.clear()
            self.tlb_stores.clear()
            rec = self.recorder
            if rec is not None and rec.enabled:
                rec.emit("mmu", "kseg-tlb", enabled=value)

    # -- mapping management --------------------------------------------

    def map(self, vpn: int, pfn: int, writable: bool = True) -> None:
        """Install a PTE for a kernel virtual page."""
        if not 0 <= pfn < self.memory.num_pages:
            raise MachineCheck(f"mapping to nonexistent frame {pfn}")
        self._page_table[vpn] = PageTableEntry(pfn=pfn, writable=writable)
        self.generation += 1
        self._tlb_drop(vpn)

    def unmap(self, vpn: int) -> None:
        """Drop a PTE (subsequent accesses machine-check)."""
        if self._page_table.pop(vpn, None) is not None:
            self.generation += 1
            self._tlb_drop(vpn)

    def _tlb_drop(self, vpn: int) -> None:
        vbase = vpn * self.page_size
        self.tlb_loads.pop(vbase, None)
        self.tlb_stores.pop(vbase, None)

    def set_writable(self, vpn: int, writable: bool) -> None:
        """Toggle the write-permission bit of a mapped virtual page."""
        pte = self._page_table.get(vpn)
        if pte is None or not pte.valid:
            raise MachineCheck(f"set_writable on unmapped vpn {vpn}")
        if pte.writable != writable:
            pte.writable = writable
            self.stat_pte_toggles += 1
            self.generation += 1
            if not writable:
                self.tlb_stores.pop(vpn * self.page_size, None)
            rec = self.recorder
            if rec is not None and rec.enabled:
                rec.emit("mmu", "pte-protect", vpn=vpn, writable=writable)

    def set_kseg_writable(self, pfn: int, writable: bool) -> None:
        """Toggle write permission of a physical frame in the KSEG window.

        Only meaningful when :attr:`kseg_through_tlb` is on; the paper's
        method expands the page tables "to map these KSEG addresses to
        their corresponding physical address" with controllable protection.
        """
        if not 0 <= pfn < self._num_pages:
            raise MachineCheck(f"kseg protection on nonexistent frame {pfn}")
        table = self._kseg_writable
        if table.get(pfn, True) != writable:
            table[pfn] = writable
            self.stat_pte_toggles += 1
            self.generation += 1
            if not writable:
                self.tlb_stores.pop(KSEG_BASE + pfn * self.page_size, None)
            rec = self.recorder
            if rec is not None and rec.enabled:
                rec.emit("mmu", "kseg-protect", pfn=pfn, writable=writable)

    def set_kseg_writable_run(self, pfns, writable: bool) -> None:
        """:meth:`set_kseg_writable` on each frame of ``pfns``, in order:
        a :class:`MachineCheck` at the first nonexistent frame leaves the
        earlier frames applied, and — recorder on — each toggled frame's
        ``mmu/kseg-protect`` event is emitted before the next frame is
        touched (an armed crash fires from inside ``emit``)."""
        for pfn in pfns:
            self.set_kseg_writable(pfn, writable)

    def kseg_writable(self, pfn: int) -> bool:
        """Current KSEG write permission of a frame (default True)."""
        return self._kseg_writable.get(pfn, True)

    def _emit_machine_check(self, vaddr: int, write: bool, why: str) -> None:
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("trap", "machine-check", address=vaddr, write=write, why=why)

    # -- translation -----------------------------------------------------

    def is_kseg(self, vaddr: int) -> bool:
        """True for addresses inside the KSEG window."""
        return vaddr >= KSEG_BASE

    def kseg_address(self, paddr: int) -> int:
        """Return the KSEG virtual address for physical byte ``paddr``."""
        if not 0 <= paddr < self.memory.size:
            raise MachineCheck(f"no KSEG address for physical {paddr:#x}")
        return KSEG_BASE + paddr

    def translate(self, vaddr: int, *, write: bool) -> int:
        """Translate ``vaddr`` to a physical address, enforcing protection.

        Raises :class:`MachineCheck` for illegal addresses and
        :class:`ProtectionTrap` for stores to protected pages.  The caller
        (the memory bus) turns these into a system crash, matching how the
        hardware/kernel would behave.
        """
        if vaddr < 0:
            self._emit_machine_check(vaddr, write, "negative")
            raise MachineCheck(f"negative address {vaddr:#x}")
        if self.is_kseg(vaddr):
            paddr = vaddr - KSEG_BASE
            if paddr >= self.memory.size:
                self._emit_machine_check(vaddr, write, "kseg-beyond")
                raise MachineCheck(f"KSEG address {vaddr:#x} beyond physical memory")
            if write and self._kseg_through_tlb:
                pfn = paddr // self.page_size
                if not self.kseg_writable(pfn):
                    self.stat_protection_traps += 1
                    rec = self.recorder
                    if rec is not None and rec.enabled:
                        rec.emit("trap", "kseg", pfn=pfn, address=vaddr)
                    raise ProtectionTrap(
                        f"store to protected KSEG frame {pfn}", address=vaddr
                    )
            return paddr
        vpn, offset = divmod(vaddr, self.page_size)
        pte = self._page_table.get(vpn)
        if pte is None or not pte.valid:
            self._emit_machine_check(vaddr, write, "unmapped")
            raise MachineCheck(f"invalid virtual address {vaddr:#x}")
        if write and not pte.writable:
            self.stat_protection_traps += 1
            rec = self.recorder
            if rec is not None and rec.enabled:
                rec.emit("trap", "protection", vpn=vpn, address=vaddr)
            raise ProtectionTrap(f"store to protected vpn {vpn}", address=vaddr)
        return pte.pfn * self.page_size + offset

    def translate_range(self, vaddr: int, length: int, *, write: bool) -> list[tuple[int, int]]:
        """Translate a byte range, returning ``(paddr, chunk_len)`` runs.

        A range may span pages whose frames are not physically contiguous.
        """
        runs: list[tuple[int, int]] = []
        remaining = length
        cursor = vaddr
        while remaining > 0:
            paddr = self.translate(cursor, write=write)
            in_page = self.page_size - (paddr % self.page_size)
            take = min(remaining, in_page)
            runs.append((paddr, take))
            cursor += take
            remaining -= take
        return runs
