"""Physical memory: real bytes, organised in pages, surviving resets.

The reliability experiments in the paper are only meaningful because the
file cache is made of actual mutable state that faults can genuinely
corrupt and that the warm reboot genuinely recovers.  This module therefore
stores real bytes (lazily-allocated ``bytearray`` pages) rather than any
symbolic abstraction; checksums, crash dumps and the registry all operate
on these bytes.
"""

from __future__ import annotations

from repro.errors import MachineCheck
from repro.util.checksum import fletcher32
from repro.util.sparse import SparseBytes

DEFAULT_PAGE_SIZE = 8192  # the paper's 8 KB file-cache page


class PhysicalMemory:
    """Byte-addressable physical memory of ``size`` bytes.

    Pages are allocated on first *write* and initialised to zero; reads of
    an untouched frame see a shared zero page and leave it unallocated, so
    dumping or checksumming memory never grows it.  The object
    deliberately has no notion of protection — that is the MMU's job; code
    with a raw reference to :class:`PhysicalMemory` models hardware-level
    access (e.g. the crash-dump path and corruption detectors).
    """

    def __init__(self, size: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if size <= 0 or page_size <= 0 or size % page_size:
            raise ValueError("memory size must be a positive multiple of page size")
        self.size = size
        self.page_size = page_size
        self.num_pages = size // page_size
        self._pages: dict[int, bytearray] = {}
        #: What every never-written frame reads as (immutable, shared).
        self._zero_page = bytes(page_size)
        #: Per-frame write-generation counters.  Every mutation of a frame
        #: (``write``, ``fill``, ``flip_bit``, ``erase``, ``load_image``)
        #: bumps its counter; the interpreter's predecode cache and other
        #: derived views key their validity on these.  The list identity is
        #: stable for the lifetime of the object (hot loops hold a direct
        #: reference), so it is mutated in place, never rebound.
        self._page_gens: list[int] = [0] * self.num_pages
        #: Mutation accounting (see :meth:`watch`): ``pfn -> [mutations,
        #: lo, hi]`` for the frames being watched.  The contract, next to
        #: the generations': *every* mutation bumps the generation; every
        #: *ranged* mutation of a watched frame — the per-frame loop of
        #: :meth:`write` and the one-page store of the memory bus, the two
        #: places that bump a generation for a byte range — is also
        #: accounted here.  The word paths (``flip_bit``, ``erase``, the
        #: bus's word and page-port stores) move the generation only, so
        #: ``generation delta != mutations`` is how a watcher learns that
        #: something it cannot place touched the frame.  Same aliasing
        #: rule as ``_page_gens``; empty unless a frame is being watched.
        self._watched: dict[int, list[int]] = {}

    # -- page helpers -------------------------------------------------

    def page(self, pfn: int) -> bytearray:
        """Return the (mutable) backing store for physical frame ``pfn``,
        allocating it on first touch — the mutators' accessor."""
        if not 0 <= pfn < self.num_pages:
            raise MachineCheck(f"physical frame {pfn} out of range")
        store = self._pages.get(pfn)
        if store is None:
            store = bytearray(self.page_size)
            self._pages[pfn] = store
        return store

    def frame(self, pfn: int) -> bytearray | bytes:
        """Read-only view of frame ``pfn``: its backing store if anything
        ever wrote it, else the shared zero page.  Never allocates."""
        if not 0 <= pfn < self.num_pages:
            raise MachineCheck(f"physical frame {pfn} out of range")
        return self._pages.get(pfn, self._zero_page)

    def page_checksum(self, pfn: int) -> int:
        return fletcher32(self.frame(pfn))

    def generation(self, pfn: int) -> int:
        """Write-generation of frame ``pfn`` (bumped on every mutation)."""
        if not 0 <= pfn < self.num_pages:
            raise MachineCheck(f"physical frame {pfn} out of range")
        return self._page_gens[pfn]

    def watch(self, pfn: int) -> list[int]:
        """Start accounting the ranged mutations of frame ``pfn``; returns
        the live record ``[mutations, lo, hi]``: how many there were and
        the byte extent ``[lo, hi)`` within the frame that they covered
        (``lo = page_size``, ``hi = 0`` while there was none).  Together
        with :meth:`generation` a watcher can tell "the frame changed
        only inside this range" from "something else touched it"."""
        if not 0 <= pfn < self.num_pages:
            raise MachineCheck(f"physical frame {pfn} out of range")
        record = self._watched[pfn] = [0, self.page_size, 0]
        return record

    def unwatch(self, pfn: int) -> None:
        """Stop accounting frame ``pfn`` (a no-op if it is not watched)."""
        self._watched.pop(pfn, None)

    def unwatch_all(self) -> None:
        """Drop every watch — they are bookkeeping of the running kernel
        and die with it (:meth:`repro.hw.Machine.reset`)."""
        self._watched.clear()

    def account(self, pfn: int, lo: int, hi: int) -> None:
        """Fold one ranged mutation ``[lo, hi)`` of frame ``pfn`` into its
        watch record, if it has one.  For the two mutators named at
        ``_watched``, after they test that the dict is not empty."""
        record = self._watched.get(pfn)
        if record is not None:
            record[0] += 1
            if lo < record[1]:
                record[1] = lo
            if hi > record[2]:
                record[2] = hi

    # -- byte-granular access ------------------------------------------

    def _check_range(self, addr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        if addr < 0 or addr + length > self.size:
            raise MachineCheck(
                f"physical access [{addr:#x}, {addr + length:#x}) outside memory"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Hardware-level read of physical bytes (no MMU involved).

        Allocates nothing: a multi-frame read is one join over the
        resident frames and the shared zero page.
        """
        self._check_range(addr, length)
        page_size = self.page_size
        pfn, off = divmod(addr, page_size)
        pages, zero = self._pages, self._zero_page
        if off + length <= page_size:  # common case: one frame
            return bytes(pages.get(pfn, zero)[off : off + length])
        parts = []
        while length > 0:
            take = min(length, page_size - off)
            store = pages.get(pfn, zero)
            parts.append(store if take == page_size else memoryview(store)[off : off + take])
            length -= take
            pfn += 1
            off = 0
        return b"".join(parts)

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Hardware-level write of physical bytes (no MMU involved).

        ``bytes``/``bytearray``/``memoryview`` inputs are written without
        an intermediate ``bytes(data)`` materialisation.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        n = len(data)
        self._check_range(addr, n)
        gens, watched = self._page_gens, self._watched
        pos = 0
        while pos < n:
            pfn, off = divmod(addr + pos, self.page_size)
            take = min(n - pos, self.page_size - off)
            self.page(pfn)[off : off + take] = (
                data if pos == 0 and take == n else data[pos : pos + take]
            )
            gens[pfn] += 1
            if watched:
                self.account(pfn, off, off + take)
            pos += take

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (1 << 64) - 1).to_bytes(8, "little"))

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        self._check_range(addr, length)
        self.write(addr, bytes([value & 0xFF]) * length)

    # -- whole-image operations ----------------------------------------

    def snapshot(self) -> SparseBytes:
        """The full memory image as a sparse value: one run per resident
        frame, every never-written frame a gap (what the warm reboot
        dumps to swap and recovers from).  The runs are *copies*, so the
        snapshot stays what memory held now whatever is written later —
        the booting kernel reuses these frames before the user-level
        restore reads the image."""
        page_size = self.page_size
        return SparseBytes(
            self.size,
            [(pfn * page_size, bytes(store)) for pfn, store in sorted(self._pages.items())],
        )

    def dump_image(self) -> bytes:
        """The full memory image as flat ``bytes`` (tests and tools; the
        recovery path takes :meth:`snapshot`)."""
        return self.read(0, self.size)

    def load_image(self, image: bytes) -> None:
        if len(image) != self.size:
            raise ValueError("image size mismatch")
        self.write(0, image)

    def erase(self) -> None:
        """Zero all of memory — models a PC-style reset that loses contents.

        Section 5 notes that the PCs the authors tested erase memory on
        reboot, which makes warm reboot impossible; this method lets the
        test suite demonstrate that failure mode.
        """
        self._pages.clear()
        gens = self._page_gens
        for pfn in range(len(gens)):  # in place: hot loops alias the list
            gens[pfn] += 1

    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one bit — the lowest-level corruption primitive."""
        self._check_range(addr, 1)
        if not 0 <= bit < 8:
            raise ValueError("bit index out of range")
        pfn, off = divmod(addr, self.page_size)
        self.page(pfn)[off] ^= 1 << bit
        self._page_gens[pfn] += 1
