"""The simulated disk: sector store, request queue, crash semantics.

The platter is a dict of lazily allocated fixed-size **extents**
(``bytearray``s of :data:`EXTENT_SECTORS` sectors keyed by extent index):
every store operation is a handful of slice copies however many sectors
it spans, and an extent nobody wrote anything but zeros to is never
materialised — it reads as zeros and costs no memory.  A payload may also
be a :class:`~repro.util.sparse.SparseBytes` (the warm reboot's memory
dump): it is one request priced by its full length like any other, but
the store only visits the payload's runs and the extents its gaps cover,
and the request's saved prior contents are sparse in the same way.

Write handling is the part that matters for the paper's experiments:

* A write is *applied to the sector store immediately* (so later reads see
  it, as they would from a real controller's queue) but also recorded as a
  pending request carrying the sectors' prior contents.
* On a clean completion (virtual time passes the request's completion
  time) the request retires and the prior contents are dropped.
* On a **crash**, queued requests are resolved against the crash time:
  completed ones stand; never-started ones are rolled back entirely (the
  data "had not yet made it to disk"); the one in flight is partially
  applied with its boundary sector *torn* — scrambled so that neither old
  nor new contents survive, exactly the disk vulnerability the paper
  concedes ("a disk sector being written during a system crash can be
  corrupted").

Synchronous writes advance the virtual clock to the completion time before
returning, which is why write-through file systems are slow in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError, MachineCheck
from repro.disk.model import DiskParameters
from repro.hw.clock import Clock
from repro.util.sparse import SparseBytes

#: Sectors per extent: 64 KiB at 512-byte sectors — eight file-system
#: blocks, so a block access never straddles extents and a whole-memory
#: dump is a few hundred slice copies, while a sparse image (mkfs, a few
#: files, the backup superblock in the last block) stays a few extents.
EXTENT_SECTORS = 128


@dataclass
class DiskRequest:
    """One queued disk operation."""

    kind: str  # "read" | "write"
    sector: int
    nsectors: int
    submit_ns: int
    start_ns: int
    completion_ns: int
    #: Original contents (writes only); sparse when the payload was.
    old_data: bytes | SparseBytes | None = None
    on_complete: Optional[Callable[["DiskRequest"], None]] = None
    retired: bool = False


@dataclass
class DiskStats:
    reads: int = 0
    writes: int = 0
    sync_writes: int = 0
    async_writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_ns: int = 0
    sync_wait_ns: int = 0
    #: Writes discarded or torn by a crash.
    lost_writes: int = 0
    torn_sectors: int = 0


class SimulatedDisk:
    """A sector-addressed disk with virtual-time service and crash tears."""

    def __init__(
        self,
        name: str,
        num_sectors: int,
        params: DiskParameters | None = None,
    ) -> None:
        self.name = name
        self.params = params or DiskParameters()
        self.num_sectors = num_sectors
        self.sector_size = self.params.sector_size
        self._extent_bytes = EXTENT_SECTORS * self.sector_size
        self._extents: dict[int, bytearray] = {}
        #: Stands in for every unmaterialised extent on the read side.
        self._zero_extent = bytes(self._extent_bytes)
        self._clock: Clock | None = None
        self._pending: list[DiskRequest] = []
        self._busy_until_ns = 0
        self._last_sector_end: int | None = None
        self.stats = DiskStats()
        #: Chaos registry (``slow_io`` capability); installed by
        #: :meth:`System.install_chaos`, surviving machine resets because
        #: the disk object itself persists across warm reboots.
        self.chaos = None

    def _service_ns(self, nbytes: int, *, sequential: bool) -> int:
        """Model service time, stretched by ``slow_io`` chaos if armed."""
        service = self.params.service_ns(nbytes, sequential=sequential)
        if self.chaos is not None:
            service = self.chaos.io_service_ns(service)
        return service

    # -- attachment --------------------------------------------------------

    def attach(self, clock: Clock) -> None:
        self._clock = clock
        clock.on_advance(self._on_clock_advance)

    def _require_clock(self) -> Clock:
        if self._clock is None:
            raise ConfigurationError(f"disk {self.name!r} not attached to a clock")
        return self._clock

    # -- raw sector store (no timing; used by detectors and test setup) -----

    def _check_range(self, sector: int, count: int) -> None:
        if count < 0:
            raise ValueError("negative sector count")
        if sector < 0 or sector + count > self.num_sectors:
            raise MachineCheck(
                f"disk {self.name}: sectors [{sector}, {sector + count}) out of range"
            )

    def _spans(self, pos: int, nbytes: int):
        """``(extent index, offset, length)`` of each piece of the byte
        run ``[pos, pos + nbytes)``, cut at extent boundaries."""
        size = self._extent_bytes
        index, off = divmod(pos, size)
        while nbytes > 0:
            take = min(nbytes, size - off)
            yield index, off, take
            nbytes -= take
            index += 1
            off = 0

    def peek(self, sector: int, count: int) -> bytes:
        """Read sectors without consuming virtual time."""
        self._check_range(sector, count)
        nbytes = count * self.sector_size
        extents, zeros = self._extents, self._zero_extent
        parts = [
            memoryview(extents.get(index, zeros))[off : off + take]
            for index, off, take in self._spans(sector * self.sector_size, nbytes)
        ]
        if len(parts) > 1 and all(part.obj is zeros for part in parts):
            # A long never-written run (the first dump's ``old_data``):
            # fresh zeros cost no copy and, untouched, no resident memory.
            return bytes(nbytes)
        return b"".join(parts)

    def _peek_sparse(self, pos: int, nbytes: int) -> SparseBytes:
        """Platter bytes ``[pos, pos + nbytes)`` as a sparse value: a copy
        of each materialised extent in range, a gap for the rest."""
        runs, done = [], 0
        for index, off, take in self._spans(pos, nbytes):
            extent = self._extents.get(index)
            if extent is not None:
                runs.append((done, bytes(memoryview(extent)[off : off + take])))
            done += take
        return SparseBytes(nbytes, runs)

    def poke(self, sector: int, data: bytes | bytearray | memoryview | SparseBytes) -> None:
        """Write sectors without queueing or consuming time (mkfs, tests)."""
        sparse = isinstance(data, SparseBytes)
        if not sparse:
            data = memoryview(data).cast("B")
        if len(data) % self.sector_size:
            raise ValueError("poke data must be whole sectors")
        self._check_range(sector, len(data) // self.sector_size)
        (self._store_sparse if sparse else self._store)(sector * self.sector_size, data)

    def _store(self, pos: int, view: memoryview) -> None:
        """Copy ``view`` onto the platter from byte ``pos``."""
        done = 0
        for index, off, take in self._spans(pos, len(view)):
            chunk = view[done : done + take]
            done += take
            extent = self._extents.get(index)
            if extent is None:
                if bytes(chunk) == bytes(take):
                    continue  # zeros over zeros
                extent = self._extents[index] = bytearray(self._extent_bytes)
            extent[off : off + take] = chunk

    def _store_sparse(self, pos: int, payload: SparseBytes) -> None:
        """Store a sparse payload from byte ``pos``: its runs as any flat
        bytes; a gap does nothing to an unmaterialised extent, drops a
        materialised one it wholly covers (it reads as zeros again) and
        zero-fills in place the part of one it partly covers."""
        size, extents = self._extent_bytes, self._extents
        for start, stop in payload.gaps():
            start += pos
            stop += pos
            for index in range(start // size, (stop - 1) // size + 1):
                extent = extents.get(index)
                if extent is None:
                    continue
                lo, hi = max(start - index * size, 0), min(stop - index * size, size)
                if hi - lo == size:
                    del extents[index]
                else:
                    extent[lo:hi] = bytes(hi - lo)
        for offset, chunk in payload.runs():
            self._store(pos + offset, memoryview(chunk))

    # -- timed operations ----------------------------------------------------

    def _note_position(self, sector: int, nsectors: int) -> None:
        self._last_sector_end = sector + nsectors

    def _sequential_with(self, sector: int) -> bool:
        return self._last_sector_end == sector

    def read(self, sector: int, count: int) -> bytes:
        """Synchronous read: blocks (advances the clock) until done."""
        self._check_range(sector, count)
        clock = self._require_clock()
        start = max(clock.now_ns, self._busy_until_ns)
        service = self._service_ns(
            count * self.sector_size, sequential=self._sequential_with(sector)
        )
        completion = start + service
        self.stats.reads += 1
        self.stats.sectors_read += count
        self.stats.busy_ns += service
        self._busy_until_ns = completion
        self._note_position(sector, count)
        clock.advance_to(completion)
        return self.peek(sector, count)

    def write(
        self,
        sector: int,
        data: bytes | bytearray | memoryview | SparseBytes,
        *,
        sync: bool,
        on_complete: Optional[Callable[[DiskRequest], None]] = None,
    ) -> DiskRequest:
        """Write sectors; ``sync=True`` blocks until the platter has them."""
        sparse = isinstance(data, SparseBytes)
        if not sparse:
            data = memoryview(data).cast("B")
        nbytes = len(data)
        if nbytes % self.sector_size:
            raise ValueError("write data must be whole sectors")
        count = nbytes // self.sector_size
        self._check_range(sector, count)
        pos = sector * self.sector_size
        clock = self._require_clock()
        start = max(clock.now_ns, self._busy_until_ns)
        service = self._service_ns(
            count * self.sector_size, sequential=self._sequential_with(sector)
        )
        completion = start + service
        request = DiskRequest(
            kind="write",
            sector=sector,
            nsectors=count,
            submit_ns=clock.now_ns,
            start_ns=start,
            completion_ns=completion,
            old_data=self._peek_sparse(pos, nbytes) if sparse else self.peek(sector, count),
            on_complete=on_complete,
        )
        # Visible to subsequent reads immediately.
        (self._store_sparse if sparse else self._store)(pos, data)
        self._pending.append(request)
        self._busy_until_ns = completion
        self._note_position(sector, count)
        self.stats.writes += 1
        self.stats.sectors_written += count
        self.stats.busy_ns += service
        if sync:
            self.stats.sync_writes += 1
            self.stats.sync_wait_ns += completion - clock.now_ns
            clock.advance_to(completion)  # retires via the clock listener
        else:
            self.stats.async_writes += 1
        return request

    def drain(self) -> None:
        """Block until every queued write is on the platter."""
        clock = self._require_clock()
        if self._pending:
            clock.advance_to(max(r.completion_ns for r in self._pending))
        self._retire(clock.now_ns)

    @property
    def pending_writes(self) -> int:
        return len(self._pending)

    @property
    def busy_until_ns(self) -> int:
        return self._busy_until_ns

    # -- retirement and crash handling ----------------------------------------

    def _on_clock_advance(self, now_ns: int) -> None:
        if self._pending:
            self._retire(now_ns)

    def _retire(self, now_ns: int) -> None:
        still_pending: list[DiskRequest] = []
        for request in self._pending:
            if request.completion_ns <= now_ns:
                request.retired = True
                request.old_data = None
                if request.on_complete is not None:
                    request.on_complete(request)
            else:
                still_pending.append(request)
        self._pending = still_pending

    def crash(self) -> None:
        """Resolve the queue as of the crash instant (see module docstring)."""
        clock = self._require_clock()
        now = clock.now_ns
        self._retire(now)
        # Requests are ordered by start time; roll back from the tail so
        # overlapping writes restore the oldest surviving contents.
        in_flight: DiskRequest | None = None
        for request in reversed(self._pending):
            if request.start_ns >= now:
                # Never reached the disk: vanishes without trace.
                self.poke(request.sector, request.old_data)
                self.stats.lost_writes += 1
            else:
                # At most one request can be mid-service at the crash.
                in_flight = request
        if in_flight is not None:
            self._tear(in_flight, now)
            self.stats.lost_writes += 1
        self._pending = []
        self._busy_until_ns = now

    def _tear(self, request: DiskRequest, now_ns: int) -> None:
        """Partially apply an in-flight write, scrambling the torn sector."""
        duration = max(1, request.completion_ns - request.start_ns)
        fraction = (now_ns - request.start_ns) / duration
        done = min(request.nsectors, max(0, int(request.nsectors * fraction)))
        # Sectors beyond the head position retain their old contents.
        if done + 1 < request.nsectors:
            tail = request.old_data[(done + 1) * self.sector_size :]
            self.poke(request.sector + done + 1, tail)
        if done < request.nsectors:
            # The sector under the head is torn: a deterministic scramble
            # that matches neither the old nor the new contents.
            new = self.peek(request.sector + done, 1)
            old = request.old_data[done * self.sector_size : (done + 1) * self.sector_size]
            half = self.sector_size // 2
            torn = bytes(b ^ 0xA5 for b in new[:half]) + bytes(old[half:])
            self.poke(request.sector + done, torn)
            self.stats.torn_sectors += 1

    def reset(self) -> None:
        """Power-cycle the controller: the queue is gone, the platter stays."""
        self._pending = []
        self._last_sector_end = None
        if self._clock is not None:
            self._busy_until_ns = self._clock.now_ns
