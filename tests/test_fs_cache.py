"""Tests for the page cache layer (buffer cache + UBC)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, KernelPanic
from repro.fs.cache import IO_CONTEXT, PageCache
from repro.fs.types import BLOCK_SIZE, FileId
from repro.hw import Machine, MachineConfig
from repro.hw.mmu import KSEG_BASE
from repro.isa.routines import HDR_DST_OFF
from repro.kernel import Kernel
from repro.system import SystemSpec, build_system
from repro.util import pattern_bytes


@pytest.fixture
def kernel():
    machine = Machine(MachineConfig(memory_bytes=8 * 1024 * 1024, boot_time_ns=0))
    k = Kernel(machine)
    k.init_caches()
    return k


class TestBufferCache:
    def test_get_zero_filled(self, kernel):
        page = kernel.buffer_cache.get(("meta", 0, 5))
        assert kernel.buffer_cache.read(page, 0, 16) == b"\x00" * 16
        assert not page.dirty

    def test_hit_returns_same_page(self, kernel):
        cache = kernel.buffer_cache
        a = cache.get(("meta", 0, 5))
        b = cache.get(("meta", 0, 5))
        assert a is b
        assert cache.stat_hits == 1
        assert cache.stat_misses == 1

    def test_write_into_and_read(self, kernel):
        cache = kernel.buffer_cache
        page = cache.get(("meta", 0, 7))
        cache.write_into(page, 100, b"metadata bytes", IO_CONTEXT)
        assert cache.read(page, 100, 14) == b"metadata bytes"
        assert page.dirty

    def test_write_records_journal_extent(self, kernel):
        cache = kernel.buffer_cache
        page = cache.get(("meta", 0, 7))
        cache.write_into(page, 64, b"x" * 10, IO_CONTEXT)
        assert page.journal_extents == [(64, 10)]

    def test_loader_invoked_on_miss(self, kernel):
        cache = kernel.buffer_cache
        payload = pattern_bytes(1, 0, BLOCK_SIZE)
        page = cache.get(("meta", 0, 9), loader=lambda p: cache.fill(p, payload))
        assert cache.read(page, 0, 64) == payload[:64]

    def test_out_of_bounds_write_rejected(self, kernel):
        cache = kernel.buffer_cache
        page = cache.get(("meta", 0, 1))
        with pytest.raises(ConfigurationError):
            cache.write_into(page, BLOCK_SIZE - 4, b"too long", IO_CONTEXT)

    def test_vaddr_is_mapped_kernel_virtual(self, kernel):
        page = kernel.buffer_cache.get(("meta", 0, 2))
        assert page.vaddr < KSEG_BASE  # buffer cache lives in mapped memory

    def test_corrupted_header_panics_write(self, kernel):
        """The buffer-header magic check is a kernel sanity check."""
        cache = kernel.buffer_cache
        page = cache.get(("meta", 0, 3))
        kernel.bus.store_u64(page.hdr_addr, 0xBAD)
        with pytest.raises(KernelPanic):
            cache.write_into(page, 0, b"x", IO_CONTEXT)

    def test_corrupted_header_dst_redirects_write(self, kernel):
        """Heap corruption of the destination pointer sends the metadata
        copy elsewhere — here, onto another mapped page."""
        cache = kernel.buffer_cache
        victim = cache.get(("meta", 0, 4))
        target = cache.get(("meta", 0, 5))
        kernel.bus.store_u64(target.hdr_addr + HDR_DST_OFF, victim.vaddr)
        cache.write_into(target, 0, b"misdirected", IO_CONTEXT)
        assert cache.read(victim, 0, 11) == b"misdirected"

    def test_drop_releases_resources(self, kernel):
        cache = kernel.buffer_cache
        free_before = kernel.frames.free_count
        live_before = len(kernel.heap._live)
        page = cache.get(("meta", 0, 6))
        cache.drop(page)
        assert kernel.frames.free_count == free_before
        assert len(kernel.heap._live) == live_before
        assert cache.lookup(("meta", 0, 6)) is None


class TestUBC:
    def test_pages_addressed_through_kseg(self, kernel):
        page = kernel.ubc.get(("data", 0, 10, 0))
        assert page.vaddr >= KSEG_BASE
        assert page.vaddr == KSEG_BASE + page.pfn * BLOCK_SIZE

    def test_write_and_read(self, kernel):
        ubc = kernel.ubc
        page = ubc.get(("data", 0, 10, 0), file_id=FileId(0, 10))
        data = pattern_bytes(4, 0, 500)
        ubc.write_into(page, 42, data, IO_CONTEXT)
        assert ubc.read(page, 42, 500) == data

    def test_invalidate_file(self, kernel):
        ubc = kernel.ubc
        fid = FileId(0, 11)
        for i in range(3):
            ubc.get(("data", 0, 11, i), file_id=fid)
        other = ubc.get(("data", 0, 12, 0), file_id=FileId(0, 12))
        ubc.invalidate_file(fid)
        assert len(ubc.pages) == 1
        assert ubc.lookup(("data", 0, 12, 0)) is other


def make_disk_kernel():
    from repro.disk import SimulatedDisk

    machine = Machine(MachineConfig(memory_bytes=8 * 1024 * 1024, boot_time_ns=0))
    kernel = Kernel(machine)
    kernel.init_caches()
    disk = SimulatedDisk("rz0", 4096)
    machine.attach_disk("rz0", disk)
    kernel.attach_block_device(0, disk)
    return kernel, disk


class TestEvictionAndFlush:
    def test_flush_writes_to_disk_block(self):
        kernel, disk = make_disk_kernel()
        ubc = kernel.ubc
        page = ubc.get(("data", 0, 5, 0), disk_block=20)
        payload = pattern_bytes(9, 0, 100)
        ubc.write_into(page, 0, payload, IO_CONTEXT)
        ubc.flush_page(page, sync=True)
        assert disk.peek(20 * 16, 16)[:100] == payload
        assert not page.dirty

    def test_flush_without_placement_fails(self, kernel):
        page = kernel.ubc.get(("data", 0, 5, 0))
        kernel.ubc.set_dirty(page, True)
        with pytest.raises(ConfigurationError):
            kernel.ubc.flush_page(page, sync=True)

    def test_async_flush_clears_dirty_on_completion(self):
        kernel, disk = make_disk_kernel()
        ubc = kernel.ubc
        page = ubc.get(("data", 0, 6, 0), disk_block=30)
        ubc.write_into(page, 0, b"async", IO_CONTEXT)
        ubc.flush_page(page, sync=False)
        assert page.dirty  # not yet on the platter
        disk.drain()
        assert not page.dirty

    def test_redirtied_page_stays_dirty_after_stale_completion(self):
        kernel, disk = make_disk_kernel()
        ubc = kernel.ubc
        page = ubc.get(("data", 0, 7, 0), disk_block=31)
        ubc.write_into(page, 0, b"first", IO_CONTEXT)
        ubc.flush_page(page, sync=False)
        ubc.write_into(page, 0, b"newer", IO_CONTEXT)  # re-dirty before I/O done
        disk.drain()
        assert page.dirty  # the completion must not mark the newer data clean

    def test_eviction_flushes_dirty_lru(self):
        kernel, disk = make_disk_kernel()
        ubc = kernel.ubc
        ubc.capacity = 2
        first = ubc.get(("data", 0, 8, 0), disk_block=40)
        ubc.write_into(first, 0, b"evict me", IO_CONTEXT)
        ubc.get(("data", 0, 8, 1), disk_block=41)
        ubc.get(("data", 0, 8, 2), disk_block=42)  # forces eviction of `first`
        assert ubc.lookup(("data", 0, 8, 0)) is None
        assert disk.peek(40 * 16, 1)[:8] == b"evict me"


def _scan(cache, file_id):
    """The oracle of :meth:`PageCache.file_pages`: a scan of every cached
    page, in the cache's LRU order."""
    return [p for p in cache.pages.values() if p.file_id == file_id]


class TestFileIndex:
    """``file_pages`` is the scan, order included, after every step."""

    INOS = (1, 2, 3)
    _page = st.tuples(st.sampled_from(INOS), st.integers(0, 3))
    step_st = st.one_of(
        st.tuples(st.just("get"), _page),
        st.tuples(st.just("lookup"), _page),
        st.tuples(st.just("drop"), _page),
        st.tuples(st.just("dirty"), _page),
        st.tuples(st.just("invalidate"), st.sampled_from(INOS)),
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(step_st, min_size=1, max_size=40))
    def test_index_is_the_scan(self, steps):
        kernel, _disk = make_disk_kernel()
        ubc = kernel.ubc
        ubc.capacity = 5  # small enough that attaches evict, dirty or not
        for op, arg in steps:
            if op == "invalidate":
                ubc.invalidate_file(FileId(0, arg))
            else:
                ino, block = arg
                key = ("data", 0, ino, block)
                if op == "get":
                    ubc.get(key, file_id=FileId(0, ino), disk_block=100 + 8 * ino + block)
                elif op == "lookup":
                    ubc.lookup(key)
                elif (page := ubc.pages.get(key)) is not None:
                    if op == "drop":
                        ubc.drop(page)
                    else:
                        ubc.write_into(page, 8 * block, b"dirty", IO_CONTEXT)
            for ino in self.INOS:
                assert ubc.file_pages(FileId(0, ino)) == _scan(ubc, FileId(0, ino))

    def test_flush_file_writes_as_the_scan_did(self, monkeypatch):
        """On a ``wt_close`` system, the disk writes ``flush_file`` issues
        — sector and sync, in order — are those of the scan it replaced."""
        from repro.fs.ufs import UFS

        flush_file = UFS.flush_file

        def run():
            system = build_system(SystemSpec("wt_close", fs_blocks=512))
            disk = system.fs.disk
            write, issued, inside = disk.write, [], []

            def recording_write(sector, data, *, sync, on_complete=None):
                if inside:
                    issued.append((sector, sync))
                return write(sector, data, sync=sync, on_complete=on_complete)

            def traced_flush_file(fs, ino, *, sync):
                inside.append(ino)
                try:
                    flush_file(fs, ino, sync=sync)
                finally:
                    inside.pop()

            monkeypatch.setattr(disk, "write", recording_write)
            monkeypatch.setattr(UFS, "flush_file", traced_flush_file)
            vfs = system.vfs
            for n in range(4):
                fd = vfs.open(f"/f{n}", create=True)
                # Out of order, then a hit: LRU order is neither the
                # file-offset nor the disk-block order.
                for block in (2, 0, 3, 1):
                    vfs.pwrite(fd, pattern_bytes(n, block, 3000), block * BLOCK_SIZE + 100)
                vfs.pread(fd, 10, 100)
                vfs.fsync(fd)
                vfs.pwrite(fd, b"again", 3 * BLOCK_SIZE)
                vfs.pwrite(fd, b"again", 0)
                if n % 2:
                    vfs.ftruncate(fd)
                    vfs.pwrite(fd, b"short", 0)
                vfs.close(fd)
            vfs.unlink("/f0")
            return issued, system.clock.now_ns

        indexed = run()
        monkeypatch.setattr(PageCache, "file_pages", _scan)
        scanned = run()
        assert len(indexed[0]) > 16
        assert indexed == scanned
