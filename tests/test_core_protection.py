"""Tests for the protection manager and the Rio guard."""

import pytest

from repro.core import ProtectionMode, RioConfig, RioFileCache
from repro.core.registry import ENTRY_SIZE, FLAG_CHANGING, HEADER_SIZE
from repro.errors import ProtectionTrap
from repro.fs.cache import IO_CONTEXT
from repro.fs.types import BLOCK_SIZE, FileId
from repro.hw import Machine, MachineConfig
from repro.kernel import Kernel, KernelConfig
from repro.util.checksum import fletcher32


def make_rio_kernel(mode: ProtectionMode, **rio_kw):
    machine = Machine(MachineConfig(memory_bytes=8 * 1024 * 1024, boot_time_ns=0))
    kernel = Kernel(machine, KernelConfig(charge_time=False))
    rio = RioFileCache(kernel, RioConfig(protection=mode, **rio_kw))
    kernel.init_caches(rio.guard)
    return kernel, rio


class TestVmKsegProtection:
    def test_abox_bit_engaged(self):
        kernel, _ = make_rio_kernel(ProtectionMode.VM_KSEG)
        assert kernel.mmu.kseg_through_tlb

    def test_ubc_page_protected_against_wild_store(self):
        kernel, _ = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 1, 0), file_id=FileId(0, 1))
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(page.vaddr, b"wild store")

    def test_buffer_cache_page_protected(self):
        kernel, _ = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.buffer_cache.get(("meta", 0, 1))
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(page.vaddr, b"wild store")

    def test_legitimate_write_succeeds_through_window(self):
        kernel, _ = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 2, 0), file_id=FileId(0, 2))
        kernel.ubc.write_into(page, 0, b"authorized", IO_CONTEXT)
        assert kernel.ubc.read(page, 0, 10) == b"authorized"
        # And the page is protected again afterwards.
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(page.vaddr, b"wild")

    def test_registry_frames_protected(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(rio.registry.base_vaddr, b"\x00" * 8)

    def test_detached_page_frame_writable_again(self):
        kernel, _ = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 3, 0))
        vaddr = page.vaddr
        kernel.ubc.drop(page)
        kernel.bus.store(vaddr, b"frame recycled")  # no trap

    def test_trap_counted(self):
        kernel, _ = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 4, 0))
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(page.vaddr, b"x")
        assert kernel.mmu.stat_protection_traps == 1


class TestCodePatching:
    def test_store_checker_installed(self):
        kernel, _ = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        assert kernel.bus.store_checker is not None
        assert not kernel.mmu.kseg_through_tlb  # the CPU cannot do it

    def test_patched_text_installed(self):
        kernel, rio = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        pm = rio.protection
        # Every routine was rewritten; checked stores carry inline checks.
        assert set(pm.patch_reports) == set(kernel.text.routines)
        assert sum(r.checked for r in pm.patch_reports.values()) > 0
        # Patched text has no native fast paths: everything interprets.
        for routine in kernel.text.routines.values():
            assert routine.native is None
        # The interpreter hands the descriptor to every call in gp.
        assert kernel.interp.global_pointer != 0
        assert (
            kernel.bus.load_u64(kernel.interp.global_pointer)
            == pm.patch_threshold
        )

    def test_inline_check_traps_registry_store(self):
        kernel, rio = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        target = rio.protection.patch_threshold + 64
        src = kernel.heap.kmalloc(16)
        with pytest.raises(ProtectionTrap) as exc:
            kernel.klib.bcopy(src, target, 16)
        assert exc.value.address == target

    def test_wild_store_trapped_by_check(self):
        kernel, _ = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        page = kernel.ubc.get(("data", 0, 1, 0))
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(page.vaddr, b"wild")

    def test_window_allows_writes(self):
        kernel, _ = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        page = kernel.ubc.get(("data", 0, 2, 0))
        kernel.ubc.write_into(page, 0, b"fine", IO_CONTEXT)
        assert kernel.ubc.read(page, 0, 4) == b"fine"

    def test_meta_page_covered(self):
        kernel, _ = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        page = kernel.buffer_cache.get(("meta", 0, 1))
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(page.vaddr, b"wild")


class TestNoProtection:
    def test_wild_stores_corrupt_silently(self):
        kernel, _ = make_rio_kernel(ProtectionMode.NONE)
        page = kernel.ubc.get(("data", 0, 1, 0))
        kernel.bus.store(page.vaddr, b"corruption")  # no trap
        assert kernel.ubc.read(page, 0, 10) == b"corruption"

    def test_checksum_detects_the_corruption(self):
        """Without protection, the detection apparatus still notices."""
        kernel, rio = make_rio_kernel(ProtectionMode.NONE)
        page = kernel.ubc.get(("data", 0, 1, 0), file_id=FileId(0, 1))
        kernel.ubc.write_into(page, 0, b"legit data", IO_CONTEXT)
        kernel.bus.store(page.vaddr, b"corruption")
        entry = rio.registry.read_entry(page.registry_slot)
        actual = fletcher32(kernel.memory.read(page.pfn * BLOCK_SIZE, BLOCK_SIZE))
        assert actual != entry.checksum


class TestGuardBookkeeping:
    def test_checksum_updated_on_write(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 1, 0), file_id=FileId(0, 1))
        kernel.ubc.write_into(page, 0, b"payload", IO_CONTEXT)
        entry = rio.registry.read_entry(page.registry_slot)
        expected = fletcher32(kernel.memory.read(page.pfn * BLOCK_SIZE, BLOCK_SIZE))
        assert entry.checksum == expected
        assert not entry.changing

    def test_dirty_flag_tracked(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 1, 0), file_id=FileId(0, 1))
        kernel.ubc.write_into(page, 0, b"dirty", IO_CONTEXT)
        assert rio.registry.read_entry(page.registry_slot).dirty
        kernel.ubc.set_dirty(page, False)
        assert not rio.registry.read_entry(page.registry_slot).dirty

    def test_placement_tracked(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(
            ("data", 0, 8, 3), file_id=FileId(0, 8), file_offset=3 * BLOCK_SIZE
        )
        kernel.ubc.set_placement(page, disk_block=55)
        entry = rio.registry.read_entry(page.registry_slot)
        assert entry.ino == 8
        assert entry.file_offset == 3 * BLOCK_SIZE
        assert entry.disk_block == 55

    def test_crash_mid_write_leaves_changing_flag(self):
        """If the system dies inside a write window, the entry must still
        say CHANGING — that block cannot be classified by checksum."""
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG, shadow_metadata=False)
        page = kernel.ubc.get(("data", 0, 1, 0), file_id=FileId(0, 1))
        rio.guard.begin_write(page)  # ... and the machine dies here
        entry = rio.registry.read_entry(page.registry_slot)
        assert entry.flags & FLAG_CHANGING

    def test_shadow_preserves_preimage_during_meta_write(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG, shadow_metadata=True)
        cache = kernel.buffer_cache
        page = cache.get(("meta", 0, 1))
        cache.write_into(page, 0, b"version one....", IO_CONTEXT)
        entry_before = rio.registry.read_entry(page.registry_slot)
        # Begin a second update; mid-write, the registry must point at a
        # shadow holding the *pre-image*.
        rio.guard.begin_write(page)
        kernel.bus.store(page.vaddr, b"version two....", IO_CONTEXT)
        entry_mid = rio.registry.read_entry(page.registry_slot)
        assert entry_mid.phys_addr != page.pfn * BLOCK_SIZE
        shadow_bytes = kernel.memory.read(entry_mid.phys_addr, 15)
        assert shadow_bytes == b"version one...."
        assert fletcher32(
            kernel.memory.read(entry_mid.phys_addr, BLOCK_SIZE)
        ) == entry_before.checksum
        # Finish: the registry points back at the updated original.
        rio.guard.end_write(page)
        entry_after = rio.registry.read_entry(page.registry_slot)
        assert entry_after.phys_addr == page.pfn * BLOCK_SIZE

    def test_shadow_frame_released_after_write(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG, shadow_metadata=True)
        cache = kernel.buffer_cache
        page = cache.get(("meta", 0, 2))
        free_before = kernel.frames.free_count
        cache.write_into(page, 0, b"update", IO_CONTEXT)
        assert kernel.frames.free_count == free_before

    def test_detach_frees_registry_slot(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        page = kernel.ubc.get(("data", 0, 1, 0))
        slot = page.registry_slot
        kernel.ubc.drop(page)
        assert not rio.registry.read_entry(slot).valid


class TestWindowProtocol:
    """Windows are two plain calls — ``open_*`` then ``close_*``.  An entry
    store's registry window opens the frame(s) the entry lies in;
    ``Registry.format``'s, called with no frames, every registry frame."""

    @staticmethod
    def _frames_open_during_store(kernel, rio, slot, probe):
        """Store to ``slot``; report the registry frames found writable
        mid-store, after calling ``probe()`` with the window open."""
        protection = rio.protection
        original = kernel.bus.store
        opened = []

        def spying_store(vaddr, data, ctx=None):
            if protection.mode is ProtectionMode.VM_KSEG:
                opened.extend(p for p in kernel.registry_frames if kernel.mmu.kseg_writable(p))
            else:
                opened.extend(p for p in kernel.registry_frames if p not in protection._patched_pfns)
            probe()
            original(vaddr, data, ctx)

        kernel.bus.store = spying_store
        try:
            rio.registry.update_flags(slot, set_flags=1)
        finally:
            kernel.bus.store = original
        return opened

    @pytest.mark.parametrize("mode", [ProtectionMode.VM_KSEG, ProtectionMode.CODE_PATCHING])
    def test_entry_window_leaves_the_other_registry_frames_protected(self, mode):
        """Section 2.1's argument, applied to the registry: while one
        entry is being written, a wild store to any *other* registry
        frame still traps."""
        kernel, rio = make_rio_kernel(mode)
        first = kernel.registry_frames[0]
        elsewhere = rio.registry.base_vaddr + 3 * kernel.page_size + 64
        store = kernel.bus.store
        traps = []

        def wild_store():
            with pytest.raises(ProtectionTrap) as trap:
                store(elsewhere, b"\xff" * 8)
            traps.append(trap.value.address)

        toggles, windows = kernel.mmu.stat_pte_toggles, rio.protection.stat_windows
        patch_traps = rio.protection.stat_patch_traps
        opened = self._frames_open_during_store(kernel, rio, 0, wild_store)
        assert opened == [first] and traps == [elsewhere]
        assert rio.protection.stat_windows - windows == 1
        if mode is ProtectionMode.VM_KSEG:
            assert kernel.mmu.stat_pte_toggles - toggles == 2  # one frame, there and back
        else:
            assert rio.protection.stat_patch_traps - patch_traps == 1  # the patch trap
        assert rio.registry.read_entry(0).flags == 1
        with pytest.raises(ProtectionTrap):  # closed again
            store(rio.registry.entry_vaddr(0), b"\x00" * 8)

    @pytest.mark.parametrize("mode", [ProtectionMode.VM_KSEG, ProtectionMode.CODE_PATCHING])
    def test_straddling_slot_opens_exactly_two_frames(self, mode):
        kernel, rio = make_rio_kernel(mode)
        slot = 169  # region bytes 8176-8223: across the first page edge
        offset = HEADER_SIZE + slot * ENTRY_SIZE
        assert offset // kernel.page_size == 0 and (offset + ENTRY_SIZE - 1) // kernel.page_size == 1
        first = kernel.registry_frames[0]
        toggles = kernel.mmu.stat_pte_toggles
        opened = self._frames_open_during_store(kernel, rio, slot, lambda: None)
        assert opened == [first, first + 1]
        if mode is ProtectionMode.VM_KSEG:
            assert kernel.mmu.stat_pte_toggles - toggles == 4
        assert rio.registry.read_entry(slot).flags == 1
        for pfn in kernel.registry_frames:
            with pytest.raises(ProtectionTrap):
                kernel.bus.store(rio.registry.base_vaddr + (pfn - first) * kernel.page_size, b"\x00")

    def test_registry_window_toggles_every_frame_once_each_way(self):
        """The whole-region form ``Registry.format`` uses."""
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        frames = kernel.registry_frames
        toggles, windows = kernel.mmu.stat_pte_toggles, rio.protection.stat_windows
        rio.protection.open_registry_window()
        assert all(kernel.mmu.kseg_writable(pfn) for pfn in frames)
        kernel.bus.store(rio.registry.base_vaddr + 64, b"\x00" * 8)  # no trap
        rio.protection.close_registry_window()
        assert not any(kernel.mmu.kseg_writable(pfn) for pfn in frames)
        assert kernel.mmu.stat_pte_toggles - toggles == 2 * len(frames)
        assert rio.protection.stat_windows - windows == 1

    def test_code_patching_registry_window(self):
        kernel, rio = make_rio_kernel(ProtectionMode.CODE_PATCHING)
        frames = set(kernel.registry_frames)
        assert frames <= rio.protection._patched_pfns
        rio.protection.open_registry_window()
        assert not frames & rio.protection._patched_pfns
        kernel.bus.store(rio.registry.base_vaddr + 64, b"\x00" * 8)  # no trap
        rio.protection.close_registry_window()
        assert frames <= rio.protection._patched_pfns
        with pytest.raises(ProtectionTrap):
            kernel.bus.store(rio.registry.base_vaddr + 64, b"\x00" * 8)

    def test_unprotected_mode_still_counts_windows(self):
        kernel, rio = make_rio_kernel(ProtectionMode.NONE)
        before = rio.protection.stat_windows
        rio.registry.update_flags(rio.registry.alloc_slot(), set_flags=1)
        assert rio.protection.stat_windows - before == 1
        assert kernel.mmu.stat_pte_toggles == 0

    def test_crash_inside_a_registry_window_leaves_it_open(self):
        """Not exception-safe, on purpose: a store that takes the machine
        down mid-window never reaches ``close_registry_window``."""
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG)
        slot = rio.registry.alloc_slot()
        original = kernel.bus.store

        def dying_store(vaddr, data, ctx=None):
            raise ProtectionTrap("machine dies mid-store", address=vaddr)

        kernel.bus.store = dying_store
        with pytest.raises(ProtectionTrap):
            rio.registry.update_flags(slot, set_flags=1)
        kernel.bus.store = original
        # Exactly the entry's frame is left open; the rest never were.
        assert [pfn for pfn in kernel.registry_frames if kernel.mmu.kseg_writable(pfn)] == [
            kernel.registry_frames[0]
        ]

    def test_page_window_pairs_by_page_key(self):
        kernel, rio = make_rio_kernel(ProtectionMode.VM_KSEG, shadow_metadata=False)
        page = kernel.ubc.get(("data", 0, 1, 0), file_id=FileId(0, 1))
        rio.guard.begin_write(page)
        assert kernel.mmu.kseg_writable(page.pfn)
        rio.guard.end_write(page)
        assert not kernel.mmu.kseg_writable(page.pfn)
        toggles = kernel.mmu.stat_pte_toggles
        rio.guard.end_write(page)  # no window open: nothing to close
        assert not kernel.mmu.kseg_writable(page.pfn)
        # Two registry updates, each its entry's one frame there and back.
        assert kernel.mmu.stat_pte_toggles - toggles == 2 * 2
