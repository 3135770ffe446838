"""Tests for the MMU: protection, KSEG semantics, the ABOX bit."""

import pytest

from repro.errors import MachineCheck, ProtectionTrap
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import KSEG_BASE, MMU

PAGE = 8192


@pytest.fixture
def mmu():
    return MMU(PhysicalMemory(8 * PAGE))


class TestMappedTranslation:
    def test_identity_mapping(self, mmu):
        mmu.map(3, 5)
        assert mmu.translate(3 * PAGE + 17, write=False) == 5 * PAGE + 17

    def test_unmapped_raises_machine_check(self, mmu):
        with pytest.raises(MachineCheck):
            mmu.translate(7 * PAGE, write=False)

    def test_negative_address(self, mmu):
        with pytest.raises(MachineCheck):
            mmu.translate(-8, write=False)

    def test_write_protection_traps(self, mmu):
        mmu.map(2, 2, writable=False)
        assert mmu.translate(2 * PAGE, write=False) == 2 * PAGE  # reads fine
        with pytest.raises(ProtectionTrap):
            mmu.translate(2 * PAGE, write=True)
        assert mmu.stat_protection_traps == 1

    def test_set_writable_opens_window(self, mmu):
        mmu.map(2, 2, writable=False)
        mmu.set_writable(2, True)
        assert mmu.translate(2 * PAGE, write=True) == 2 * PAGE
        mmu.set_writable(2, False)
        with pytest.raises(ProtectionTrap):
            mmu.translate(2 * PAGE, write=True)

    def test_set_writable_on_unmapped_raises(self, mmu):
        with pytest.raises(MachineCheck):
            mmu.set_writable(9, True)

    def test_unmap(self, mmu):
        mmu.map(1, 1)
        mmu.unmap(1)
        with pytest.raises(MachineCheck):
            mmu.translate(1 * PAGE, write=False)

    def test_map_to_bad_frame(self, mmu):
        with pytest.raises(MachineCheck):
            mmu.map(0, 99)

    def test_pte_toggle_counter(self, mmu):
        mmu.map(0, 0, writable=True)
        mmu.set_writable(0, False)
        mmu.set_writable(0, False)  # no-op, same value
        mmu.set_writable(0, True)
        assert mmu.stat_pte_toggles == 2


class TestKseg:
    """KSEG: the physical window that bypasses the TLB (section 2.1)."""

    def test_kseg_maps_to_physical(self, mmu):
        assert mmu.translate(KSEG_BASE + 123, write=False) == 123

    def test_kseg_beyond_memory_is_illegal(self, mmu):
        with pytest.raises(MachineCheck):
            mmu.translate(KSEG_BASE + 8 * PAGE, write=False)

    def test_kseg_bypasses_protection_by_default(self, mmu):
        """Without the ABOX bit, KSEG stores ignore page protection —
        the vulnerability Rio's protection scheme must close."""
        mmu.set_kseg_writable(1, False)
        # kseg_through_tlb is False: the store goes through anyway.
        assert mmu.translate(KSEG_BASE + 1 * PAGE, write=True) == 1 * PAGE

    def test_abox_bit_forces_kseg_through_tlb(self, mmu):
        mmu.kseg_through_tlb = True
        mmu.set_kseg_writable(1, False)
        with pytest.raises(ProtectionTrap):
            mmu.translate(KSEG_BASE + 1 * PAGE, write=True)
        # Reads are still allowed.
        assert mmu.translate(KSEG_BASE + 1 * PAGE, write=False) == 1 * PAGE

    def test_kseg_window_reopens(self, mmu):
        mmu.kseg_through_tlb = True
        mmu.set_kseg_writable(2, False)
        mmu.set_kseg_writable(2, True)
        assert mmu.translate(KSEG_BASE + 2 * PAGE + 8, write=True) == 2 * PAGE + 8

    def test_kseg_address_helper(self, mmu):
        assert mmu.kseg_address(500) == KSEG_BASE + 500
        with pytest.raises(MachineCheck):
            mmu.kseg_address(8 * PAGE)

    def test_random_wild_address_is_illegal(self, mmu):
        """On a 64-bit machine most wild pointers hit unmapped space; the
        paper credits this for memory's crash safety."""
        for addr in (0xDEAD_BEEF_0000, 1 << 55, KSEG_BASE - PAGE, 0x4242_4242):
            with pytest.raises(MachineCheck):
                mmu.translate(addr, write=True)


class TestTranslateRange:
    def test_contiguous_run(self, mmu):
        mmu.map(0, 4)
        runs = mmu.translate_range(0, 100, write=False)
        assert runs == [(4 * PAGE, 100)]

    def test_cross_page_noncontiguous(self, mmu):
        mmu.map(0, 4)
        mmu.map(1, 2)
        runs = mmu.translate_range(PAGE - 10, 20, write=False)
        assert runs == [(4 * PAGE + PAGE - 10, 10), (2 * PAGE, 10)]

    def test_write_protection_checked_per_page(self, mmu):
        mmu.map(0, 0, writable=True)
        mmu.map(1, 1, writable=False)
        with pytest.raises(ProtectionTrap):
            mmu.translate_range(PAGE - 4, 8, write=True)


class TestKsegRunToggle:
    """``set_kseg_writable_run`` must be observably equal to the loop of
    ``set_kseg_writable`` it stands for."""

    @staticmethod
    def _observe(apply, *, record: bool, arm_at: int | None = None):
        from repro.obs.events import FlightRecorder

        mmu = MMU(PhysicalMemory(8 * PAGE))
        mmu.recorder = FlightRecorder()
        mmu.set_kseg_writable(2, False)  # a pre-existing mix of states
        mmu.set_kseg_writable(5, False)
        before = mmu.generation
        if record:
            mmu.recorder.start()
        if arm_at is not None:

            def die(event):
                raise RuntimeError(f"armed at {event.payload['pfn']}")

            mmu.recorder.arm_crash(arm_at, die)
        raised = None
        try:
            apply(mmu)
        except (MachineCheck, RuntimeError) as exc:
            raised = (type(exc).__name__, str(exc))
        return (
            dict(mmu._kseg_writable),
            mmu.stat_pte_toggles,
            mmu.generation - before,
            [(e.seq, e.kind, e.op, dict(e.payload)) for e in mmu.recorder.events()],
            raised,
        )

    @staticmethod
    def _both(pfns, writable, **kwargs):
        def loop(mmu):
            for pfn in pfns:
                mmu.set_kseg_writable(pfn, writable)

        run = TestKsegRunToggle._observe(
            lambda mmu: mmu.set_kseg_writable_run(pfns, writable), **kwargs
        )
        assert run == TestKsegRunToggle._observe(loop, **kwargs)
        return run

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("writable", [False, True])
    @pytest.mark.parametrize(
        "pfns", [[], [3], [1, 2, 3, 4, 5, 6], [6, 2, 2, 5], range(0, 8)]
    )
    def test_equals_the_loop(self, pfns, writable, record):
        table, toggles, moved, events, raised = self._both(pfns, writable, record=record)
        assert raised is None
        assert (moved > 0) == (toggles > 2)  # generation moves iff a frame toggled
        assert len(events) == (toggles - 2 if record else 0)
        if record:  # one event per toggled frame, in frame order
            assert [e[3]["pfn"] for e in events] == [
                pfn for pfn in dict.fromkeys(pfns) if (pfn in (2, 5)) == writable
            ]

    @pytest.mark.parametrize("record", [False, True])
    def test_nonexistent_frame_mid_run(self, record):
        table, toggles, _moved, events, raised = self._both(
            [1, 2, 99, 3], False, record=record
        )
        assert raised == ("MachineCheck", "kseg protection on nonexistent frame 99")
        assert table == {1: False, 2: False, 5: False}  # 1 applied, 3 never reached
        assert toggles == 3

    def test_armed_crash_fires_between_frames(self):
        """The explorer crashes *inside* ``emit``: the frames after the
        armed event must not have been touched yet."""
        table, toggles, _moved, events, raised = self._both(
            [1, 3, 4], False, record=True, arm_at=1
        )
        assert raised == ("RuntimeError", "armed at 3")
        assert table == {1: False, 2: False, 3: False, 5: False}
        assert [e[3]["pfn"] for e in events] == [1, 3]
