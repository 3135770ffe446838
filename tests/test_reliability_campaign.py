"""Tests for the crash-test campaign (Table 1 harness).

Full campaigns are ``repro table1 --scale N`` territory; these tests
exercise single runs and a miniature campaign to validate the machinery.
"""

import pytest

from repro.faults import FaultType
from repro.hw.memory import PAGE_SIZE
from repro.hw.mmu import KSEG_BASE
from repro.kernel.layout import KTEXT_BASE
from repro.reliability import (
    CampaignEngine,
    CrashTestConfig,
    SYSTEM_NAMES,
    format_table1,
    run_crash_test,
    system_spec_for,
)
from repro.reliability.report import Table1, mttf_years
from repro.system import build_system


class TestSystemSpecs:
    def test_three_systems(self):
        assert SYSTEM_NAMES == ("disk", "rio_noprot", "rio_prot")

    def test_disk_system_has_no_rio(self):
        assert build_system(system_spec_for("disk")).rio is None

    def test_rio_systems(self):
        from repro.core import ProtectionMode

        for name, mode in (("rio_noprot", ProtectionMode.NONE), ("rio_prot", ProtectionMode.VM_KSEG)):
            assert build_system(system_spec_for(name)).rio.config.protection is mode

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            system_spec_for("zfs")


class TestSingleRuns:
    def test_text_fault_run_crashes_and_recovers(self):
        result = run_crash_test(
            CrashTestConfig(system="rio_prot", fault_type=FaultType.KERNEL_TEXT, seed=3)
        )
        assert result.crashed
        assert result.crash_kind
        assert result.memtest_progress > 0

    def test_trapped_allocation_fault_recovers_uncorrupted(self):
        # Table 1's first rio_prot/allocation trial: the protection trap
        # stops the kernel with a premature free still pending.  That free
        # died with its kernel, so the warm reboot recovers a clean cache.
        result = run_crash_test(
            CrashTestConfig(
                system="rio_prot", fault_type=FaultType.ALLOCATION, seed=187601001
            )
        )
        assert result.protection_trap
        assert not result.recovery_failed
        assert not result.corrupted

    def test_a_trap_on_kernel_text_saves_nothing(self):
        # Table 1's disk/source reg. trial that read "[1 trapped]": the wild
        # store hits the kernel text every system maps read-only.  It is a
        # crash of kind protection_trap, but no file page was at stake.
        result = run_crash_test(
            CrashTestConfig(system="disk", fault_type=FaultType.SOURCE_REG, seed=216341037)
        )
        assert result.crash_kind == "protection_trap"
        assert result.crash_reason == f"store to protected vpn {KTEXT_BASE // PAGE_SIZE}"
        assert not result.protection_trap

    def test_only_rio_pages_are_guarded(self):
        system = build_system(system_spec_for("rio_prot"))
        protection, cache = system.rio.protection, system.kernel.buffer_cache
        assert protection.guards(KSEG_BASE + system.kernel.registry_frames[0] * PAGE_SIZE)
        assert protection.guards(cache.base_vaddr)
        assert not protection.guards(cache.base_vaddr + cache.capacity * PAGE_SIZE)
        assert not protection.guards(KTEXT_BASE) and not protection.guards(None)
        unprotected = build_system(system_spec_for("rio_noprot")).rio.protection
        assert not unprotected.guards(cache.base_vaddr)

    def test_deterministic_given_seed(self):
        config = dict(system="rio_noprot", fault_type=FaultType.POINTER, seed=8)
        a = run_crash_test(CrashTestConfig(**config))
        b = run_crash_test(CrashTestConfig(**config))
        assert a.crashed == b.crashed
        assert a.crash_kind == b.crash_kind
        assert a.ops_run == b.ops_run
        assert a.corrupted == b.corrupted

    def test_panic_crash_carries_numeric_code(self):
        # Heap faults reliably hit a consistency-check panic within a few
        # seeds; the result must then carry the panic's numeric code.
        from repro.isa.interpreter import PANIC_MESSAGES

        for seed in range(1, 30):
            result = run_crash_test(
                CrashTestConfig(
                    system="rio_prot", fault_type=FaultType.KERNEL_HEAP, seed=seed
                )
            )
            if result.crash_kind == "panic" and result.panic_code is not None:
                assert result.panic_code in PANIC_MESSAGES
                break
        else:
            pytest.fail("no coded panic in 29 seeds")

    def test_run_result_counts_protection_trap(self):
        # Seed chosen to trigger the trap path (copy overrun, protected).
        for seed in range(20, 40):
            result = run_crash_test(
                CrashTestConfig(
                    system="rio_prot", fault_type=FaultType.COPY_OVERRUN, seed=seed
                )
            )
            if result.protection_trap:
                assert result.crash_kind == "protection_trap"
                break
        else:
            pytest.fail("no protection trap in 20 seeds")

    def test_discarded_run_reports_no_corruption(self):
        # Stack faults often leave the system running: the run is
        # discarded, exactly as in the paper.
        for seed in range(1, 12):
            result = run_crash_test(
                CrashTestConfig(
                    system="disk", fault_type=FaultType.KERNEL_STACK, seed=seed
                )
            )
            if result.discarded:
                assert not result.crashed
                assert not result.corrupted
                break
        else:
            pytest.fail("no discarded run in 11 seeds")


class TestMiniCampaign:
    def test_small_campaign_structure(self):
        table = CampaignEngine(
            crashes_per_cell=2,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT, FaultType.SOURCE_REG),
            base_seed=500,
        ).run()
        assert table.total_crashes("rio_prot") == 4
        cell = table.cell("rio_prot", FaultType.KERNEL_TEXT)
        assert cell.crashes == 2
        assert cell.crash_kinds

    def test_format_table1(self):
        table = CampaignEngine(
            crashes_per_cell=1,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT,),
            base_seed=600,
        ).run()
        text = format_table1(table, systems=("rio_prot",))
        assert "kernel text" in text
        assert "Total" in text
        assert "Rio with Protection" in text

    def test_corruption_rate_math(self):
        table = Table1(crashes_per_cell=50)
        cell = table.cell("disk", FaultType.KERNEL_TEXT)
        cell.crashes = 50
        cell.corruptions = 2
        assert table.corruption_rate("disk") == pytest.approx(0.04)
        assert table.total_corruptions("disk") == 2

    @pytest.fixture(scope="class")
    def disk_table(self):
        return CampaignEngine(
            crashes_per_cell=2,
            systems=("disk",),
            fault_types=(FaultType.KERNEL_TEXT, FaultType.DELETE_BRANCH),
            base_seed=700,
        ).run()

    def test_unique_crash_messages_counted(self, disk_table):
        assert disk_table.unique_crash_messages() >= 1

    def test_mini_campaign_has_table1_shape(self, disk_table):
        """What the paper-scale run is held to, at a scale tier-1 can
        afford: crashes come in several kinds, corruption is rare, and
        the section 3.3 MTTF computed from *measured* counts is
        plausible (a few crashes often measure zero -> infinite, so the
        bound is one-sided)."""
        kinds = set()
        for cell in disk_table.cells.values():
            kinds.update(cell.crash_kinds)
        assert {"panic", "machine_check"} <= kinds
        assert disk_table.corruption_rate("disk") < 0.20
        crashes = disk_table.total_crashes("disk")
        mttf = {"disk": mttf_years(disk_table.total_corruptions("disk"), crashes)}
        assert crashes == 4 and mttf["disk"] > 0.3
