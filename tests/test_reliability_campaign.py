"""Tests for the crash-test campaign (Table 1 harness).

Full campaigns are ``repro table1 --scale N`` territory; these tests
exercise single runs and a miniature campaign to validate the machinery.
"""

import pytest

from repro.analysis import mttf_table
from repro.faults import FaultType
from repro.reliability import (
    CrashTestConfig,
    SYSTEM_NAMES,
    format_table1,
    run_crash_test,
    run_table1_campaign,
    system_spec_for,
)
from repro.reliability.report import Table1


class TestSystemSpecs:
    def test_three_systems(self):
        assert SYSTEM_NAMES == ("disk", "rio_noprot", "rio_prot")

    def test_disk_system_has_no_rio(self):
        assert system_spec_for("disk").rio is None

    def test_rio_systems(self):
        from repro.core import ProtectionMode

        assert system_spec_for("rio_noprot").rio.protection is ProtectionMode.NONE
        assert system_spec_for("rio_prot").rio.protection is ProtectionMode.VM_KSEG

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
        table = run_table1_campaign(
            crashes_per_cell=2,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT, FaultType.SOURCE_REG),
            base_seed=500,
        )
        assert table.total_crashes("rio_prot") == 4
        cell = table.cell("rio_prot", FaultType.KERNEL_TEXT)
        assert cell.crashes == 2
        assert cell.crash_kinds

    def test_format_table1(self):
        table = run_table1_campaign(
            crashes_per_cell=1,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT,),
            base_seed=600,
        )
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
        return run_table1_campaign(
            crashes_per_cell=2,
            systems=("disk",),
            fault_types=(FaultType.KERNEL_TEXT, FaultType.DELETE_BRANCH),
            base_seed=700,
        )

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
        mttf = mttf_table({"disk": (disk_table.total_corruptions("disk"), crashes)})
        assert crashes == 4 and mttf["disk"] > 0.3
