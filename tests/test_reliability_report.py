"""Unit coverage for reliability/report.py: the cell accounting, seed
schedule, formatting, and the canonical digest the serial≡parallel
equivalence tests compare.

No campaigns run here — results are hand-built — so these are fast.
"""

import pytest

from repro.faults import FaultType
from repro.reliability import (
    CampaignCell,
    CrashTestConfig,
    CrashTestResult,
    Table1,
    format_table1,
    seed_for,
    table1_digest,
)
from repro.reliability.report import hash_cell


def make_result(**kw) -> CrashTestResult:
    return CrashTestResult(config=CrashTestConfig(), **kw)


class TestHashCell:
    def test_stable_golden_values(self):
        # The seed schedule is built on these; a change here silently
        # re-seeds every campaign, so they are pinned.
        assert hash_cell("disk", FaultType.KERNEL_TEXT) == 29779
        assert hash_cell("disk", FaultType.POINTER) == 31860
        assert hash_cell("rio_noprot", FaultType.KERNEL_TEXT) == 40057
        assert hash_cell("rio_prot", FaultType.KERNEL_TEXT) == 12392
        assert hash_cell("rio_prot", FaultType.POINTER) == 16633

    def test_distinct_across_table1_grid(self):
        values = {
            hash_cell(s, f)
            for s in ("disk", "rio_noprot", "rio_prot")
            for f in FaultType
        }
        assert len(values) == 39

    def test_seed_for_composes_hash_cell(self):
        assert seed_for(1000, "disk", FaultType.KERNEL_TEXT, 7) == 297791007
        assert (
            seed_for(1000, "rio_prot", FaultType.POINTER, 0)
            == 1000 + hash_cell("rio_prot", FaultType.POINTER) * 10_000
        )


class TestCampaignCellRecord:
    def test_discarded_counts_only_discarded(self):
        cell = CampaignCell("disk", FaultType.KERNEL_TEXT)
        cell.record(make_result(discarded=True))
        assert cell.discarded == 1
        assert cell.crashes == 0
        assert cell.corruptions == 0
        assert cell.crash_kinds == {}

    def test_recovery_failed_is_a_corruption(self):
        cell = CampaignCell("disk", FaultType.POINTER)
        cell.record(make_result(crashed=True, crash_kind="panic", recovery_failed=True))
        assert cell.crashes == 1
        assert cell.corruptions == 1

    def test_protection_trap_counted_as_save(self):
        cell = CampaignCell("rio_prot", FaultType.COPY_OVERRUN)
        cell.record(
            make_result(crashed=True, crash_kind="protection_trap", protection_trap=True)
        )
        assert cell.protection_trap_saves == 1
        assert cell.corruptions == 0

    def test_results_keep_record_order(self):
        cell = CampaignCell("disk", FaultType.KERNEL_TEXT)
        first = make_result(discarded=True)
        second = make_result(crashed=True, crash_kind="panic")
        cell.record(first)
        cell.record(second)
        assert cell.results == [first, second]
        assert cell.crashes == 1 and cell.discarded == 1


def build_sample_table() -> Table1:
    table = Table1(crashes_per_cell=2)
    cell = table.cell("disk", FaultType.KERNEL_TEXT)
    cell.record(make_result(crashed=True, crash_kind="panic"))
    cell.record(make_result(crashed=True, crash_kind="machine_check", checksum_mismatches=1))
    cell = table.cell("rio_prot", FaultType.KERNEL_TEXT)
    cell.record(make_result(crashed=True, crash_kind="protection_trap", protection_trap=True))
    cell.record(make_result(discarded=True))
    cell.record(make_result(crashed=True, crash_kind="panic"))
    cell = table.cell("disk", FaultType.POINTER)
    cell.record(make_result(crashed=True, crash_kind="panic", recovery_failed=True))
    return table


class TestTable1:
    def test_corruption_rate_zero_crashes_is_zero_not_nan(self):
        table = Table1(crashes_per_cell=50)
        table.cell("disk", FaultType.KERNEL_TEXT)  # cell exists, nothing recorded
        assert table.corruption_rate("disk") == 0.0
        assert table.corruption_rate("no_such_system") == 0.0

    def test_format_table1_golden(self):
        golden = (
            "Fault Type            Disk-Based                Rio with Protection       \n"
            "--------------------------------------------------------------------------\n"
            "kernel text           1                          [1 trapped]              \n"
            "pointer               1                         -                         \n"
            "--------------------------------------------------------------------------\n"
            "Total                 2 of 3 (66.7%)            0 of 2 (0.0%)             "
        )
        assert format_table1(build_sample_table(), systems=("disk", "rio_prot")) == golden

    def test_totals(self):
        table = build_sample_table()
        assert table.total_crashes("disk") == 3
        assert table.total_corruptions("disk") == 2
        assert table.corruption_rate("disk") == pytest.approx(2 / 3)
        assert table.trap_saves("rio_prot") == 1

    def test_digest_stable_and_order_sensitive_where_it_matters(self):
        a = build_sample_table()
        b = build_sample_table()
        assert table1_digest(a) == table1_digest(b)
        # A genuinely different outcome changes the digest.
        b.cell("disk", FaultType.KERNEL_TEXT).record(make_result(discarded=True))
        assert table1_digest(a) != table1_digest(b)

    def test_digest_ignores_cell_insertion_order(self):
        a = Table1(crashes_per_cell=1)
        a.cell("disk", FaultType.KERNEL_TEXT).record(make_result(crashed=True))
        a.cell("rio_prot", FaultType.POINTER).record(make_result(discarded=True))
        b = Table1(crashes_per_cell=1)
        b.cell("rio_prot", FaultType.POINTER).record(make_result(discarded=True))
        b.cell("disk", FaultType.KERNEL_TEXT).record(make_result(crashed=True))
        assert table1_digest(a) == table1_digest(b)
