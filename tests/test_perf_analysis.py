"""Tests for the Table 2 harness and section 3.3's MTTF model."""

import pytest

from repro.core import ProtectionMode
from repro.perf import (
    TABLE2_SYSTEMS,
    Table2,
    format_table2,
    ratio_summary,
    run_store_dense,
    run_workload,
    spec_for_row,
)
from repro.reliability.report import PAPER_RATES, mttf_years
from repro.system import build_system
from repro.workloads.andrew import AndrewParams
from repro.workloads.cp_rm import CpRmParams
from repro.workloads.sdet import SdetParams

SMALL_CP = CpRmParams(dirs=3, files_per_dir=3, mean_file_bytes=8 * 1024)
SMALL_SDET = SdetParams(scripts=2, files_per_script=3)
SMALL_ANDREW = AndrewParams(dirs=2, files_per_dir=2)


class TestSystemRows:
    def test_eight_rows(self):
        assert len(TABLE2_SYSTEMS) == 8

    def test_specs_resolve(self):
        for row in TABLE2_SYSTEMS:
            spec = spec_for_row(row.key)
            assert spec is not None

    def test_code_patching_ablation_row(self):
        system = build_system(spec_for_row("rio_patch"))
        assert system.rio.config.protection is ProtectionMode.CODE_PATCHING

    def test_unknown_row(self):
        with pytest.raises(ValueError):
            spec_for_row("ext4")

    def test_perf_specs_disable_checksums(self):
        assert spec_for_row("rio_prot").checksums is False
        assert build_system(spec_for_row("rio_prot")).rio.config.maintain_checksums is False


class TestRunner:
    def test_cp_rm_reports_phase_split(self):
        result = run_workload("rio_prot", "cp_rm", cp_rm_params=SMALL_CP)
        assert result.cp_seconds is not None
        assert result.seconds == pytest.approx(result.cp_seconds + result.rm_seconds)

    def test_rio_issues_no_reliability_writes_during_run(self):
        result = run_workload("rio_prot", "sdet", sdet_params=SMALL_SDET)
        assert result.disk_stats["sync_writes"] == 0

    def test_wt_write_slower_than_rio(self):
        rio = run_workload("rio_prot", "sdet", sdet_params=SMALL_SDET)
        wt = run_workload("wt_write", "sdet", sdet_params=SMALL_SDET)
        assert wt.seconds > 2 * rio.seconds

    def test_protection_essentially_free(self):
        noprot = run_workload("rio_noprot", "andrew", andrew_params=SMALL_ANDREW)
        prot = run_workload("rio_prot", "andrew", andrew_params=SMALL_ANDREW)
        assert prot.seconds <= noprot.seconds * 1.05

    def test_code_patching_slower_than_vm_protection(self):
        """Section 2.1: code patching costs 20-50%; the TLB method ~0."""
        vm = run_workload("rio_prot", "cp_rm", cp_rm_params=SMALL_CP)
        patch = run_workload("rio_patch", "cp_rm", cp_rm_params=SMALL_CP)
        assert patch.seconds > vm.seconds

    def test_code_patching_overhead_band_on_a_store_dense_run(self):
        """Section 2.1 in numbers, virtual time: 64 x 8 KB file writes
        under each protection mode on otherwise identical Rio systems.
        Under CODE_PATCHING the kernel text really is rewritten and
        interpreted, so the overhead is the extra instructions executed.
        (That every store pays a check is pinned in
        ``test_isa_patch.py``.)"""
        elapsed = run_store_dense()
        base = elapsed["rio_noprot"]
        # The TLB method is essentially free (paper: ~0%) ...
        assert elapsed["rio_prot"] / base - 1.0 < 0.02
        # ... code patching lands in or near the paper's 20-50%.
        assert 0.10 <= elapsed["rio_patch"] / base - 1.0 <= 0.80

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            run_workload("rio_prot", "tpcc")

    def test_mfs_runs_on_memory_mount(self):
        result = run_workload("mfs", "sdet", sdet_params=SMALL_SDET)
        assert result.seconds > 0


class TestReport:
    def make_table(self):
        table = Table2()
        for key, seconds in (
            ("rio_prot", 25.0),
            ("rio_noprot", 24.0),
            ("mfs", 21.0),
            ("wt_write", 539.0),
            ("wt_close", 394.0),
            ("ufs", 332.0),
            ("ufs_delayed", 81.0),
            ("advfs", 125.0),
        ):
            from repro.perf.runner import WorkloadResult

            table.results[(key, "cp_rm")] = WorkloadResult(key, "cp_rm", seconds, 1, 1)
        return table

    def test_ratios_reproduce_paper_arithmetic(self):
        table = self.make_table()
        assert table.ratio("wt_write", "rio_prot", "cp_rm") == pytest.approx(21.56)
        assert table.ratio("ufs_delayed", "rio_prot", "cp_rm") == pytest.approx(3.24)

    def test_ratio_summary_keys(self):
        summary = ratio_summary(self.make_table())
        assert set(summary) >= {
            "rio_vs_wt_write",
            "rio_vs_ufs",
            "rio_vs_delayed",
            "protection_overhead",
            "rio_vs_mfs",
        }

    def test_format_contains_all_rows(self):
        text = format_table2(self.make_table())
        for row in TABLE2_SYSTEMS:
            assert row.label in text


class TestMttf:
    def test_paper_numbers(self):
        """Crash every 2 months: disk 7/650 -> ~15.5 yr, Rio-P 10/650 ->
        ~10.8 yr (the paper rounds to 15 and 11)."""
        table = {name: mttf_years(*rates) for name, rates in PAPER_RATES.items()}
        assert table["disk"] == pytest.approx(15.47, abs=0.05)
        assert table["rio_noprot"] == pytest.approx(10.83, abs=0.05)
        assert table["rio_prot"] == pytest.approx(27.08, abs=0.05)

    def test_zero_corruptions_is_infinite(self):
        assert mttf_years(0, 650) == float("inf")

    def test_validates_crashes(self):
        with pytest.raises(ValueError):
            mttf_years(1, 0)
