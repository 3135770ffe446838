"""Tests for the fault-propagation analysis (footnote 2, implemented)."""

from repro.faults import FaultType
from repro.reliability import CampaignEngine
from repro.reliability.propagation import (
    PropagationSummary,
    format_propagation,
    summarize_propagation,
)


class TestSummary:
    def test_add_and_median(self):
        summary = PropagationSummary()
        for ops in (10, 50, 20):
            summary.add(FaultType.POINTER, "machine_check", ops, False)
        summary.add(FaultType.POINTER, "panic", 5, True)
        assert summary.matrix[(FaultType.POINTER, "machine_check")] == 3
        assert summary.matrix[(FaultType.POINTER, "panic")] == 1
        # Sorted samples are [5, 10, 20, 50]: even length, so median_low
        # is the lower middle element (the old code returned the upper).
        assert summary.median_incubation(FaultType.POINTER) == 10
        assert summary.corruptions[FaultType.POINTER] == 1

    def test_median_odd_parity(self):
        summary = PropagationSummary()
        for ops in (50, 10, 20):
            summary.add(FaultType.POINTER, "machine_check", ops, False)
        assert summary.median_incubation(FaultType.POINTER) == 20

    def test_median_even_parity_is_lower_middle(self):
        summary = PropagationSummary()
        for ops in (40, 10, 30, 20):
            summary.add(FaultType.POINTER, "machine_check", ops, False)
        # median_low keeps the statistic an *observed* op count (20)
        # rather than interpolating 25, and never the upper element (30).
        assert summary.median_incubation(FaultType.POINTER) == 20

    def test_empty_median(self):
        assert PropagationSummary().median_incubation(FaultType.POINTER) == 0

    def test_uninjected_bucket(self):
        summary = PropagationSummary()
        summary.add_uninjected(FaultType.POINTER)
        summary.add_uninjected(FaultType.POINTER)
        assert summary.uninjected[FaultType.POINTER] == 2
        assert summary.incubation_ops == {}

    def test_format_empty_matrix_is_typed(self):
        """An all-uninjected summary (every crash predated its injection,
        as in crash-point-explorer trials) renders the typed one-liner,
        not a bare header over zero rows."""
        text = format_propagation(PropagationSummary())
        assert "no crashed trials with an injected fault" in text

    def test_format_empty_matrix_counts_uninjected(self):
        summary = PropagationSummary()
        summary.add_uninjected(FaultType.POINTER)
        text = format_propagation(summary)
        assert "no propagation to attribute" in text
        assert "1 crashed trial(s) with no fault injected" in text


    def test_format_header_keeps_long_kinds_apart(self):
        """``illegal_instruction`` is 19 characters: a fixed 18-wide
        column ran it into the next label."""
        summary = PropagationSummary()
        summary.add(FaultType.KERNEL_TEXT, "illegal_instruction", 3, False)
        summary.add(FaultType.KERNEL_TEXT, "machine_check", 5, False)
        header, rule, row = format_propagation(summary).splitlines()
        assert header.split() == [
            "Fault", "Type", "illegal_instruction", "machine_check", "corrupted", "median", "ops",
        ]
        assert row.split() == ["kernel", "text", "1", "1", "0", "3"]


class TestUninjectedCrashes:
    def test_summarize_excludes_uninjected_trials(self):
        """A trial that crashed before its injection point (e.g. a latent
        bug) has injected_at_op == -1; it must not contribute ops_run -
        (-1) to the incubation distribution (the old behavior)."""
        from repro.reliability.campaign import CrashTestConfig, CrashTestResult
        from repro.reliability.report import Table1

        table = Table1(crashes_per_cell=2)
        cell = table.cell("rio_prot", FaultType.POINTER)
        config = CrashTestConfig(system="rio_prot", fault_type=FaultType.POINTER)
        uninjected = CrashTestResult(
            config=config, crashed=True, crash_kind="panic",
            ops_run=37, injected_at_op=-1,
        )
        normal = CrashTestResult(
            config=config, crashed=True, crash_kind="machine_check",
            ops_run=50, injected_at_op=40,
        )
        cell.record(uninjected)
        cell.record(normal)
        summary = summarize_propagation(table, "rio_prot")
        assert summary.uninjected[FaultType.POINTER] == 1
        assert summary.incubation_ops[FaultType.POINTER] == [10]
        assert summary.median_incubation(FaultType.POINTER) == 10
        text = format_propagation(summary)
        assert "no fault injected" in text


class TestEndToEnd:
    def test_campaign_propagation(self):
        table = CampaignEngine(
            crashes_per_cell=2,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT, FaultType.SYNCHRONIZATION),
            base_seed=1300,
        ).run()
        summary = summarize_propagation(table, "rio_prot")
        assert sum(summary.matrix.values()) == 4
        text = format_propagation(summary)
        assert "kernel text" in text
        assert "median ops" in text

    def test_incubation_uses_injection_offset(self):
        table = CampaignEngine(
            crashes_per_cell=1,
            systems=("rio_prot",),
            fault_types=(FaultType.SYNCHRONIZATION,),
            base_seed=1400,
        ).run()
        summary = summarize_propagation(table, "rio_prot")
        (ops_list,) = summary.incubation_ops.values()
        cell = table.cell("rio_prot", FaultType.SYNCHRONIZATION)
        result = next(r for r in cell.results if r.crashed)
        assert ops_list[0] == result.ops_run - result.injected_at_op
