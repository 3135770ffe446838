"""Fault-propagation analysis — the paper's declared future work.

Footnote 2 (section 3.3): "We plan to trace how faults propagate to
corrupt files and crash the system instead of treating the system as a
black box.  This is extremely challenging, however, and is beyond the
scope of this paper."

In a simulation it is not beyond scope: every run already knows what was
mutated (the injection record), what the kernel was doing when it died
(the crash reason), how long the fault incubated (operations and virtual
time from injection to crash), and what the detectors found.  This module
aggregates those facts into the fault-type × outcome matrix the paper
could only gesture at.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.faults.types import FaultType
from repro.reliability.report import Table1


@dataclass
class PropagationSummary:
    """Fault type -> outcome distribution for one campaign."""

    #: (fault type, crash kind) -> count
    matrix: dict = field(default_factory=dict)
    #: fault type -> [ops from injection to crash]
    incubation_ops: dict = field(default_factory=dict)
    #: fault type -> corruption count
    corruptions: dict = field(default_factory=dict)
    #: fault type -> count of crashed trials where no fault was ever
    #: injected (``injected_at_op == -1``).  Bucketed separately: such a
    #: trial has no injection point, so it has no incubation time.
    uninjected: dict = field(default_factory=dict)

    def add(self, fault_type: FaultType, kind: str, ops: int, corrupted: bool) -> None:
        key = (fault_type, kind)
        self.matrix[key] = self.matrix.get(key, 0) + 1
        self.incubation_ops.setdefault(fault_type, []).append(ops)
        if corrupted:
            self.corruptions[fault_type] = self.corruptions.get(fault_type, 0) + 1

    def add_uninjected(self, fault_type: FaultType) -> None:
        self.uninjected[fault_type] = self.uninjected.get(fault_type, 0) + 1

    def median_incubation(self, fault_type: FaultType) -> int:
        """Median ops from injection to crash, as ``statistics.median_low``.

        ``median_low`` so the statistic is always an *observed* op count:
        for an even number of samples it returns the lower of the two
        middle values rather than interpolating a half-operation that no
        trial actually exhibited.  (The previous ``ops[len(ops) // 2]``
        returned the *upper* middle element — not any accepted median.)
        """
        ops = self.incubation_ops.get(fault_type, [])
        return statistics.median_low(ops) if ops else 0


def summarize_propagation(table: Table1, system: str) -> PropagationSummary:
    """Build the propagation summary for one system of a campaign.

    Crashed trials whose fault was never injected (``injected_at_op ==
    -1``) carry no injection-to-crash information; they are counted in
    :attr:`PropagationSummary.uninjected` instead of polluting the
    incubation distribution with their whole run length.
    """
    summary = PropagationSummary()
    for (cell_system, fault_type), cell in table.cells.items():
        if cell_system != system:
            continue
        for result in cell.results:
            if not result.crashed:
                continue
            if result.injected_at_op < 0:
                summary.add_uninjected(fault_type)
                continue
            incubation = result.ops_run - result.injected_at_op
            summary.add(
                fault_type,
                result.crash_kind,
                max(0, incubation),
                result.corrupted,
            )
    return summary


def format_propagation(summary: PropagationSummary) -> str:
    """Render the fault-type × crash-kind matrix.

    An empty matrix (no crashed trial ever had a fault injected — e.g.
    a campaign of crash-point-explorer trials, or one whose every crash
    predates its injection op) renders a typed one-liner instead of a
    bare header over zero rows.
    """
    if not summary.matrix:
        lines = [
            "(no crashed trials with an injected fault — "
            "no propagation to attribute)"
        ]
        if summary.uninjected:
            total = sum(summary.uninjected.values())
            lines.append(
                f"(excluded: {total} crashed trial(s) with no fault injected)"
            )
        return "\n".join(lines)
    kinds = sorted({kind for (_, kind) in summary.matrix})
    fault_types = sorted(
        {fault for (fault, _) in summary.matrix}, key=lambda f: list(FaultType).index(f)
    )
    width = 22
    col = max(len(k) for k in kinds) + 2
    header = "Fault Type".ljust(width) + "".join(k.ljust(col) for k in kinds)
    header += "corrupted".rjust(10) + "median ops".rjust(12)
    lines = [header, "-" * len(header)]
    for fault in fault_types:
        row = fault.value.ljust(width)
        for kind in kinds:
            count = summary.matrix.get((fault, kind), 0)
            row += (str(count) if count else ".").ljust(col)
        row += str(summary.corruptions.get(fault, 0)).rjust(10)
        row += str(summary.median_incubation(fault)).rjust(12)
        lines.append(row)
    if summary.uninjected:
        total = sum(summary.uninjected.values())
        lines.append(
            f"(excluded: {total} crashed trial(s) with no fault injected)"
        )
    return "\n".join(lines)
