"""Performance experiments: the Table 2 harness.

Eight system configurations (MFS, UFS-delayed, AdvFS, UFS, UFS
write-through-on-close, UFS write-through-on-write, Rio without
protection, Rio with protection) × three workloads (cp+rm, Sdet, Andrew),
timed on the virtual clock.
"""

from repro.perf.systems import TABLE2_SYSTEMS, Table2System, spec_for_row
from repro.perf.runner import WorkloadResult, run_store_dense, run_workload, run_table2
from repro.perf.report import Table2, format_store_dense, format_table2, ratio_summary

__all__ = [
    "TABLE2_SYSTEMS",
    "Table2System",
    "spec_for_row",
    "WorkloadResult",
    "run_store_dense",
    "run_workload",
    "run_table2",
    "Table2",
    "format_store_dense",
    "format_table2",
    "ratio_summary",
]
