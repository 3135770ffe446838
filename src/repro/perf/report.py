"""Table 2 formatting and the paper's headline performance ratios."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import ENTRY_SIZE
from repro.perf.runner import WORKLOAD_NAMES
from repro.perf.systems import TABLE2_SYSTEMS

WORKLOAD_LABELS = {
    "cp_rm": "cp+rm (seconds)",
    "sdet": "Sdet (5 scripts) (seconds)",
    "andrew": "Andrew (seconds)",
}


@dataclass
class Table2:
    """Structured Table 2 results."""

    results: dict = field(default_factory=dict)  # (system, workload) -> WorkloadResult

    def seconds(self, system: str, workload: str) -> float:
        return self.results[(system, workload)].seconds

    def ratio(self, slow_system: str, fast_system: str, workload: str) -> float:
        """How many times faster ``fast_system`` is on ``workload``."""
        fast = self.seconds(fast_system, workload)
        if fast <= 0:
            return float("inf")
        return self.seconds(slow_system, workload) / fast

    def ratio_range(self, slow_system: str, fast_system: str) -> tuple[float, float]:
        ratios = [
            self.ratio(slow_system, fast_system, w)
            for w in WORKLOAD_NAMES
            if (slow_system, w) in self.results and (fast_system, w) in self.results
        ]
        return (min(ratios), max(ratios))


def format_table2(table: Table2) -> str:
    """Render in the paper's Table 2 layout."""
    name_width = 44
    col_width = 18
    header = (
        "System".ljust(name_width)
        + "Data Permanent".ljust(50)
        + "".join(WORKLOAD_LABELS[w].ljust(col_width + 10) for w in WORKLOAD_NAMES)
    )
    lines = [header, "-" * len(header)]
    for row in TABLE2_SYSTEMS:
        line = row.label.ljust(name_width) + row.data_permanent.ljust(50)
        for workload in WORKLOAD_NAMES:
            result = table.results.get((row.key, workload))
            line += (result.cell() if result else "-").ljust(col_width + 10)
        lines.append(line)
    return "\n".join(lines)


def ratio_summary(table: Table2) -> dict:
    """The paper's headline claims, as measured ratio ranges:

    * Rio is 4-22x as fast as the write-through systems,
    * 2-14x as fast as the default UFS,
    * 1-3x as fast as the delayed (no-order) UFS,
    * protection adds essentially no overhead,
    * Rio performs about as fast as MFS.
    """
    rio = "rio_prot"
    summary = {
        "rio_vs_wt_write": table.ratio_range("wt_write", rio),
        "rio_vs_wt_close": table.ratio_range("wt_close", rio),
        "rio_vs_ufs": table.ratio_range("ufs", rio),
        "rio_vs_delayed": table.ratio_range("ufs_delayed", rio),
        "rio_vs_advfs": table.ratio_range("advfs", rio),
        "protection_overhead": table.ratio_range("rio_prot", "rio_noprot"),
        "rio_vs_mfs": table.ratio_range("rio_prot", "mfs"),
    }
    return summary


def format_ratio_summary(summary: dict) -> str:
    lines = ["Headline ratios (min-max across workloads):"]
    labels = {
        "rio_vs_wt_write": "Rio vs UFS write-through-on-write (paper: 4-22x)",
        "rio_vs_wt_close": "Rio vs UFS write-through-on-close (paper: 4-22x)",
        "rio_vs_ufs": "Rio vs default UFS                (paper: 2-14x)",
        "rio_vs_delayed": "Rio vs UFS delayed/no-order       (paper: 1-3x)",
        "rio_vs_advfs": "Rio vs AdvFS",
        "protection_overhead": "Rio+P time / Rio-P time           (paper: ~1.0x)",
        "rio_vs_mfs": "Rio time / MFS time               (paper: ~1.0x)",
    }
    for key, (low, high) in summary.items():
        lines.append(f"  {labels.get(key, key)}: {low:.1f}x - {high:.1f}x")
    return "\n".join(lines)


def format_store_dense(elapsed: dict) -> str:
    """One line: each protection's cost over Rio without protection on
    :func:`repro.perf.runner.run_store_dense`'s run."""
    base = elapsed["rio_noprot"]
    tlb = (elapsed["rio_prot"] / base - 1.0) * 100
    patch = (elapsed["rio_patch"] / base - 1.0) * 100
    return (
        "Section 2.1, 64 x 8 KB pwrites over Rio without protection: "
        f"TLB protection {tlb:+.2f} % (paper: ~0 %), "
        f"code patching {patch:+.1f} % (paper: 20-50 %)"
    )


def format_overflow(run: dict) -> str:
    """One line from :func:`repro.perf.runner.run_overflow`."""
    return (
        f"Section 2.3, {run['pages']} x 8 KB writes into one file past the {run['capacity']}-page "
        f"UBC on Rio with protection: {run['writes']} disk writes from {run['sweeps']} overflow "
        f"sweep, {run['evictions']} evictions (paper: Rio writes to disk only on overflow)"
    )


def format_debit_credit(results: dict) -> str:
    """One line from :func:`repro.perf.runner.run_debit_credit`."""
    rio, wt = results["rio_prot"], results["wt_write"]
    cost = (rio.seconds / results["rio_noprot"].seconds - 1.0) * 100
    return (
        f"Section 6, debit/credit ({rio.transactions} commits): Rio {rio.tps:.1f} tps, "
        f"write-through {wt.tps:.1f} tps ({rio.tps / wt.tps:.0f}x); "
        f"protection {cost:+.1f} % (paper: expose-page 7 %)"
    )


def format_warm_reboot(split: dict) -> str:
    """One line from :func:`repro.perf.runner.run_warm_reboot`'s split,
    with the registry's entry size."""
    s = {key: ns / 1e9 for key, ns in split.items()}
    return (
        f"Section 2.2, warm reboot with 2 MB dirty: {s['total']:.1f} s = {s['reset']:.0f} s reset "
        f"+ {s['dump']:.2f} s dump + {s['restore']:.1f} s restore; a {ENTRY_SIZE} B registry "
        "entry per 8 KB page (paper: 40 B)"
    )
