"""Run the Table 2 workloads on configured systems and time them.

Times are virtual seconds from the simulated clock: CPU cost from the
instruction/cost model plus disk time from the disk model.  Workload
runs start from a freshly built system (cold caches except where the
workload's own setup warms them, as on the paper's testbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.kernel import KernelConfig
from repro.perf.systems import TABLE2_KEYS, spec_for_row
from repro.system import SystemSpec, build_system
from repro.util import pattern_bytes
from repro.workloads.andrew import AndrewBenchmark, AndrewParams
from repro.workloads.cp_rm import CpRmParams, CpRmWorkload
from repro.workloads.debit_credit import DebitCreditWorkload
from repro.workloads.sdet import SdetParams, SdetWorkload

WORKLOAD_NAMES = ("cp_rm", "sdet", "andrew")

#: The 30-second update daemon, scaled to the scaled-down workloads: the
#: paper's runs span several daemon intervals (cp+rm of 40 MB took 81+ s
#: against a 30 s daemon), so ours must too, or delayed-write systems
#: would never issue a single write and the Rio-vs-delayed comparison
#: would degenerate.  The ratio of run length to flush interval, not the
#: absolute 30 s, is what Table 2 exercises.
_UPDATE_INTERVAL_NS = 1_000_000_000

#: One 8 KB page of the section 2.1 and 2.3 runs.
_PAYLOAD = bytes(range(256)) * 32


@dataclass
class WorkloadResult:
    system: str
    workload: str
    seconds: float
    #: cp+rm reports its phase split, like Table 2's "81 (76+5)".
    cp_seconds: Optional[float] = None
    rm_seconds: Optional[float] = None
    disk_stats: dict = field(default_factory=dict)

    def cell(self) -> str:
        def fmt(value: float) -> str:
            return f"{value:.1f}" if value < 10 else f"{value:.0f}"

        if self.cp_seconds is not None:
            return f"{fmt(self.seconds)} ({fmt(self.cp_seconds)}+{fmt(self.rm_seconds)})"
        return fmt(self.seconds)


def run_workload(
    system_key: str,
    workload: str,
    cp_rm_params: CpRmParams | None = None,
    sdet_params: SdetParams | None = None,
    andrew_params: AndrewParams | None = None,
) -> WorkloadResult:
    """Build the system and run one workload on it."""
    # Perf runs need room for source + destination trees on disk.
    base = SystemSpec(fs_blocks=2048, kernel=KernelConfig(update_interval_ns=_UPDATE_INTERVAL_NS))
    system = build_system(spec_for_row(system_key, base))
    vfs, kernel = system.vfs, system.kernel

    mount = system.row.mfs_mount
    if mount:
        # Benchmark targets live on the memory file system.
        cp_rm_params = replace(cp_rm_params or CpRmParams(), dst_root=f"{mount}/dst")
        sdet_params = replace(sdet_params or SdetParams(), root=f"{mount}/sdet")
        andrew_params = replace(andrew_params or AndrewParams(), root=f"{mount}/andrew")

    if workload == "cp_rm":
        bench = CpRmWorkload(vfs, kernel, cp_rm_params)
        bench.setup()
        system.drop_caches()  # the timed phase starts with a cold cache
        split = bench.run()
        result = WorkloadResult(
            system_key, workload, split.total_seconds, split.cp_seconds, split.rm_seconds
        )
    elif workload == "sdet":
        result = WorkloadResult(system_key, workload, SdetWorkload(vfs, kernel, sdet_params).run())
    elif workload == "andrew":
        bench = AndrewBenchmark(vfs, kernel, andrew_params)
        result = WorkloadResult(system_key, workload, bench.run())
    else:
        raise KeyError(f"unknown workload {workload!r}; know {WORKLOAD_NAMES}")
    stats = system.disk.stats
    result.disk_stats = {
        name: getattr(stats, name) for name in ("reads", "writes", "sync_writes", "sectors_written")
    }
    return result


def run_store_dense() -> dict:
    """Section 2.1 in numbers: virtual ns of 64 8 KB ``pwrite``s to one
    file on a freshly built Rio with no protection, the TLB method and
    code patching, ``{row: ns}``.  Under code patching the kernel text is
    rewritten and interpreted, so its extra cost is the checks it executes."""
    elapsed = {}
    for row in ("rio_noprot", "rio_prot", "rio_patch"):
        system = build_system(spec_for_row(row))
        start = system.clock.now_ns
        fd = system.vfs.open("/stores", create=True)
        for i in range(64):
            system.vfs.pwrite(fd, _PAYLOAD, i * len(_PAYLOAD))
        system.vfs.close(fd)
        elapsed[row] = system.clock.now_ns - start
    return elapsed


def run_overflow() -> dict:
    """Section 2.3 in numbers: 1 800 8 KB writes into one file on Rio
    with protection over a 4 096-block file system (the default 1 024
    blocks fit in the UBC), so that only cache overflow writes: the
    UBC's capacity, sweeps and evictions, and the disk's writes."""
    pages = 1800
    system = build_system(spec_for_row("rio_prot", SystemSpec(fs_blocks=4096)))
    fd = system.vfs.open("/overflow", create=True)
    for _ in range(pages):
        system.vfs.write(fd, _PAYLOAD)
    system.vfs.close(fd)
    ubc = system.kernel.ubc
    return {"pages": pages, "capacity": ubc.capacity, "writes": system.disk.stats.writes,
            "sweeps": ubc.stat_clean_sweeps, "evictions": ubc.stat_evictions}


def run_debit_credit() -> dict:
    """Section 6's debit/credit workload, default parameters (one fsync
    per commit), per row: ``{row: DebitCreditResult}``."""
    results = {}
    for row in ("rio_noprot", "rio_prot", "wt_write"):
        system = build_system(spec_for_row(row))
        bench = DebitCreditWorkload(system.vfs, system.kernel)
        bench.setup()
        results[row] = bench.run()
    return results


def run_warm_reboot() -> tuple:
    """Section 2.2 in numbers: 2 MB dirty on Rio (16 files of 128 KB), a
    crash and the warm reboot: its report, and its virtual ns as the
    reset (``boot_time_ns``), the dump (the swap disk's busy time) and
    the restore (the rest), ``{"total", "reset", "dump", "restore"}``."""
    system = build_system(SystemSpec("rio_prot"))
    for i in range(16):
        fd = system.vfs.open(f"/file{i:03d}", create=True)
        system.vfs.write(fd, pattern_bytes(i, 0, 128 * 1024))
        system.vfs.close(fd)
    system.crash("section 2.2")
    swap = system.swap.disk.stats
    began, busy = system.clock.now_ns, swap.busy_ns
    report = system.reboot()
    total, dump = system.clock.now_ns - began, swap.busy_ns - busy
    reset = system.machine.config.boot_time_ns
    return report, {"total": total, "reset": reset, "dump": dump, "restore": total - reset - dump}


def run_table2(
    systems: tuple = TABLE2_KEYS,
    workloads: tuple = WORKLOAD_NAMES,
    **workload_params,
) -> dict:
    """Run the full Table 2 grid; returns {(system, workload): result}."""
    results = {}
    for system_key in systems:
        for workload in workloads:
            results[(system_key, workload)] = run_workload(
                system_key, workload, **workload_params
            )
    return results
