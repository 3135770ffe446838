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
from repro.workloads.andrew import AndrewBenchmark, AndrewParams
from repro.workloads.cp_rm import CpRmParams, CpRmWorkload
from repro.workloads.sdet import SdetParams, SdetWorkload

WORKLOAD_NAMES = ("cp_rm", "sdet", "andrew")

#: The 30-second update daemon, scaled to the scaled-down workloads: the
#: paper's runs span several daemon intervals (cp+rm of 40 MB took 81+ s
#: against a 30 s daemon), so ours must too, or delayed-write systems
#: would never issue a single write and the Rio-vs-delayed comparison
#: would degenerate.  The ratio of run length to flush interval, not the
#: absolute 30 s, is what Table 2 exercises.
_UPDATE_INTERVAL_NS = 1_000_000_000


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


def _collect_disk_stats(system) -> dict:
    stats = system.disk.stats
    return {
        "reads": stats.reads,
        "writes": stats.writes,
        "sync_writes": stats.sync_writes,
        "sectors_written": stats.sectors_written,
    }


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
        result = bench.run()
        return WorkloadResult(
            system=system_key,
            workload=workload,
            seconds=result.total_seconds,
            cp_seconds=result.cp_seconds,
            rm_seconds=result.rm_seconds,
            disk_stats=_collect_disk_stats(system),
        )
    if workload == "sdet":
        bench = SdetWorkload(vfs, kernel, sdet_params)
        seconds = bench.run()
        return WorkloadResult(
            system=system_key,
            workload=workload,
            seconds=seconds,
            disk_stats=_collect_disk_stats(system),
        )
    if workload == "andrew":
        bench = AndrewBenchmark(vfs, kernel, andrew_params)
        seconds = bench.run()
        return WorkloadResult(
            system=system_key,
            workload=workload,
            seconds=seconds,
            disk_stats=_collect_disk_stats(system),
        )
    raise KeyError(f"unknown workload {workload!r}; know {WORKLOAD_NAMES}")


def run_store_dense() -> dict:
    """Section 2.1 in numbers: virtual ns of 64 8 KB ``pwrite``s to one
    file on a freshly built Rio with no protection, the TLB method and
    code patching, ``{row: ns}``.  Under code patching the kernel text is
    rewritten and interpreted, so its extra cost is the checks it executes."""
    payload = bytes(range(256)) * 32
    elapsed = {}
    for row in ("rio_noprot", "rio_prot", "rio_patch"):
        system = build_system(spec_for_row(row))
        start = system.clock.now_ns
        fd = system.vfs.open("/stores", create=True)
        for i in range(64):
            system.vfs.pwrite(fd, payload, i * len(payload))
        system.vfs.close(fd)
        elapsed[row] = system.clock.now_ns - start
    return elapsed


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
