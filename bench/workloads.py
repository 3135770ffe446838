"""The eight workloads, composed from the program's public entry points.

Each workload function takes ``(seed, env)`` and returns one
:class:`Round`: the timed region's op count, the virtual-time numbers,
the deterministic per-layer counts, the correctness checks and a digest
over everything that must repeat.  Host time is charged to the ``setup``
/ ``timed`` / ``verify`` buckets of ``env.clock`` as the workload goes.
``env.scale`` shrinks the work (``--quick`` uses 0.1); 1.0 is the size
the benchmark reports.

Why each workload exists is recorded in ``BENCHMARK.json`` (and, with
sizes, in ``bench/README.md``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from bench import BenchError
from bench.hostclock import HostClock
from bench.layers import SystemCounters, delta
from bench.tracing import NullTracer

#: Rows of Table 2 each table2 workload runs, in run order.
TABLE2_RIO_ROWS = ("rio_prot", "rio_noprot", "mfs")
TABLE2_DISK_ROWS = ("ufs", "ufs_delayed", "advfs", "wt_close", "wt_write")
TABLE2_WORKLOADS = ("cp_rm", "sdet", "andrew")

#: Closed-loop load shape shared by every service workload.
FILES_PER_CLIENT = 4
PIPELINE = 4

#: Work per round at scale 1.0.  Sized so one round's timed region is
#: 1.5-8 s on a 2-core box and a whole driver run (up to three rounds
#: plus their set-up) ends in 7-11 s; see README "Sizes".
SIZES = {
    "table2": {"cp_dirs": 4, "sdet_files": 6, "andrew_dirs": 2},
    "serve_calm": {"clients": 16, "programs": 100},
    "serve_storm": {"clients": 16, "programs": 70, "crashes": 2},
    "tiered_disk": {"clients": 16, "programs": 150},
    "cluster_4x": {"clients": 64, "programs": 16, "shards": 4, "jobs": 2},
    "campaign_rio": {"attempts": 1, "max_ops_after_injection": 200},
    "explore_traffic": {"clients": 1, "programs": 2, "jobs": 2},
}


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def derive_seed(seed: int, name: str) -> int:
    """The workload's own seed: a pure function of ``--seed`` and its name."""
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % (1 << 31)


@dataclass
class Env:
    """What a workload is run with."""

    clock: HostClock
    tracer: Any = field(default_factory=NullTracer)
    scale: float = 1.0


@dataclass
class Round:
    """What one pass over one workload measured."""

    #: Completed work items in the timed region (the workload's *op*).
    ops: int = 0
    attempted: int = 0
    #: Failed items plus failed checks.
    failed: int = 0
    virt_ns: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    #: Deterministic per-layer numbers (counter deltas, virtual times).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers the traced round reports, host times in
    #: reference-host seconds (mostly from spans).
    traced: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    digest: str = ""
    info: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += 1

    def seal(self, *parts: Any) -> None:
        """Digest everything that must repeat bit for bit."""
        body = {
            "parts": parts,
            "ops": self.ops,
            "virt_ns": self.virt_ns,
            "counts": self.counts,
            "latency_samples": len(self.latencies_ns),
            "latency_sum": sum(self.latencies_ns),
        }
        canonical = json.dumps(body, sort_keys=True, default=str)
        self.digest = hashlib.sha256(canonical.encode()).hexdigest()


def _host_s(env: "Env", tracer_total_s: float) -> float:
    """A span total (raw wall) in reference-host seconds, by the timed
    region's measured speed."""
    return tracer_total_s * env.clock.ref_s["timed"] / env.clock.wall_s["timed"]


def _add_counts(total: Dict[str, float], moved: Dict[str, float]) -> None:
    for key, value in moved.items():
        total[key] = total.get(key, 0) + value


def _finish_counts(counts: Dict[str, float], user_bytes: int = 0) -> None:
    """Turn raw counter sums into the reported per-layer numbers."""
    lookups = counts.get("fs.cache_hits", 0) + counts.get("fs.cache_misses", 0)
    counts["fs.cache_hit_ratio"] = counts.get("fs.cache_hits", 0) / lookups if lookups else 0.0
    for raw, name in (
        ("disk.busy_virt_ns", "disk.busy_virt_s"),
        ("disk.sync_wait_virt_ns", "disk.sync_wait_virt_s"),
        ("backend.service_virt_ns", "backend.service_virt_s"),
    ):
        if raw in counts:
            counts[name] = counts.pop(raw) / 1e9
    fills = counts.pop("backend.readahead_fills", 0)
    hits = counts.pop("backend.readahead_hits", 0)
    if "backend.uploads" in counts:
        counts["backend.readahead_hit_ratio"] = hits / fills if fills else 0.0
    if user_bytes:
        counts["disk.write_amp"] = counts.get("disk.sectors_written", 0) * 512 / user_bytes
        if "backend.bytes_uploaded" in counts:
            counts["backend.upload_amp"] = counts["backend.bytes_uploaded"] / user_bytes


# ---------------------------------------------------------------------------
# table2_rio / table2_disk: the paper workloads straight on system.vfs
# ---------------------------------------------------------------------------


def _table2(rows, seed: int, env: Env) -> Round:
    from repro.perf.systems import spec_for_row
    from repro.system import SystemSpec, build_system
    from repro.workloads import (
        AndrewBenchmark,
        AndrewParams,
        CpRmParams,
        CpRmWorkload,
        SdetParams,
        SdetWorkload,
    )

    sizes, scale, tracer = SIZES["table2"], env.scale, env.tracer
    out = Round()
    cells: Dict[str, Dict[str, float]] = {}
    for row in rows:
        cells[row] = {}
        for index, workload in enumerate(TABLE2_WORKLOADS):
            # A dead System is one big reference cycle; collecting it here
            # makes peak RSS one live system, not a matter of GC timing.
            gc.collect()
            spec = spec_for_row(row, SystemSpec(fs_blocks=2048))
            # The update daemon is scaled with the workload (as in
            # perf.runner.run_workload) so delayed-write rows flush.
            spec = replace(spec, kernel=replace(spec.kernel, update_interval_ns=10**9))
            system = build_system(spec)
            counters = SystemCounters(system)
            vfs, kernel = system.vfs, system.kernel
            prefix = "/mfs" if row == "mfs" else ""
            # Same inputs on every row, so rows compare like Table 2's.
            wseed = seed * 4 + index
            if workload == "cp_rm":
                bench = CpRmWorkload(vfs, kernel, CpRmParams(
                    dst_root=prefix + "/dst", dirs=_scaled(sizes["cp_dirs"], scale), seed=wseed))
                bench.setup()
                system.drop_caches()
            elif workload == "sdet":
                bench = SdetWorkload(vfs, kernel, SdetParams(
                    root=prefix + "/sdet",
                    files_per_script=_scaled(sizes["sdet_files"], scale), seed=wseed))
            else:
                bench = AndrewBenchmark(vfs, kernel, AndrewParams(
                    root=prefix + "/andrew",
                    dirs=_scaled(sizes["andrew_dirs"], scale), seed=wseed))
            tracer.virt_now = lambda clock=system.clock: clock.now_ns
            tracer.wrap_public(vfs, "kernel", "vfs", skip=("batch",))
            tracer.wrap(system.fs, "flush_data", "fs", "fs.flush_data")
            tracer.wrap(system.fs, "flush_metadata", "fs", "fs.flush_metadata")
            before = counters.read()
            virt_start = system.clock.now_ns
            env.clock.lap("setup")
            with tracer.span(f"{row}/{workload}", "workloads", f"{row}/{workload}"):
                bench.run()
            env.clock.lap("timed")
            moved = delta(counters.read(), before)
            virt_ns = system.clock.now_ns - virt_start
            out.virt_ns += virt_ns
            out.ops += moved["kernel.syscalls"]
            _add_counts(out.counts, moved)
            cells[row][workload] = virt_ns / 1e9
            if row.startswith("rio_") and workload != "cp_rm":
                out.check(f"no_reliability_writes[{row}/{workload}]", moved["disk.writes"] == 0)
    out.attempted = out.ops
    out.info["cells"] = cells
    _finish_counts(out.counts)
    return out


def _ratio_range(cells, slow: str, fast: str):
    ratios = [cells[slow][w] / cells[fast][w] for w in TABLE2_WORKLOADS]
    return min(ratios), max(ratios)


def table2_rio(seed: int, env: Env) -> Round:
    out = _table2(TABLE2_RIO_ROWS, seed, env)
    cells = out.info["cells"]
    if env.scale == 1.0:
        # Shape bands of bench_table2_performance.py that live inside
        # this workload (tiny scaled runs lose the shape, so full size only).
        out.check("protection_is_free", _ratio_range(cells, "rio_prot", "rio_noprot")[1] <= 1.05)
        out.check("rio_close_to_mfs", _ratio_range(cells, "rio_prot", "mfs")[1] <= 1.5)
    out.seal(cells)
    return out


def table2_disk(seed: int, env: Env) -> Round:
    out = _table2(TABLE2_DISK_ROWS, seed, env)
    cells = out.info["cells"]
    if env.scale == 1.0:
        for workload in ("sdet", "andrew"):
            out.check(
                f"write_through_ordering[{workload}]",
                cells["wt_write"][workload]
                >= cells["wt_close"][workload]
                >= cells["ufs"][workload] * 0.95,
            )
    out.seal(cells)
    return out


def table2_shape_checks(rio_cells, disk_cells) -> Dict[str, bool]:
    """The Table 2 bands that span both table2 workloads (checked by the
    suite whenever both ran): Rio vs write-through, default UFS, delayed."""
    cells = {**rio_cells, **disk_cells}
    wt = _ratio_range(cells, "wt_write", "rio_prot")
    ufs = _ratio_range(cells, "ufs", "rio_prot")
    delayed = _ratio_range(cells, "ufs_delayed", "rio_prot")
    return {
        "rio_vs_wt_write": wt[0] > 3.0 and wt[1] > 10.0,
        "rio_vs_ufs": ufs[0] > 2.0 and ufs[1] > 8.0,
        "rio_vs_delayed": 0.9 <= delayed[0] <= 1.5 and delayed[1] <= 4.0,
        "rio_fastest": all(
            cells["rio_prot"][w] <= cells[row][w]
            for w in TABLE2_WORKLOADS
            for row in ("ufs", "wt_close", "wt_write")
        ),
    }


# ---------------------------------------------------------------------------
# serve_calm / serve_storm / tiered_disk / cluster_4x: closed-loop service load
# ---------------------------------------------------------------------------


def check_inode_budget(clients: int, programs: int, num_inodes: int, slack: int = 32) -> None:
    """Refuse a service run that would exhaust the inode table.

    Every client owns a home directory and ``FILES_PER_CLIENT`` files,
    and 3 % of programs are ``mkdir``s that are never removed.  Past the
    table's end ``open`` returns ENOSPC, ``LoadClient`` re-plans it
    forever and the run never finishes (README "Known limits").
    """
    need = clients * (FILES_PER_CLIENT + 1) + 0.03 * clients * programs + slack
    if need >= num_inodes:
        raise BenchError(
            f"sizing guard: {clients} clients x {programs} programs need about "
            f"{need:.0f} inodes, the file system has {num_inodes}"
        )


def _make_clients(clients: int, programs: int, seed: int):
    from repro.server import LoadClient, LoadSpec

    spec = LoadSpec(
        ops_per_client=programs, files_per_client=FILES_PER_CLIENT, pipeline=PIPELINE
    )
    return [LoadClient(client_id, seed=seed, spec=spec) for client_id in range(clients)]


def _drive(target, backlog: Callable[[], int], clients, env: Env, layer: str) -> Dict[str, int]:
    """The harness-owned closed loop: top up every client's pipeline (at
    most ``PIPELINE`` outstanding, next request only after a reply),
    pump one batch, deliver the responses.  Returns what it saw."""
    by_id = {client.client_id: client for client in clients}
    tracer, clock = env.tracer, env.clock
    tracing = tracer.enabled
    seen = {"pumps": 0, "user_bytes": 0, "stuck": 0}
    for _ in range(1_000_000):
        idle = True
        with tracer.span("loadgen.topup", "loadgen"):
            for client in clients:
                while True:
                    request = client.next_request()
                    if request is None:
                        break
                    idle = False
                    if tracing:
                        ident = f"{request.client_id}:{request.req_id}"
                        with tracer.span(f"{layer}.submit", layer, ident):
                            rejection = target.submit(request)
                    else:
                        rejection = target.submit(request)
                    if rejection is not None:
                        client.on_response(rejection)
                        break
        responses = target.pump()
        seen["pumps"] += 1
        with tracer.span("loadgen.deliver", "loadgen"):
            for response in responses:
                idle = False
                if response.ok and response.op == "write":
                    seen["user_bytes"] += response.value
                by_id[response.client_id].on_response(response)
        if idle and backlog() == 0:
            # Nothing in flight and nothing moved: either all done, or a
            # client is wedged and no later round can change that.
            break
        if clock.due():
            clock.lap("timed")
    seen["stuck"] = sum(1 for client in clients if not client.done)
    return seen


def _account_clients(out: Round, clients, stuck: int) -> None:
    for client in clients:
        out.ops += client.stats.acked
        out.failed += client.stats.failed
        out.latencies_ns.extend(client.stats.latencies_ns)
        out.counts["server.rejected"] = (
            out.counts.get("server.rejected", 0) + client.stats.rejected
        )
    out.failed += stuck
    out.attempted = out.ops + out.failed
    out.check("all_clients_done", stuck == 0)


def _serve(name: str, system_name: str, backend: Optional[str], seed: int, env: Env) -> Round:
    from repro.fs.dissect import dissect_image, snapshot
    from repro.fs.ondisk import INODES_PER_BLOCK
    from repro.reliability.campaign import system_spec_for
    from repro.server import FileService, ServiceConfig
    from repro.system import build_system

    sizes, tracer = SIZES[name], env.tracer
    clients_n = sizes["clients"]
    programs = _scaled(sizes["programs"], env.scale)
    crashes = sizes.get("crashes", 0)
    out = Round()
    spec = system_spec_for(system_name, fs_blocks=2048)
    if backend is not None:
        spec = replace(spec, backend=backend, backend_seed=seed)
    check_inode_budget(clients_n, programs, spec.inode_blocks * INODES_PER_BLOCK)
    system = build_system(spec)
    counters = SystemCounters(system)
    config = ServiceConfig()
    service = FileService(system, config)
    if crashes:
        # Forced crashes evenly spaced over the estimated request stream.
        total = clients_n * (FILES_PER_CLIENT + int(programs * 1.4))
        step = max(1, total // (crashes + 1))
        points = [step * (i + 1) for i in range(crashes)]

        def storm(executed: int) -> None:
            if points and executed >= points[0]:
                points.pop(0)
                system.machine.crash("bench storm crash", kind="forced")

        service.before_execute = storm
    clients = _make_clients(clients_n, programs, seed)
    for client in clients:
        service.open_session(client.client_id)

    tracer.virt_now = lambda: system.clock.now_ns

    def wrap_stack(*_hook_args) -> None:
        # The VFS and the file system object are rebuilt by every reboot.
        tracer.wrap_public(system.vfs, "kernel", "vfs", skip=("batch",))
        tracer.wrap(system.fs, "flush_data", "fs", "fs.flush_data")
        tracer.wrap(system.fs, "flush_metadata", "fs", "fs.flush_metadata")

    wrap_stack()
    system.add_reboot_hook(wrap_stack)
    tracer.wrap(system, "reboot", "core", "core.reboot")
    for attr in ("pump", "recover", "audit"):
        tracer.wrap(service, attr, "server", f"server.{attr}")

    before = counters.read()
    virt_start = system.clock.now_ns
    env.clock.lap("setup")
    with tracer.span("drive", "harness"):
        seen = _drive(service, service.scheduler.backlog, clients, env, "server")
    env.clock.lap("timed")
    out.virt_ns = system.clock.now_ns - virt_start
    moved = delta(counters.read(), before)

    _account_clients(out, clients, seen["stuck"])
    stats = service.stats
    out.counts.update(moved)
    out.counts.update({
        "server.pump_calls": seen["pumps"],
        "server.batch_fill": stats.executed / seen["pumps"] / config.batch_size,
        "server.transparent_retries": stats.transparent_retries,
        "server.recoveries": stats.recoveries,
        "server.recover_virt_s": stats.recovery_ns / 1e9,
        "server.rebinds": sum(s.rebinds for s in service.sessions.sessions.values()),
    })

    # -- verification (outside the timed region) ------------------------
    with tracer.span("verify", "harness"):
        audit = service.audit()
        lost = stats.lost_acks + len(audit.lost)
        out.counts["server.lost_acks"] = lost
        out.failed += lost
        out.check("zero_lost_acks", lost == 0)
        out.check("final_audit_ok", audit.ok)
        if crashes:
            out.check("storm_fired", stats.recoveries >= 1)
        system.fs.flush_data(sync=True)
        system.fs.flush_metadata(sync=True)
        system.drain_disks()
        with tracer.span("fs.dissect", "fs"):
            scan = dissect_image(snapshot(system.disk))
        out.check("final_dissect_clean", scan.clean)
        remote_sha = ""
        if backend is not None:
            from repro.backend.audit import remote_recovery_audit

            with tracer.span("backend.audit", "backend"):
                remote = remote_recovery_audit(system, service.journal)
            out.check("remote_recovery_audit_ok", remote.ok)
            out.check("uploads_on_request_path", moved["backend.uploads"] > 0)
            remote_sha = remote.image_sha256
    env.clock.lap("verify")

    if tracer.enabled:
        out.traced.update({
            "core.reboot_virt_s": tracer.total_virt_s("core.reboot"),
            **{
                f"{name}_host_s": _host_s(env, tracer.total_host_s(name))
                for name in (
                    "server.submit", "server.pump", "server.recover", "server.audit",
                    "core.reboot", "fs.dissect", "backend.audit",
                )
            },
        })
    _finish_counts(out.counts, seen["user_bytes"])
    out.seal(
        service.journal.ack_digest(), service.journal.state_digest(),
        scan.image_sha256, remote_sha,
    )
    return out


def serve_calm(seed: int, env: Env) -> Round:
    return _serve("serve_calm", "rio_prot", None, seed, env)


def serve_storm(seed: int, env: Env) -> Round:
    return _serve("serve_storm", "rio_prot", None, seed, env)


def tiered_disk(seed: int, env: Env) -> Round:
    return _serve("tiered_disk", "disk", "tiered", seed, env)


def cluster_4x(seed: int, env: Env) -> Round:
    from repro.fs.ondisk import INODES_PER_BLOCK
    from repro.server import ClusterConfig, ClusterService

    sizes, tracer = SIZES["cluster_4x"], env.tracer
    clients_n = sizes["clients"]
    programs = _scaled(sizes["programs"], env.scale)
    out = Round()
    # Directory shells replicate to every shard, so each shard is
    # provisioned for the whole population (as run_cluster_campaign does).
    inode_blocks = math.ceil(
        (clients_n * (FILES_PER_CLIENT + 4) + 0.03 * clients_n * programs + 48)
        / INODES_PER_BLOCK
    )
    check_inode_budget(clients_n, programs, inode_blocks * INODES_PER_BLOCK)
    config = ClusterConfig(
        shards=sizes["shards"], system="rio_prot", router_mode="dir",
        fs_blocks=2048, inode_blocks=inode_blocks,
    )
    cluster = ClusterService(config, jobs=sizes["jobs"])
    try:
        clients = _make_clients(clients_n, programs, seed)
        for client in clients:
            cluster.open_session(client.client_id)
        tracer.wrap(cluster, "pump", "cluster", "cluster.pump")
        starts = {snap["shard"]: snap for snap in cluster.snapshots()}

        env.clock.lap("setup")
        with tracer.span("drive", "harness"):
            seen = _drive(cluster, cluster.backlog, clients, env, "cluster")
        env.clock.lap("timed")

        snaps = cluster.snapshots()
        # Shards run concurrently: the cluster is done when its slowest is.
        out.virt_ns = max(s["clock_ns"] - starts[s["shard"]]["clock_ns"] for s in snaps)
        _account_clients(out, clients, seen["stuck"])
        acks = [s["acked"] - starts[s["shard"]]["acked"] for s in snaps]
        out.counts.update({
            "cluster.routed": cluster.stats.routed,
            "cluster.fanouts": cluster.stats.fanouts,
            "cluster.cross_renames": cluster.stats.cross_renames,
            "cluster.shard_imbalance": max(acks) / (sum(acks) / len(acks)),
            "server.pump_calls": seen["pumps"],
            "server.transparent_retries": sum(s["transparent_retries"] for s in snaps),
            "server.recoveries": sum(s["recoveries"] for s in snaps),
        })
        with tracer.span("verify", "harness"):
            audits = cluster.audits()
            intents = cluster.audit_intents()
            lost = sum(s["lost_acks"] for s in snaps) + sum(len(a["lost"]) for a in audits)
        out.counts["server.lost_acks"] = lost
        out.failed += lost
        out.check("zero_lost_acks", lost == 0)
        out.check("shard_audits_ok", all(a["ok"] for a in audits))
        out.check("intent_audit_ok", intents["ok"])
        if tracer.enabled:
            submit = _host_s(env, tracer.total_host_s("cluster.submit"))
            pump = _host_s(env, tracer.total_host_s("cluster.pump"))
            out.traced.update({
                "cluster.submit_host_s": submit,
                "cluster.pump_host_s": pump,
                "cluster.host_us_per_op": (submit + pump) / max(1, out.ops) * 1e6,
            })
        out.seal(cluster.cluster_digest())
    finally:
        cluster.close()
    env.clock.lap("verify")
    return out


# ---------------------------------------------------------------------------
# campaign_rio: the Table 1 path, serial, fixed attempt schedule
# ---------------------------------------------------------------------------


def campaign_rio(seed: int, env: Env) -> Round:
    from repro.faults.types import ALL_FAULT_TYPES
    from repro.reliability.campaign import CrashTestConfig, run_crash_test
    from repro.reliability.report import seed_for

    sizes, clock = SIZES["campaign_rio"], env.clock
    fault_types = ALL_FAULT_TYPES[: _scaled(len(ALL_FAULT_TYPES), max(env.scale, 0.25))]
    out = Round()
    configs = [
        CrashTestConfig(
            system="rio_prot",
            fault_type=fault_type,
            seed=seed_for(1000 + seed, "rio_prot", fault_type, attempt),
            max_ops_after_injection=sizes["max_ops_after_injection"],
            # The recovered System carries the trial's virtual clock.
            keep_system=True,
        )
        for fault_type in fault_types
        for attempt in range(sizes["attempts"])
    ]
    clock.lap("setup")
    trial_host_s: List[float] = []
    trial_virt_ns: List[int] = []
    results = []
    crashed = discarded = corruptions = 0
    for config in configs:
        key = f"{config.fault_type.value}:{config.seed}"
        spent = clock.ref_s.get("timed", 0.0)
        with env.tracer.span("reliability.trial", "reliability", key):
            result = run_crash_test(config)
        clock.lap("timed")
        trial_host_s.append(clock.ref_s["timed"] - spent)
        if result._system is not None:
            trial_virt_ns.append(result._system.clock.now_ns)
        result.detach()
        gc.collect()  # as in _table2: keep peak RSS off the GC's schedule
        clock.lap("harness")
        crashed += result.crashed
        discarded += result.discarded
        corruptions += result.corrupted
        # Every trial must either crash and recover, or be typed-discarded.
        recovered = result.crashed and not result.recovery_failed
        if not (recovered or result.discarded):
            out.failed += 1
        results.append(result.to_json_dict())
    out.ops = out.attempted = len(configs)
    # Only crashed-and-recovered trials expose a clock; the median keeps
    # the number independent of how many trials a seed happens to discard.
    trial_virt_ns.sort()
    out.virt_ns = trial_virt_ns[len(trial_virt_ns) // 2] if trial_virt_ns else 0
    out.check("some_trial_crashed", crashed > 0)
    out.counts.update({
        "reliability.trials": len(configs),
        "reliability.crashed": crashed,
        "reliability.discarded": discarded,
        "reliability.corruptions": corruptions,
    })
    trial_host_s.sort()
    out.traced.update({
        "reliability.trial_host_s_p50": trial_host_s[len(trial_host_s) // 2],
        "reliability.trial_host_s_max": trial_host_s[-1],
    })
    out.seal(results)
    return out


# ---------------------------------------------------------------------------
# explore_traffic: exhaustive crash-point sweep, flight recorder on
# ---------------------------------------------------------------------------

#: Boundaries per pool run; between chunks the host clock recalibrates.
EXPLORE_CHUNK = 24


def explore_traffic(seed: int, env: Env) -> Round:
    from repro.explore import BoundaryVerdict, ExploreConfig, run_boundary_trial, run_enumeration
    from repro.reliability.engine import ParallelMap

    sizes, tracer, clock = SIZES["explore_traffic"], env.tracer, env.clock
    out = Round()
    while True:
        config = ExploreConfig(
            "traffic", "rio_prot", seed=seed,
            clients=sizes["clients"], ops_per_client=sizes["programs"],
        )
        with tracer.span("explore.enumerate", "explore"):
            enumeration = run_enumeration(config)
        # A run that acknowledges a rename violates acked-data-durable at
        # the crash points after it (README "Known limits"); the benchmark
        # needs inputs on which nothing fails, so it takes the next seed.
        if not any(
            event["kind"] == "server" and event["payload"].get("op") == "rename"
            for event in enumeration.events
        ):
            break
        seed += 1
    out.info["explore_seed"] = seed
    # A quick pass sweeps every (1/scale)-th boundary; the full size, all.
    boundaries = enumeration.boundaries[:: max(1, round(1 / env.scale))]
    tasks = [
        (
            (config.workload, "boundary", boundary.index),
            {"config": config.to_json_dict(), "boundary": boundary.to_json_dict(),
             "artifact_dir": None},
        )
        for boundary in boundaries
    ]
    clock.lap("setup")
    # explore()'s own fan-out (ParallelMap over run_trial_task), cut into
    # chunks so the host clock can recalibrate during the sweep.
    verdicts: Dict[int, Any] = {}
    quarantined = 0
    with tracer.span("explore.sweep", "explore"):
        for start in range(0, len(tasks), EXPLORE_CHUNK):
            pool = ParallelMap("repro.explore.explorer:run_trial_task", jobs=sizes["jobs"])
            chunk = tasks[start : start + EXPLORE_CHUNK]
            with tracer.span("explore.chunk", "explore", f"boundary:{chunk[0][0][2]}"):
                for key, verdict in pool.run(chunk).items():
                    if verdict is not None:
                        verdicts[key[2]] = BoundaryVerdict.from_json_dict(verdict)
            quarantined += len(pool.stats.quarantined)
            clock.lap("timed")
    ordered = [verdicts[index] for index in sorted(verdicts)]
    fired = sum(v.fired for v in ordered)
    violations = sum(len(v.violations) for v in ordered)
    out.ops = out.attempted = len(tasks)
    out.failed = (len(tasks) - fired) + violations
    out.check("full_boundary_coverage", fired == len(tasks) and quarantined == 0)
    out.check("zero_spec_violations", violations == 0)
    # The clean enumeration run is the one place the sweep shows a clock.
    out.virt_ns = enumeration.events[-1]["vtime"] - enumeration.events[0]["vtime"]
    out.counts.update({
        "explore.boundaries": len(tasks),
        "explore.violations": violations,
        "obs.events": len(enumeration.events),
        "obs.dropped": 0,  # run_enumeration raises on any ring eviction
    })
    if tracer.enabled:
        # 16 boundaries in-process give the per-trial cost the pool hides.
        costs = []
        with tracer.span("explore.sample", "explore"):
            for boundary in boundaries[:: max(1, len(boundaries) // 16)][:16]:
                spent = clock.ref_s.get("verify", 0.0)
                run_boundary_trial(config, boundary)
                clock.lap("verify")
                costs.append(clock.ref_s["verify"] - spent)
        costs.sort()
        p50, sweep = costs[len(costs) // 2], clock.ref_s["timed"]
        out.traced.update({
            "explore.enumerate_host_s": _host_s(env, tracer.total_host_s("explore.enumerate")),
            "explore.sweep_host_s": sweep,
            "explore.trial_host_s_p50": p50,
            "explore.fanout_efficiency": len(tasks) * p50 / (sizes["jobs"] * sweep),
        })
    out.seal(enumeration.digest, [v.canonical_json_dict() for v in ordered])
    return out


WORKLOADS: Dict[str, Callable[[int, Env], Round]] = {
    "table2_rio": table2_rio,
    "table2_disk": table2_disk,
    "serve_calm": serve_calm,
    "serve_storm": serve_storm,
    "tiered_disk": tiered_disk,
    "cluster_4x": cluster_4x,
    "campaign_rio": campaign_rio,
    "explore_traffic": explore_traffic,
}


def run_round(name: str, seed: int, env: Env) -> Round:
    """One pass over workload ``name`` with its derived seed."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; know {', '.join(WORKLOADS)}")
    return WORKLOADS[name](derive_seed(seed, name), env)
