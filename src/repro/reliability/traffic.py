"""Traffic-under-faults: crash storms against the live file service.

Table 1 crashes a kernel under a single-threaded workload.  This module
is the same experiment at service scale: N deterministic clients drive
a :class:`~repro.server.FileService` — or, with ``shards`` set, a
:class:`~repro.server.ClusterService` of that many kernels — while a
*crash storm* brings kernels down mid-traffic.  After every crash the
service warm reboots, audits its acknowledged-write journal against the
recovered cache, re-binds every session, and resumes the interrupted
batch.  The campaign's claim is the paper's, restated for a server:
**no acknowledged operation is ever lost on Rio** — and the whole run,
crashes included, is a pure function of its seed, so one config
produces one set of digests on either execution engine and at any
``jobs``.

Every storm is a :class:`~repro.server.CrashPoints` hook fed by a
schedule of executed-request counts:

* ``forced`` — administrative crashes at evenly spaced points
  (deterministic, always fires ``crashes`` times); on a cluster,
  staggered so one shard is down at a time (:func:`rolling_crash_points`);
* ``faults`` — the Table 1 fault injector corrupts the running kernel
  at the same points; if a corruption stays latent past the watchdog
  budget the storm forces the crash (the paper's time budget, restated
  in executed requests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultType
from repro.fs.ondisk import INODES_PER_BLOCK
from repro.server import (
    ClusterConfig,
    ClusterService,
    CrashPoints,
    FileService,
    LoadClient,
    LoadReport,
    LoadSpec,
    ServiceConfig,
    run_load,
)
from repro.system import build_system, system_spec_for


@dataclass
class TrafficConfig:
    """One traffic-under-faults run, against one kernel or a cluster."""

    #: "disk" | "rio_noprot" | "rio_prot" (Table 1's three systems).
    system: str = "rio_prot"
    clients: int = 16
    #: Mid-traffic crashes *per kernel*: the whole storm for a single
    #: service, per shard for a cluster.
    crashes: int = 3
    seed: int = 1
    #: "forced" (administrative crashes) or "faults" (injected faults
    #: plus a watchdog).
    storm: str = "forced"
    #: Fault type used by the "faults" storm.
    fault_type: FaultType = FaultType.KERNEL_STACK
    #: Executed requests a latent fault may ride before the watchdog
    #: forces the crash ("faults" storm only).
    watchdog_budget: int = 200
    #: Root file system size in 8 KB blocks, per kernel (64 clients
    #: need room).
    fs_blocks: int = 2048
    #: Per-client load shape.
    load: LoadSpec = field(default_factory=LoadSpec)
    #: Single-service tunables (queue depth, batch size, quotas); a
    #: cluster's shard services take theirs from :class:`ClusterConfig`.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Re-apply lost journal entries during recovery (meaningful on the
    #: disk system; a Rio run never has anything to repair).
    repair: bool = False
    #: Tiered backing store behind the disk ("local" | "objectstore" |
    #: "tiered"), or None for the classic single-tier stack.  With a
    #: backend armed the campaign reconciles the remote tier at every
    #: storm recovery and finishes with the remote-only audit.
    backend: Optional[str] = None
    #: Chaos capability specs to arm — a tuple of JSON-safe dicts whose
    #: keys match :meth:`ChaosRegistry.enable` (``name`` plus knobs and
    #: scope fields).  Empty means no chaos.
    chaos: tuple = ()
    #: Kernel shards behind a consistent-hash router, or None for a
    #: bare :class:`FileService`.  Cluster storms are forced and
    #: rolling; ``chaos``, ``backend``, ``repair`` and the "faults"
    #: storm are not wired through the shards yet and are rejected with
    #: a :class:`ConfigurationError`.
    shards: Optional[int] = None
    #: Worker processes the campaign may use (1 = everything inline):
    #: a cluster hosts one shard per worker, a chaos matrix fans its
    #: trials out.  Digests must not depend on this.
    jobs: int = 1
    # -- cluster geometry (read only when ``shards`` is set) -----------
    #: Router key mode ("dir" colocates directories; "hash" scatters).
    router_mode: str = "dir"
    #: Per-shard inode area (None: sized from the client count).
    inode_blocks: Optional[int] = None
    #: Per-shard machine memory override (None: the default 16 MB).
    memory_bytes: Optional[int] = None
    #: Requests per front-end scheduling batch (None: ClusterConfig
    #: default; raise at high client counts so every shard sees a
    #: full per-step batch).
    batch_size: Optional[int] = None


@dataclass
class TrafficResult:
    """What one traffic campaign observed."""

    config: TrafficConfig
    crashes_observed: int = 0
    recoveries: int = 0
    faults_injected: int = 0
    watchdog_fired: int = 0
    lost_acks: int = 0
    repaired_acks: int = 0
    rebinds: int = 0
    rebind_failures: int = 0
    transparent_retries: int = 0
    #: The final durability audit — the service's, or every shard's.
    final_audit_ok: bool = False
    #: Virtual time spent in recovery (reboot + audit), summed.
    recovery_ns: int = 0
    #: Total chaos capability fires, and the per-capability snapshot
    #: (:meth:`ChaosRegistry.snapshot`) when chaos was armed.
    chaos_fires: int = 0
    chaos_snapshot: list = field(default_factory=list)
    load: LoadReport = field(default_factory=LoadReport)
    #: Independent-verifier second opinions: one dissect scan after each
    #: storm recovery (post-fsck) plus one of the final flushed image.
    dissect_scans: int = 0
    dissect_divergences: int = 0
    divergence_details: list = field(default_factory=list)
    final_image_sha256: str = ""
    final_dissect_findings: int = 0
    final_dissect_clean: bool = False
    #: Remote tier (set only when ``config.backend`` is armed): storm
    #: recoveries that reconciled the object store, repairs they
    #: applied, deferred reconciles, and the final remote-only audit
    #: (a :meth:`~repro.backend.audit.RemoteCheck.to_json_dict`).
    remote_reconciles: int = 0
    remote_repairs: int = 0
    remote_deferred: int = 0
    remote_audit: Optional[dict] = None
    #: :meth:`TieredStats.to_json_dict` snapshot (uploads, dedup hits...)
    #: with the link's :class:`BackendStats` under ``"link"``.
    remote_stats: Optional[dict] = None
    #: Cluster only: the cross-shard rename intent audit
    #: (:meth:`ClusterService.audit_intents`) and the cluster digest
    #: taken after it.
    intent_audit: Optional[dict] = None
    cluster_digest: str = ""

    @property
    def remote_ok(self) -> bool:
        """The remote tier's verdict (vacuously True without a backend)."""
        if self.config.backend is None:
            return True
        return bool(self.remote_audit and self.remote_audit.get("ok"))

    @property
    def failed_checks(self) -> List[str]:
        """Names of the checks behind :attr:`ok` that did not hold."""
        intents_ok = self.intent_audit is None or bool(self.intent_audit.get("ok"))
        checks = (
            ("lost acks", self.lost_acks == 0),
            ("final audit", self.final_audit_ok),
            ("remote audit", self.remote_ok),
            ("intent audit", intents_ok),
        )
        return [name for name, held in checks if not held]

    @property
    def ok(self) -> bool:
        """The zero-lost-acks guarantee, including the final audit (plus
        the remote-only audit when a backend is armed, and the settled
        intent log on a cluster)."""
        return not self.failed_checks

    @property
    def ack_digest(self) -> str:
        """Digest of the ordered ack log (single-service fixture)."""
        return self.load.digests.get("ack_digest", "")

    @property
    def state_digest(self) -> str:
        """Digest of the expected post-run state (single service)."""
        return self.load.digests.get("state_digest", "")

    #: Attributes a single-service JSON report carries verbatim.
    _SERVICE_KEYS = (
        "faults_injected", "watchdog_fired", "repaired_acks", "rebinds",
        "rebind_failures", "recovery_ns", "chaos_fires", "chaos_snapshot",
        "ack_digest", "state_digest", "dissect_scans", "dissect_divergences",
        "divergence_details", "final_image_sha256", "final_dissect_findings",
        "final_dissect_clean",
    )

    def to_json_dict(self) -> dict:
        """JSON-serializable summary (drops the live objects).

        Remote-tier keys appear only when ``config.backend`` is armed,
        so backend-less campaigns (and the chaos digests derived from
        them) serialize exactly as before.
        """
        config, load = self.config, self.load
        data = {
            "system": config.system,
            "clients": config.clients,
            "crashes": config.crashes,
            "storm": config.storm,
            "seed": config.seed,
            "crashes_observed": self.crashes_observed,
            "recoveries": self.recoveries,
            "lost_acks": self.lost_acks,
            "transparent_retries": self.transparent_retries,
            "acked": load.acked,
            "failed": load.failed,
            "rejected": load.rejected,
            "throughput_ops_per_vsec": load.throughput_ops_per_vsec,
            "wall_virtual_ns": load.wall_virtual_ns,
            "ok": self.ok,
        }
        if config.shards is not None:
            intents = self.intent_audit or {}
            data.update(
                shards=config.shards,
                crashes_per_shard=config.crashes,
                router_mode=config.router_mode,
                jobs=config.jobs,
                cross_renames=intents.get("intents", 0),
                shard_audits_ok=self.final_audit_ok,
                intent_audit=dict(intents),
                cluster_digest=self.cluster_digest,
            )
            return data
        data.update({key: getattr(self, key) for key in self._SERVICE_KEYS})
        if config.backend is not None:
            data["backend"] = config.backend
            for key in ("reconciles", "repairs", "deferred", "ok", "audit", "stats"):
                data[f"remote_{key}"] = getattr(self, f"remote_{key}")
        return data


def rolling_crash_points(config: TrafficConfig) -> Dict[int, Tuple[int, ...]]:
    """Staggered per-shard crash schedule: one shard down at a time.

    Each shard executes roughly ``1/shards`` of the estimated request
    stream, so its crash points live on a per-shard executed axis.
    The axis estimate is deliberately *half* the even-split share:
    consistent hashing skews the real split (the lightest shard can
    carry ~half the average at high shard counts), and a crash point
    beyond a shard's actual traffic would silently never fire.  Crash
    ``j`` of shard ``i`` lands at fraction
    ``(j * shards + i + 1) / (total + 1)`` of that axis — interleaving
    the shards so the storm *rolls* across the cluster instead of
    taking it down wholesale.
    """
    if config.crashes <= 0:
        return {}
    per_shard = config.clients * (
        config.load.files_per_client + config.load.ops_per_client
    ) // (2 * max(1, config.shards))
    total = config.shards * config.crashes
    points: Dict[int, Tuple[int, ...]] = {}
    for shard in range(config.shards):
        shard_points: List[int] = []
        for crash in range(config.crashes):
            fraction = (crash * config.shards + shard + 1) / (total + 1)
            candidate = max(1, int(per_shard * fraction))
            if shard_points and candidate <= shard_points[-1]:
                # Short axis: successive fractions truncate to the same
                # executed count, which would collapse distinct crashes
                # into one point.  Bump monotonically so every configured
                # crash keeps its own firing point.
                candidate = shard_points[-1] + 1
            shard_points.append(candidate)
        assert len(set(shard_points)) == config.crashes, (
            f"shard {shard}: {len(set(shard_points))} distinct crash points "
            f"for {config.crashes} configured crashes"
        )
        points[shard] = tuple(shard_points)
    return points


class _FaultStorm(CrashPoints):
    """The "faults" flavour: a due point injects one Table 1 fault and
    arms a watchdog that forces the crash if the corruption stays
    latent past ``watchdog_budget`` executed requests."""

    def __init__(self, system, points, config: TrafficConfig) -> None:
        super().__init__(system, points)
        self.config = config
        self.faults_injected = 0
        self.watchdog_fired = 0
        self._armed_at: Optional[int] = None
        self._armed_kernel = None

    def __call__(self, executed: int) -> None:
        if self._armed_at is not None:
            if self.system.kernel is not self._armed_kernel:
                # The fault crashed the kernel on its own (the system
                # has rebooted since arming): disarm the watchdog.
                self._armed_at = self._armed_kernel = None
            elif executed - self._armed_at >= self.config.watchdog_budget:
                # Latent corruption past the budget; force the crash.
                self._armed_at = self._armed_kernel = None
                self.watchdog_fired += 1
                self.system.machine.crash(
                    "traffic storm watchdog: latent fault", kind="watchdog"
                )
                return
            else:
                return
        if not self.due(executed):
            return
        # A fresh injector every time: the kernel object is replaced
        # by each reboot.
        injector = FaultInjector(
            self.system.kernel, seed=self.config.seed * 1000 + self.fired
        )
        injector.inject(self.config.fault_type)
        self.faults_injected += 1
        self._armed_at = executed
        self._armed_kernel = self.system.kernel


def run_traffic_campaign(config: TrafficConfig) -> TrafficResult:
    """Run one traffic-under-faults campaign; returns its result."""
    if config.storm not in ("forced", "faults"):
        raise ValueError(f"unknown storm {config.storm!r}")
    if config.shards is not None:
        unwired = [name for name in ("chaos", "backend", "repair") if getattr(config, name)]
        if config.storm == "faults":
            unwired.append('storm="faults"')
        if unwired:
            raise ConfigurationError(
                f"shards={config.shards} with {', '.join(unwired)}: these axes "
                "are not wired through the cluster's shards yet"
            )
    clients = [
        LoadClient(client_id, seed=config.seed, spec=config.load)
        for client_id in range(config.clients)
    ]
    if config.shards is None:
        return _run_on_service(config, clients)
    return _run_on_cluster(config, clients)


def _run_on_service(config: TrafficConfig, clients: List[LoadClient]) -> TrafficResult:
    """One kernel: build it, storm it, audit + dissect + remote audit."""
    spec = system_spec_for(config.system, fs_blocks=config.fs_blocks)
    if config.backend is not None:
        spec = replace(spec, backend=config.backend, backend_seed=config.seed)
    system = build_system(spec)
    if config.chaos:
        from repro.faults.capabilities import ChaosRegistry

        registry = ChaosRegistry(seed=config.seed)
        for cap in config.chaos:
            registry.enable(**dict(cap))
        system.install_chaos(registry)
    service_config = replace(config.service, repair_on_recover=config.repair)
    service = FileService(system, service_config)
    # One kernel's schedule: evenly spaced over the estimated request stream.
    total = config.clients * (
        config.load.files_per_client + int(config.load.ops_per_client * 1.4)
    )
    step = max(1, total // (config.crashes + 1))
    points = [step * (i + 1) for i in range(config.crashes)]
    if config.storm == "forced":
        storm = CrashPoints(system, points, label="traffic storm")
    else:
        storm = _FaultStorm(system, points, config)
    service.before_execute = storm

    # Second opinion after every storm recovery: the reboot hook runs at
    # the end of System.reboot, when fsck has just blessed the disk — the
    # one mid-campaign point where the on-disk state claims consistency.
    from repro.fs.dissect import compare_verdicts, dissect_image, snapshot

    scans: List = []
    remote_reconciles: List = []

    def dissect_after_recovery(sys_, report) -> None:
        if report.remote is not None:
            remote_reconciles.append(report.remote)
        if sys_.disk is None or report.fsck is None:
            return
        scan = dissect_image(snapshot(sys_.disk))
        scans.append(
            compare_verdicts(
                fsck_unrecoverable=report.fsck.unrecoverable,
                fsck_fix_count=report.fsck.fix_count,
                report=scan,
            )
        )

    system.add_reboot_hook(dissect_after_recovery)
    load = run_load(service, clients)
    result = TrafficResult(config=config, load=load)
    result.crashes_observed = service.stats.crashes_detected
    result.recoveries = service.stats.recoveries
    if config.storm == "faults":
        result.faults_injected = storm.faults_injected
        result.watchdog_fired = storm.watchdog_fired
    result.lost_acks = service.stats.lost_acks
    result.repaired_acks = service.stats.repaired_acks
    result.transparent_retries = service.stats.transparent_retries
    result.recovery_ns = service.stats.recovery_ns
    if system.chaos is not None:
        result.chaos_snapshot = system.chaos.snapshot()
        result.chaos_fires = sum(cap["fires"] for cap in result.chaos_snapshot)
    for session in service.sessions.sessions.values():
        result.rebinds += session.rebinds
        result.rebind_failures += session.rebind_failures
    final = service.audit()
    result.final_audit_ok = final.ok
    result.lost_acks += len(final.lost)

    # Final second opinion: flush everything, then dissect the quiesced
    # image (mid-run the Rio disk is legitimately stale, so only a fully
    # flushed image is expected to parse clean).
    result.dissect_scans = len(scans)
    result.dissect_divergences = sum(1 for d in scans if not d.agreed)
    for d in scans:
        result.divergence_details.extend(d.details)
    if system.disk is not None:
        system.fs.flush_data(sync=True)
        system.fs.flush_metadata(sync=True)
        system.drain_disks()
        final_scan = dissect_image(snapshot(system.disk))
        result.dissect_scans += 1
        result.final_image_sha256 = final_scan.image_sha256
        result.final_dissect_findings = len(final_scan.findings)
        result.final_dissect_clean = final_scan.clean

    # Remote tier verdict: the storm reconciles already ran inside each
    # reboot; the campaign finishes with the remote-only audit — the
    # object store alone, local disk thrown away, must pay every ack.
    if config.backend is not None and system.backing is not None:
        from repro.backend.audit import remote_recovery_audit

        result.remote_reconciles = len(remote_reconciles)
        result.remote_repairs = sum(r.repairs for r in remote_reconciles)
        result.remote_deferred = sum(1 for r in remote_reconciles if r.deferred)
        result.remote_audit = remote_recovery_audit(
            system, service.journal
        ).to_json_dict()
        result.remote_stats = {
            **system.backing.stats.to_json_dict(),
            "link": system.backing.remote.stats.to_json_dict(),
        }
    return result


def _cluster_inode_blocks(config: TrafficConfig) -> int:
    """Per-shard inode area: as configured, else sized for the clients.

    Every client owns a home directory (replicated nowhere — it lives
    on the shards its session touches) plus ``files_per_client`` files
    and a few rename/cycle spares; directory shells replicate to every
    shard and the hash spread is uneven, so each shard is provisioned
    for the full population rather than ``1/shards`` of it.
    """
    if config.inode_blocks is not None:
        return config.inode_blocks
    inodes = config.clients * (config.load.files_per_client + 4) + 16
    return max(8, math.ceil(inodes / INODES_PER_BLOCK))


def _run_on_cluster(config: TrafficConfig, clients: List[LoadClient]) -> TrafficResult:
    """``shards`` kernels under a rolling storm: shard audits, the
    intent audit, and the cluster digest."""
    cluster_config = ClusterConfig(
        shards=config.shards,
        system=config.system,
        router_mode=config.router_mode,
        fs_blocks=config.fs_blocks,
        inode_blocks=_cluster_inode_blocks(config),
        memory_bytes=config.memory_bytes,
        crash_points=rolling_crash_points(config),
    )
    if config.batch_size is not None:
        cluster_config = replace(cluster_config, batch_size=config.batch_size)
    with ClusterService(cluster_config, jobs=config.jobs) as cluster:
        load = run_load(cluster, clients)
        result = TrafficResult(config=config, load=load)
        for snap in cluster.snapshots():
            result.crashes_observed += snap["crashes_detected"]
            result.recoveries += snap["recoveries"]
            result.lost_acks += snap["lost_acks"]
            result.transparent_retries += snap["transparent_retries"]
        audits = cluster.audits()
        result.final_audit_ok = all(audit["ok"] for audit in audits)
        result.lost_acks += sum(len(audit["lost"]) for audit in audits)
        result.intent_audit = cluster.audit_intents()
        result.cluster_digest = cluster.cluster_digest()
    return result


def format_traffic_report(result: TrafficResult) -> str:
    """Human-readable summary of one traffic campaign."""
    config, load = result.config, result.load
    clustered = config.shards is not None
    intents = result.intent_audit or {}
    remote = result.remote_audit or {}
    link = (result.remote_stats or {}).get("link", {})
    # Rows that do not apply to this run evaluate falsy and are dropped.
    rows = [
        (
            "shards",
            f"{config.shards} x {config.system}  "
            f"(router={config.router_mode}, jobs={config.jobs}, seed={config.seed})",
        )
        if clustered
        else ("system", f"{config.system}  (storm={config.storm}, seed={config.seed})"),
        ("clients", f"{config.clients} x {config.load.ops_per_client} programs"),
        (
            "storm",
            f"rolling, {config.crashes} crashes/shard "
            f"({result.crashes_observed} observed, {result.recoveries} recoveries)",
        )
        if clustered
        else ("crashes", f"{result.crashes_observed} observed / {config.crashes} requested"),
        config.storm == "faults"
        and (
            "faults",
            f"{result.faults_injected} injected ({config.fault_type.value}), "
            f"watchdog fired {result.watchdog_fired}",
        ),
        config.chaos
        and (
            "chaos",
            ",".join(sorted({cap["name"] for cap in config.chaos}))
            + f": {result.chaos_fires} fires",
        ),
        (
            "acked",
            f"{load.acked} (failed {load.failed}, rejected {load.rejected}, "
            f"retried {load.retried})",
        ),
        ("transparent", f"{result.transparent_retries} requests re-run across crashes"),
        (
            "cross renames",
            f"{intents.get('intents', 0)} (rolled forward "
            f"{intents.get('rolled_forward', 0)}, back {intents.get('rolled_back', 0)})",
        )
        if clustered
        else ("rebinds", f"{result.rebinds} fds re-bound, {result.rebind_failures} stale"),
        (
            "lost acks",
            f"{result.lost_acks}"
            + (f"  (repaired {result.repaired_acks})" if result.repaired_acks else ""),
        ),
        (
            "throughput",
            f"{load.throughput_ops_per_vsec:,.0f} ops/vsec"
            + (" (cluster wall = slowest shard)" if clustered else ""),
        ),
        (
            "latency p50/p99",
            f"{load.latency_percentile(0.50) / 1e6:.2f} / "
            f"{load.latency_percentile(0.99) / 1e6:.2f} ms (virtual)",
        ),
        clustered and ("cluster digest", result.cluster_digest[:16]),
        not clustered and ("ack digest", result.ack_digest[:16]),
        not clustered and ("state digest", result.state_digest[:16]),
        not clustered
        and (
            "dissect",
            f"{result.dissect_scans} scans, {result.dissect_divergences} fsck "
            "divergences, final image "
            + (
                "CLEAN"
                if result.final_dissect_clean
                else f"{result.final_dissect_findings} findings"
            )
            + f" ({result.final_image_sha256[:16]})",
        ),
        config.backend is not None
        and (
            "remote tier",
            f"backend={config.backend}: {result.remote_reconciles} reconciles "
            f"({result.remote_repairs} repairs, {result.remote_deferred} deferred), "
            "final audit "
            + ("OK" if result.remote_ok else "FAILED")
            + (
                f" (image {str(remote['image_sha256'])[:16]})"
                if remote.get("image_sha256")
                else ""
            )
            + "; link busy {:.2f} s, waited {:.2f} s ({} posted, {} severed)".format(
                link.get("service_ns", 0) / 1e9,
                link.get("waited_ns", 0) / 1e9,
                link.get("posted_writes", 0),
                link.get("severed_writes", 0),
            ),
        ),
        (
            "verdict",
            "ZERO LOST ACKS"
            if result.ok
            else "FAILED: " + ", ".join(result.failed_checks),
        ),
        *(("intent audit", detail) for detail in intents.get("violations", [])[:5]),
        *(("divergence", detail) for detail in result.divergence_details[:5]),
    ]
    title = "cluster traffic campaign" if clustered else "traffic-under-faults campaign"
    return "\n".join(
        [title] + [f"  {label:<15} {value}" for label, value in filter(None, rows)]
    )
