"""Traffic-under-faults: crash storms against the live file service.

Table 1 crashes a kernel under a single-threaded workload.  This module
is the same experiment at service scale: N deterministic clients drive
one kernel under traffic — a :class:`~repro.server.Shard`, built from
its :class:`~repro.server.ShardSpec` and judged by its
:meth:`~repro.server.Shard.verdict` — or, with ``shards`` set, a
:class:`~repro.server.ClusterService` over that many of them, while a
*crash storm* brings kernels down mid-traffic.  Every axis (storm
flavour, backend, chaos, repair) is applied where a kernel is built, so
it means the same thing on one kernel and on every shard.  After every
crash the service warm reboots, audits its acknowledged-write journal
against the recovered cache, re-binds every session, and resumes the
interrupted batch.  The campaign's claim is the paper's, restated for a
server: **no acknowledged operation is ever lost on Rio** — and the
whole run, crashes included, is a pure function of its seed, so one
config produces one set of digests on either execution engine and at
any ``jobs``.

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultType
from repro.fs.ondisk import INODES_PER_BLOCK
from repro.server import (
    ClusterConfig,
    ClusterService,
    LoadClient,
    LoadReport,
    LoadSpec,
    ServiceConfig,
    Shard,
    ShardSpec,
    run_load,
)


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
    #: Kernel shards behind a consistent-hash router, or None for one
    #: kernel served alone.  A cluster's storm rolls: the schedule is
    #: staggered so one shard is down at a time.
    shards: Optional[int] = None
    #: Worker processes the campaign may use (1 = everything inline):
    #: a cluster hosts one shard per worker, a chaos matrix fans its
    #: trials out.  Digests must not depend on this.
    jobs: int = 1
    # -- cluster geometry (read only when ``shards`` is set) -----------
    #: Router key mode ("dir" colocates directories; "hash" scatters).
    router_mode: str = "dir"


@dataclass
class TrafficResult:
    """What one traffic campaign observed.

    The per-kernel fields are folded from :attr:`kernels` by
    :func:`_fold`: one kernel's verdict as it stands; several kernels'
    counters summed, verdict booleans ``all()``-ed, lists concatenated in
    shard order.  What does neither — the final image hash, the
    remote-only audit, the remote tier's stats — is one kernel's fact and
    stays in :attr:`kernels` when there are several.
    """

    config: TrafficConfig
    #: :meth:`Shard.verdict` of every kernel, in shard order.
    kernels: List[dict] = field(default_factory=list)
    crashes_observed: int = 0
    recoveries: int = 0
    faults_injected: int = 0
    watchdog_fired: int = 0
    lost_acks: int = 0
    repaired_acks: int = 0
    rebinds: int = 0
    rebind_failures: int = 0
    transparent_retries: int = 0
    #: The final durability audit, of every kernel.
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
        """Every kernel's remote-only audit held (vacuously True without
        a backend)."""
        if self.config.backend is None:
            return True
        audits = [kernel.get("remote_audit") for kernel in self.kernels]
        return bool(audits) and all(audit and audit.get("ok") for audit in audits)

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

    #: Attributes the JSON report carries verbatim.
    _VERBATIM_KEYS = (
        "crashes_observed", "recoveries", "lost_acks", "transparent_retries",
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
        them) serialize exactly as before; the cluster keys (the
        per-kernel verdicts among them) only when ``config.shards`` is
        set.
        """
        config, load = self.config, self.load
        data = {
            "system": config.system,
            "clients": config.clients,
            "crashes": config.crashes,
            "storm": config.storm,
            "seed": config.seed,
            "acked": load.acked,
            "failed": load.failed,
            "rejected": load.rejected,
            "throughput_ops_per_vsec": load.throughput_ops_per_vsec,
            "wall_virtual_ns": load.wall_virtual_ns,
            "ok": self.ok,
        }
        data.update({key: getattr(self, key) for key in self._VERBATIM_KEYS})
        if config.backend is not None:
            data["backend"] = config.backend
            for key in ("reconciles", "repairs", "deferred", "ok", "audit", "stats"):
                data[f"remote_{key}"] = getattr(self, f"remote_{key}")
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
                kernels=self.kernels,
            )
        return data


def _fold(values: list):
    """One per-kernel fact over all kernels (see :class:`TrafficResult`);
    None where several kernels' facts neither sum nor concatenate."""
    first = values[0]
    if len(values) == 1:
        return first
    if isinstance(first, bool):
        return all(values)
    if isinstance(first, int):
        return sum(values)
    if isinstance(first, list):
        return [item for value in values for item in value]
    return None


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


def _cluster_inode_blocks(config: TrafficConfig) -> int:
    """Per-shard inode area, sized for the clients.

    Every client owns a home directory (replicated nowhere — it lives
    on the shards its session touches) plus ``files_per_client`` files
    and a few rename/cycle spares; directory shells replicate to every
    shard and the hash spread is uneven, so each shard is provisioned
    for the full population rather than ``1/shards`` of it.
    """
    inodes = config.clients * (config.load.files_per_client + 4) + 16
    return max(8, math.ceil(inodes / INODES_PER_BLOCK))


def run_traffic_campaign(config: TrafficConfig) -> TrafficResult:
    """Run one traffic-under-faults campaign; returns its result."""
    if config.storm not in ("forced", "faults"):
        raise ValueError(f"unknown storm {config.storm!r}")
    clients = [
        LoadClient(client_id, seed=config.seed, spec=config.load)
        for client_id in range(config.clients)
    ]
    # The per-kernel half of the campaign, as KernelSpec fields.
    kernel = dict(
        system=config.system,
        fs_blocks=config.fs_blocks,
        service=ServiceConfig(repair_on_recover=config.repair),
        storm=config.storm,
        fault_type=config.fault_type,
        watchdog_budget=config.watchdog_budget,
        backend=config.backend,
        chaos=config.chaos,
        seed=config.seed,
    )
    result = TrafficResult(config=config)
    if config.shards is None:
        # One kernel's schedule: evenly spaced over the estimated request stream.
        total = config.clients * (
            config.load.files_per_client + int(config.load.ops_per_client * 1.4)
        )
        step = max(1, total // (config.crashes + 1))
        points = tuple(step * (i + 1) for i in range(config.crashes))
        shard = Shard(ShardSpec(**kernel, crash_points=points))
        result.load = run_load(shard.service, clients)
        result.kernels = [shard.verdict()]
    else:
        cluster_config = ClusterConfig(
            **kernel,
            shards=config.shards,
            router_mode=config.router_mode,
            inode_blocks=_cluster_inode_blocks(config),
            crash_points=rolling_crash_points(config),
        )
        with ClusterService(cluster_config, jobs=config.jobs) as cluster:
            result.load = run_load(cluster, clients)
            result.kernels = cluster.verdicts()
            result.intent_audit = cluster.audit_intents()
            result.cluster_digest = cluster.cluster_digest()
    for key in result.kernels[0]:
        folded = _fold([verdict[key] for verdict in result.kernels])
        if folded is not None:
            setattr(result, key, folded)
    return result


def format_traffic_report(result: TrafficResult) -> str:
    """Human-readable summary of one traffic campaign."""
    config, load = result.config, result.load
    clustered = config.shards is not None
    intents = result.intent_audit or {}
    remote = result.remote_audit or {}
    links = [(kernel.get("remote_stats") or {}).get("link", {}) for kernel in result.kernels]
    link = {
        key: sum(stats.get(key, 0) for stats in links)
        for key in ("service_ns", "waited_ns", "posted_writes", "severed_writes")
    }
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
                link["service_ns"] / 1e9,
                link["waited_ns"] / 1e9,
                link["posted_writes"],
                link["severed_writes"],
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
