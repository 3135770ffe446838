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

from repro.faults import ChaosSpec, FaultType
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
    #: Chaos capabilities to arm on every kernel.  Empty means no chaos.
    chaos: Tuple[ChaosSpec, ...] = ()
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

    Every per-kernel fact is a key of :meth:`Shard.verdict`, declared
    there once: :attr:`kernels` holds each kernel's verdict in shard
    order and :attr:`verdict` is their fold (:func:`fold_verdicts`).
    """

    config: TrafficConfig
    #: :meth:`Shard.verdict` of every kernel, in shard order.
    kernels: List[dict] = field(default_factory=list)
    load: LoadReport = field(default_factory=LoadReport)
    #: Cluster only: the cross-shard rename intent audit
    #: (:meth:`ClusterService.audit_intents`) and the cluster digest
    #: taken after it.
    intent_audit: Optional[dict] = None
    cluster_digest: str = ""

    @property
    def verdict(self) -> dict:
        """The kernels' verdicts as one (see :func:`fold_verdicts`)."""
        return fold_verdicts(self.kernels)

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
        config, verdict = self.config, self.verdict
        intents_ok = self.intent_audit is None or bool(self.intent_audit.get("ok"))
        # A kernel whose storm fired fewer crash points than asked for was
        # never tested at the rest: a short storm proves nothing.
        fired = "faults_injected" if config.storm == "faults" else "crashes_observed"
        checks = (
            ("lost acks", verdict["lost_acks"] == 0),
            ("final audit", verdict["final_audit_ok"]),
            ("remote audit", self.remote_ok),
            ("intent audit", intents_ok),
            ("clients unfinished", self.load.unfinished == 0),
            ("storm short", all(kernel[fired] >= config.crashes for kernel in self.kernels)),
            # The independent verifier: every post-recovery scan agreed
            # with fsck and the final flushed image dissects clean.
            ("dissect", verdict["dissect_divergences"] == 0 and verdict["final_dissect_clean"]),
        )
        return [name for name, held in checks if not held]

    @property
    def ok(self) -> bool:
        """The zero-lost-acks guarantee, including the final audit (plus
        the remote-only audit when a backend is armed, and the settled
        intent log on a cluster), over a load that ran to completion
        under every crash its storm asked for."""
        return not self.failed_checks

    @property
    def ack_digest(self) -> str:
        """Digest of the ordered ack log (single-service fixture)."""
        return self.load.digests.get("ack_digest", "")

    @property
    def state_digest(self) -> str:
        """Digest of the expected post-run state (single service)."""
        return self.load.digests.get("state_digest", "")

    def to_json_dict(self) -> dict:
        """JSON-serializable summary: the config's axes, the load, and
        every key of :attr:`verdict` (``remote_*`` only with a backend);
        the cluster keys (the per-kernel verdicts among them) only when
        ``config.shards`` is set.
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
            "ack_digest": self.ack_digest,
            "state_digest": self.state_digest,
            "ok": self.ok,
            **self.verdict,
        }
        # The final audit is in ``ok``; a cluster reports it by name.
        final_audit_ok = data.pop("final_audit_ok")
        if config.backend is not None:
            data.update(backend=config.backend, remote_ok=self.remote_ok)
        if config.shards is not None:
            intents = self.intent_audit or {}
            data.update(
                shards=config.shards,
                crashes_per_shard=config.crashes,
                router_mode=config.router_mode,
                jobs=config.jobs,
                cross_renames=intents.get("intents", 0),
                shard_audits_ok=final_audit_ok,
                intent_audit=dict(intents),
                cluster_digest=self.cluster_digest,
                kernels=self.kernels,
            )
        return data


def fold_verdicts(kernels: List[dict]) -> dict:
    """Several kernels' :meth:`Shard.verdict` as one.

    One kernel's verdict stands as it is.  Over several, each key is
    folded by the type of its value: ints summed, bools ``all()``-ed,
    lists concatenated in shard order.  A string or dict — the final
    image hash, the remote-only audit, the remote tier's stats — is one
    kernel's fact: it stays in ``kernels`` and reads ``""`` or ``None``
    in the fold.
    """
    if len(kernels) == 1:
        return dict(kernels[0])
    folded = {}
    for key in kernels[0]:
        values = [kernel[key] for kernel in kernels]
        first = values[0]
        if isinstance(first, bool):
            folded[key] = all(values)
        elif isinstance(first, int):
            folded[key] = sum(values)
        elif isinstance(first, list):
            folded[key] = [item for value in values for item in value]
        else:
            folded[key] = "" if isinstance(first, str) else None
    return folded


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


def _inode_blocks(config: TrafficConfig) -> int:
    """Each kernel's inode area, sized for the clients: a lone kernel's
    and every cluster shard's alike.

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
        inode_blocks=_inode_blocks(config),
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
            crash_points=rolling_crash_points(config),
        )
        with ClusterService(cluster_config, jobs=config.jobs) as cluster:
            result.load = run_load(cluster, clients)
            result.kernels = cluster.verdicts()
            result.intent_audit = cluster.audit_intents()
            result.cluster_digest = cluster.cluster_digest()
    return result


def format_traffic_report(result: TrafficResult) -> str:
    """Human-readable summary of one traffic campaign."""
    config, load, verdict = result.config, result.load, result.verdict
    clustered = config.shards is not None
    intents = result.intent_audit or {}
    remote = verdict.get("remote_audit") or {}
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
            f"({verdict['crashes_observed']} observed, {verdict['recoveries']} recoveries)",
        )
        if clustered
        else ("crashes", f"{verdict['crashes_observed']} observed / {config.crashes} requested"),
        config.storm == "faults"
        and (
            "faults",
            f"{verdict['faults_injected']} injected ({config.fault_type.value}), "
            f"watchdog fired {verdict['watchdog_fired']}",
        ),
        config.chaos
        and (
            "chaos",
            ",".join(sorted({cap.name for cap in config.chaos}))
            + f": {verdict['chaos_fires']} fires",
        ),
        (
            "acked",
            f"{load.acked} (failed {load.failed}, rejected {load.rejected}, "
            f"retried {load.retried})",
        ),
        ("transparent", f"{verdict['transparent_retries']} requests re-run across crashes"),
        (
            "cross renames",
            f"{intents.get('intents', 0)} (rolled forward "
            f"{intents.get('rolled_forward', 0)}, back {intents.get('rolled_back', 0)})",
        )
        if clustered
        else ("rebinds", f"{verdict['rebinds']} fds re-bound, {verdict['rebind_failures']} stale"),
        (
            "lost acks",
            f"{verdict['lost_acks']}"
            + (f"  (repaired {verdict['repaired_acks']})" if verdict["repaired_acks"] else ""),
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
            f"{verdict['dissect_scans']} scans, {verdict['dissect_divergences']} fsck "
            "divergences, final image "
            + (
                "CLEAN"
                if verdict["final_dissect_clean"]
                else f"{verdict['final_dissect_findings']} findings"
            )
            + f" ({verdict['final_image_sha256'][:16]})",
        ),
        config.backend is not None
        and (
            "remote tier",
            f"backend={config.backend}: {verdict['remote_reconciles']} reconciles "
            f"({verdict['remote_repairs']} repairs, {verdict['remote_deferred']} deferred), "
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
        *(("divergence", detail) for detail in verdict["divergence_details"][:5]),
    ]
    title = "cluster traffic campaign" if clustered else "traffic-under-faults campaign"
    return "\n".join(
        [title] + [f"  {label:<15} {value}" for label, value in filter(None, rows)]
    )
