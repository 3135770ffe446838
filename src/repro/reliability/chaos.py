"""Seeded chaos campaigns: the capability matrix, driven end to end.

One chaos *trial* is a traffic-under-faults campaign
(:func:`~repro.reliability.traffic.run_traffic_campaign`) with one set
of armed capabilities from :mod:`repro.faults.capabilities` — the same
deterministic clients, the same forced crash storm, plus allocation
denials / queue overflows / disk-full / slow IO injected on top.  The
*matrix* runs one trial per capability (plus a calm baseline) and
reports the service-tier SLOs:

* **p99 latency under chaos** — what each fault family costs the tail;
* **zero lost acks** — every trial must keep the durability promise;
* **recovery time** — virtual ns spent in warm reboot + audit.

Trials are pure functions of their payload, so the matrix fans out
through :class:`~repro.reliability.pool.ParallelMap` and the campaign
digest — a hash over every trial's ack/state digests and fire counts in
matrix order — is bit-identical at any ``--jobs`` and on either
execution engine.  ``repro chaos`` is the CLI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.reliability.pool import ParallelMap
from repro.reliability.traffic import TrafficConfig, run_traffic_campaign


@dataclass(frozen=True)
class ChaosSpec:
    """One capability arming, in wire-safe form.

    Field names match :meth:`ChaosRegistry.enable` exactly, so a spec's
    dict form is the enable call's kwargs; a tuple of these dicts is
    what :attr:`TrafficConfig.chaos` carries across process boundaries.
    """

    name: str
    probability: int = 100
    interval: int = 1
    times: int = -1
    nth: int = 0
    factor: float = 8.0
    client: Optional[int] = None
    session: Optional[int] = None
    routine: Optional[str] = None

    def to_json_dict(self) -> dict:
        """The enable-kwargs dict (JSON-safe)."""
        return asdict(self)


#: The default capability matrix: one trial per capability plus a calm
#: baseline.  Knobs are deliberately *bounded* (finite ``times``, sparse
#: ``interval``) — chaos must perturb the run, not livelock it: a
#: retryable capability armed unbounded at probability 100 would deny
#: every retry forever.
DEFAULT_MATRIX: Tuple[Tuple[str, Tuple[ChaosSpec, ...]], ...] = (
    ("baseline", ()),
    ("fail_alloc", (ChaosSpec("fail_alloc", probability=25, interval=7, times=6),)),
    ("fail_queue", (ChaosSpec("fail_queue", probability=50, interval=11, times=10),)),
    ("fail_disk_full", (ChaosSpec("fail_disk_full", probability=40, interval=5, times=5),)),
    ("slow_io", (ChaosSpec("slow_io", interval=6, times=20, factor=8.0),)),
    ("fail_nth_syscall", (ChaosSpec("fail_nth_syscall", nth=9, times=4),)),
)


@dataclass
class ChaosCampaignConfig:
    """One chaos campaign: the shared trial shape plus the matrix."""

    #: The trial every matrix row runs, minus its ``chaos`` specs.  Two
    #: forced crashes by default — every trial exercises recovery, so
    #: the recovery-time SLO is never vacuous.  ``base.jobs`` is the
    #: trial fan-out (1 = inline).
    base: TrafficConfig = field(default_factory=lambda: TrafficConfig(crashes=2))
    #: ``(trial_name, (ChaosSpec, ...))`` pairs; order fixes the digest.
    matrix: Tuple[Tuple[str, Tuple[ChaosSpec, ...]], ...] = DEFAULT_MATRIX


@dataclass
class ChaosTrialResult:
    """One trial's SLO summary (wire-safe)."""

    trial: str
    capabilities: Tuple[str, ...] = ()
    acked: int = 0
    failed: int = 0
    rejected: int = 0
    retried: int = 0
    lost_acks: int = 0
    crashes_observed: int = 0
    recoveries: int = 0
    recovery_ns: int = 0
    chaos_fires: int = 0
    chaos_snapshot: List[dict] = field(default_factory=list)
    p50_ns: int = 0
    p99_ns: int = 0
    throughput_ops_per_vsec: float = 0.0
    ack_digest: str = ""
    state_digest: str = ""
    ok: bool = False

    def to_json_dict(self) -> dict:
        """JSON-safe form shipped back from trial workers."""
        data = asdict(self)
        data["capabilities"] = list(self.capabilities)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChaosTrialResult":
        """Rebuild a trial result from its wire form."""
        data = dict(data)
        data["capabilities"] = tuple(data.get("capabilities", ()))
        return cls(**data)


@dataclass
class ChaosCampaignResult:
    """The whole matrix's outcome."""

    config: ChaosCampaignConfig
    trials: List[ChaosTrialResult] = field(default_factory=list)
    digest: str = ""
    quarantined: List = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every trial ran, kept zero lost acks, and audited clean."""
        return (
            not self.quarantined
            and len(self.trials) == len(self.config.matrix)
            and all(trial.ok for trial in self.trials)
        )

    @property
    def total_fires(self) -> int:
        """Capability fires summed over the matrix."""
        return sum(trial.chaos_fires for trial in self.trials)

    def compute_digest(self) -> str:
        """sha256 over every trial's identity-bearing fields, in matrix
        order — the bit-identical-at-any-jobs/engine fixture."""
        h = hashlib.sha256()
        for trial in self.trials:
            h.update(
                json.dumps(
                    {
                        "trial": trial.trial,
                        "ack_digest": trial.ack_digest,
                        "state_digest": trial.state_digest,
                        "chaos_fires": trial.chaos_fires,
                        "chaos_snapshot": trial.chaos_snapshot,
                        "lost_acks": trial.lost_acks,
                        "crashes_observed": trial.crashes_observed,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode()
            )
            h.update(b"\n")
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        """The ``repro chaos --json`` report."""
        return {
            "digest": self.digest,
            "ok": self.ok,
            "trials": [trial.to_json_dict() for trial in self.trials],
            "quarantined": self.quarantined,
        }


def run_chaos_campaign(config: ChaosCampaignConfig) -> ChaosCampaignResult:
    """Run a chaos capability matrix: one traffic trial per armed set.

    Each ``(trial, specs)`` row of the matrix becomes ``config.base``
    with those capabilities armed, fanned out through
    :class:`~repro.reliability.pool.ParallelMap`.  Trials are pure
    functions of their configs, so the campaign digest is bit-identical
    at any ``jobs`` count and on either execution engine.
    """
    if config.base.shards is not None:
        # A trial's identity is one kernel's ack/state digests; a cluster
        # takes ``chaos`` through its TrafficConfig, not through the matrix.
        raise ConfigurationError(
            f"the chaos matrix runs single-kernel trials, not shards={config.base.shards}"
        )
    pmap = ParallelMap(
        "repro.reliability.chaos:_chaos_trial_entry", jobs=config.base.jobs
    )
    tasks = [
        (
            trial,
            {
                "trial": trial,
                "config": replace(
                    config.base,
                    chaos=tuple(spec.to_json_dict() for spec in specs),
                ),
            },
        )
        for trial, specs in config.matrix
    ]
    raw = pmap.run(tasks)
    result = ChaosCampaignResult(config=config)
    for trial, _specs in config.matrix:
        summary = raw.get(trial)
        if summary is None:
            # A worker died on this trial (quarantined by the engine).
            result.quarantined.append(trial)
            continue
        result.trials.append(ChaosTrialResult.from_json_dict(summary))
    result.digest = result.compute_digest()
    return result


def _chaos_trial_entry(payload: dict) -> dict:
    """ParallelMap entry point: run one chaos trial, return its summary.

    A pure function of ``payload`` (the trial's whole
    :class:`TrafficConfig` is in it, every output comes back as a
    JSON-safe dict), which is what makes the campaign digest
    independent of the worker count.
    """
    config = payload["config"]
    result = run_traffic_campaign(config)
    load = result.load
    return ChaosTrialResult(
        trial=payload["trial"],
        capabilities=tuple(sorted({spec["name"] for spec in config.chaos})),
        acked=load.acked,
        failed=load.failed,
        rejected=load.rejected,
        retried=load.retried,
        lost_acks=result.lost_acks,
        crashes_observed=result.crashes_observed,
        recoveries=result.recoveries,
        recovery_ns=result.recovery_ns,
        chaos_fires=result.chaos_fires,
        chaos_snapshot=list(result.chaos_snapshot),
        p50_ns=load.latency_percentile(0.50),
        p99_ns=load.latency_percentile(0.99),
        throughput_ops_per_vsec=load.throughput_ops_per_vsec,
        ack_digest=result.ack_digest,
        state_digest=result.state_digest,
        ok=result.ok,
    ).to_json_dict()


def format_chaos_report(result: ChaosCampaignResult) -> str:
    """Human-readable SLO report for one chaos campaign."""
    config = result.config.base
    lines = [
        "chaos capability matrix",
        f"  system          {config.system}  (seed={config.seed}, jobs={config.jobs})",
        f"  clients         {config.clients} x {config.load.ops_per_client} programs, "
        f"{config.crashes} forced crashes per trial",
        "",
        f"  {'trial':<18} {'fires':>5} {'acked':>6} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'recovery ms':>11} {'lost':>4}",
    ]
    for trial in result.trials:
        lines.append(
            f"  {trial.trial:<18} {trial.chaos_fires:>5} {trial.acked:>6} "
            f"{trial.p50_ns / 1e6:>8.2f} {trial.p99_ns / 1e6:>8.2f} "
            f"{trial.recovery_ns / 1e6:>11.2f} {trial.lost_acks:>4}"
        )
    lines += [
        "",
        f"  total fires     {result.total_fires}",
        f"  campaign digest {result.digest[:16]}",
        f"  verdict         "
        + ("ZERO LOST ACKS UNDER CHAOS" if result.ok else "SLO VIOLATED"),
    ]
    if result.quarantined:
        lines.append(f"  quarantined     {result.quarantined}")
    return "\n".join(lines)
