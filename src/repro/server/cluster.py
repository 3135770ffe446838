"""The multi-kernel cluster: N independent shards behind one front-end.

One :class:`ClusterService` owns N *shards*.  Each shard is a complete
:class:`~repro.system.System` — its own machine, kernel, Rio cache,
disk, file system — wrapped in its own crash-transparent
:class:`~repro.server.FileService`, so a kernel crash on one shard is
recovered by that shard's warm reboot (reboot, journal audit, session
rebind, re-execute) while every other shard keeps serving.  The front-end
is deliberately thin: it owns the cluster-wide admission queues and the
one fair scheduler (a shard runs each batch in the order sent), resolves
paths against per-client homes, routes every request to its shard
through the deterministic :class:`~repro.server.router.Router`, and
translates client file descriptors to shard descriptors.  All shard
state — caches, journals, fd tables — lives shard-side.

Shards run either in-process (:class:`InlineShardHost`, ``jobs=1``) or
each in its own worker process (:class:`ProcessShardHost`, ``jobs>1``)
speaking a batched command protocol over a pipe.  Both hosts drive the
*same* :class:`Shard` core with the *same* request stream, so one
``(config, seed)`` pair produces one set of per-shard ack digests, bit
for bit, at any ``jobs`` and on either execution engine — the cluster
determinism contract.

The explicit hard case is cross-shard ``rename``: the source and
destination hash to different kernels, so no single shard can move the
file atomically.  The front-end runs a two-phase protocol journaled in
a :class:`ClusterIntentLog` — record the intent, copy the bytes through
the destination shard's *normal acknowledged service path* (so the
destination's own ack journal covers them), then unlink the source
(covered by the source shard's journal) and mark the intent done.
:meth:`ClusterService.audit_intents` replays the log after recovery:
a ``done`` intent must hold (destination present, source absent), an
interrupted one is rolled forward from the ``copied`` state or rolled
back from ``begin``.  The protocol has no ``link``, so hard links
across shards do not arise; the day the protocol grows one, it must
take the same intent-log route.

Process death is *not* in scope: Rio's stable store is the machine's
memory, which lives inside the shard process.  Killing the process is
a power failure, which the paper's Rio explicitly does not survive (it
reaches the caller as a :class:`ClusterError` naming the shard).
Kernel crashes — the paper's subject — are recovered warm, in line.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.faults import ChaosRegistry, ChaosSpec, FaultType
from repro.server.protocol import (
    Backpressure,
    QuotaExceeded,
    Request,
    Response,
    ServerError,
    SessionError,
)
from repro.server.router import Router
from repro.server.scheduler import RequestScheduler
from repro.server.service import (
    MAX_OPEN_FDS,
    CrashPoints,
    FaultStorm,
    FileService,
    ServiceConfig,
)
from repro.server.session import home_dir, resolve_path
from repro.system import build_system, system_spec_for

#: Reserved client id for cluster-internal traffic (fan-out sub-requests
#: and cross-shard rename copies).  Real clients are numbered from 0;
#: a million simulated clients is beyond any configuration here.
INTERNAL_CLIENT = 1_000_000

#: Chunk size for cross-shard rename copies.
_COPY_CHUNK = 64 * 1024


class ClusterError(ReproError):
    """A shard worker failed outside the normal service error paths."""


# ---------------------------------------------------------------------------
# Shard core: one system + one service, same code under every host.
# ---------------------------------------------------------------------------


@dataclass
class KernelSpec:
    """One kernel under traffic, described once.

    :class:`ShardSpec` (this description + an id + a crash schedule) and
    :class:`ClusterConfig` (this description, N times over) both extend
    it, so every per-kernel axis is one field, and the only copy is
    :meth:`ClusterConfig.shard_spec`.
    """

    system: str = "rio_prot"
    fs_blocks: int = 2048
    inode_blocks: int = 8
    #: The kernel's :class:`FileService` tunables; on a cluster only the
    #: front-end reads ``queue_depth`` and ``quantum``.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: What fires at a crash point: "forced" (an administrative crash)
    #: or "faults" (one Table 1 ``fault_type`` injection, crashed by a
    #: watchdog if still latent ``watchdog_budget`` requests later).
    storm: str = "forced"
    fault_type: FaultType = FaultType.KERNEL_STACK
    watchdog_budget: int = 200
    #: Tiered backing store behind the disk ("local" | "objectstore" |
    #: "tiered"), or None for the single-tier stack.
    backend: Optional[str] = None
    #: Chaos capabilities to arm.
    chaos: Tuple[ChaosSpec, ...] = ()
    #: What the chaos registry, the backend's latency model and the
    #: fault injector draw from.
    seed: int = 1


@dataclass
class ShardSpec(KernelSpec):
    """Everything needed to build one shard (picklable: it crosses the
    pipe to worker processes, which build the shard from scratch)."""

    #: Position behind the front-end; None for a kernel served alone.
    shard_id: Optional[int] = None
    #: Executed-request counts at which this kernel's storm fires (each
    #: point once, in order).
    crash_points: Tuple[int, ...] = ()


class Shard:
    """One kernel under traffic: built from its spec, judged by
    :meth:`verdict` — the single service of ``repro serve`` and every
    kernel of a cluster alike.

    ``step`` is the whole shard-facing API: execute a batch of
    translated requests, in the order the front-end scheduled them, to
    completion.  A configured crash point firing mid-step is absorbed
    by the shard's own :class:`FileService` — the warm reboot runs in
    line, ``step`` re-executes the dying request and the rest of the
    batch, and returns a response for every request regardless.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.system = build_system(system_spec_for(
            spec.system, fs_blocks=spec.fs_blocks, inode_blocks=spec.inode_blocks,
            backend=spec.backend, backend_seed=spec.seed,
        ))
        if spec.chaos:
            registry = ChaosRegistry(seed=spec.seed)
            for capability in spec.chaos:
                registry.enable(**asdict(capability))
            self.system.install_chaos(registry)
        # The service's session-rebind hook registers before the second
        # opinion below, and its /srv mkdir is journaled.
        self.service = FileService(self.system, replace(spec.service))
        label = (
            "traffic storm" if spec.shard_id is None else f"shard {spec.shard_id} storm"
        )
        if spec.storm == "forced":
            self.storm = CrashPoints(self.system, spec.crash_points, label)
        else:
            self.storm = FaultStorm(self.system, spec.crash_points, label, spec)
        self.service.before_execute = self.storm
        #: fsck-vs-dissect comparisons, one per storm recovery, and the
        #: remote-tier reconciles those recoveries ran.
        self._second_opinions: List[Any] = []
        self._remote_reconciles: List[Any] = []
        self.system.add_reboot_hook(self._second_opinion)

    def _second_opinion(self, system, report) -> None:
        """Reboot hook: dissect the image fsck has just blessed — the one
        mid-run point where the on-disk state claims consistency."""
        from repro.fs import dissect

        if report.remote is not None:
            self._remote_reconciles.append(report.remote)
        _scan, divergence = dissect.second_opinion(dissect.snapshot(system.disk), report.fsck)
        self._second_opinions.append(divergence)

    def open_session(self, client_id: int) -> None:
        """Create the client's shard session (idempotent)."""
        self.service.open_session(client_id)

    def step(self, requests: List[Request]) -> List[Response]:
        """Execute ``requests`` in the given order; one response each.

        The front-end has admitted and scheduled them already, so they
        are stamped and counted here, not queued again.  What a crash
        leaves unexecuted — the dying request first — runs again after
        the in-line recovery, until nothing is left.
        """
        now = self.system.clock.now_ns
        for request in requests:
            request.submitted_ns = now
        self.service.stats.submitted += len(requests)
        responses: List[Response] = []
        while requests:
            done, requests = self.service.run_batch(requests)
            responses.extend(done)
        return responses

    def snapshot(self) -> Dict[str, Any]:
        """Scalar shard facts: digests, clock, counters (JSON-safe)."""
        stats = self.service.stats
        return {
            "shard": self.spec.shard_id,
            "clock_ns": self.system.clock.now_ns,
            "ack_digest": self.service.journal.ack_digest(),
            "state_digest": self.service.journal.state_digest(),
            "acked": stats.acked,
            "recoveries": stats.recoveries,
            "transparent_retries": stats.transparent_retries,
            "lost_acks": stats.lost_acks,
        }

    def audit(self) -> Dict[str, Any]:
        """Run the shard's durability audit; scalar report."""
        report = self.service.audit()
        return {
            "shard": self.spec.shard_id,
            "ok": report.ok,
            "lost": list(report.lost),
            "files_checked": report.files_checked,
            "dirs_checked": report.dirs_checked,
            "absent_checked": report.absent_checked,
        }

    def verdict(self) -> Dict[str, Any]:
        """Judge the finished run: counters, the final durability audit,
        the second opinions, the remote-only audit (JSON-safe).  Every
        per-kernel result fact is declared here and nowhere else; a
        campaign folds several kernels' verdicts by the rules of
        :func:`~repro.reliability.traffic.fold_verdicts`.

        Unlike :meth:`snapshot` and :meth:`audit` this *flushes* the
        file system — mid-run the Rio disk is legitimately stale, so
        only a fully flushed image is expected to dissect clean — and so
        moves the virtual clock: call it once, after the load.
        """
        from repro.fs import dissect

        system, service, stats = self.system, self.service, self.service.stats
        sessions = service.sessions.sessions.values()
        chaos = system.chaos.snapshot() if system.chaos is not None else []
        final = service.audit()
        system.settle()
        scan = dissect.dissect_image(dissect.snapshot(system.disk))
        opinions = self._second_opinions
        verdict = {
            "crashes_observed": stats.crashes_detected,
            "recoveries": stats.recoveries,
            "faults_injected": self.storm.faults_injected,
            "watchdog_fired": self.storm.watchdog_fired,
            "lost_acks": stats.lost_acks + len(final.lost),
            "repaired_acks": stats.repaired_acks,
            "rebinds": sum(session.rebinds for session in sessions),
            "rebind_failures": sum(session.rebind_failures for session in sessions),
            "transparent_retries": stats.transparent_retries,
            "final_audit_ok": final.ok,
            # Virtual time spent in recovery (reboot + audit).
            "recovery_ns": stats.recovery_ns,
            "chaos_fires": sum(capability["fires"] for capability in chaos),
            "chaos_snapshot": chaos,
            # Independent-verifier second opinions: one dissect scan
            # after each storm recovery (post-fsck) plus the final image.
            "dissect_scans": len(opinions) + 1,
            "dissect_divergences": sum(1 for d in opinions if not d.agreed),
            "divergence_details": [line for d in opinions for line in d.details],
            "final_image_sha256": scan.image_sha256,
            "final_dissect_findings": len(scan.findings),
            "final_dissect_clean": scan.clean,
        }
        if system.backing is not None:
            # The storm reconciles already ran inside each reboot; the
            # run finishes with the remote-only audit — the object store
            # alone, local disk thrown away, must pay every ack.
            from repro.backend.audit import remote_recovery_audit

            reconciles = self._remote_reconciles
            verdict.update(
                remote_reconciles=len(reconciles),
                remote_repairs=sum(r.repairs for r in reconciles),
                remote_deferred=sum(1 for r in reconciles if r.deferred),
                remote_audit=remote_recovery_audit(system, service.journal).to_json_dict(),
                # The tiered store's stats, the link's under "link".
                remote_stats={
                    **system.backing.stats.to_json_dict(),
                    "link": system.backing.remote.stats.to_json_dict(),
                },
            )
        return verdict

    def handle(self, command: str, payload: Any) -> Any:
        """Dispatch one host command (shared by both host kinds)."""
        if command == "step":
            return self.step(payload)
        if command == "session":
            return self.open_session(payload)
        if command in ("snapshot", "audit", "verdict"):
            return getattr(self, command)()
        raise ClusterError(f"unknown shard command {command!r}")


# ---------------------------------------------------------------------------
# Shard hosts: the same command stream, in-process or over a pipe.
# ---------------------------------------------------------------------------


class InlineShardHost:
    """Runs the shard in-process; ``cast`` executes eagerly."""

    def __init__(self, spec: ShardSpec) -> None:
        self.shard = Shard(spec)
        self._results: List[Any] = []

    def cast(self, command: str, payload: Any = None) -> None:
        """Execute the command now; the result queues for collect."""
        self._results.append(self.shard.handle(command, payload))

    def collect(self) -> Any:
        """Pop the oldest result (FIFO, matching cast order)."""
        return self._results.pop(0)

    def close(self) -> None:
        """Drop any uncollected results (the shard needs no teardown)."""
        self._results.clear()


def _shard_worker(conn, spec: ShardSpec) -> None:  # pragma: no cover - subprocess
    """Worker-process loop: build the shard, serve pipe commands."""
    shard = Shard(spec)
    while True:
        command, payload = conn.recv()
        if command == "close":
            conn.send((True, None))
            conn.close()
            return
        try:
            conn.send((True, shard.handle(command, payload)))
        except Exception as exc:  # surface shard bugs to the front-end
            conn.send((False, f"{type(exc).__name__}: {exc}"))


class ProcessShardHost:
    """Runs the shard in its own worker process behind a pipe.

    ``cast`` enqueues without waiting (the pipe is the per-shard
    serialization), so the front-end can keep several shards' steps in
    flight at once; ``collect`` returns replies in cast order.  A worker
    that is gone (killed, crashed outside the service's error paths)
    surfaces as a :class:`ClusterError` naming the shard.
    """

    def __init__(self, spec: ShardSpec, ctx=None) -> None:
        ctx = ctx or multiprocessing.get_context()
        self._shard_id = spec.shard_id
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_shard_worker, args=(child, spec), daemon=True
        )
        self._process.start()
        child.close()

    def _died(self, exc: Exception) -> ClusterError:
        return ClusterError(f"shard {self._shard_id} worker died: {type(exc).__name__}")

    def cast(self, command: str, payload: Any = None) -> None:
        """Send the command down the pipe without waiting for a reply."""
        try:
            self._conn.send((command, payload))
        except OSError as exc:
            raise self._died(exc) from exc

    def collect(self) -> Any:
        """Receive the next reply (cast order); raise on worker errors."""
        try:
            ok, result = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died(exc) from exc
        if not ok:
            raise ClusterError(f"shard {self._shard_id} worker failed: {result}")
        return result

    def close(self) -> None:
        """Ask the worker to exit, then join (terminate as last resort)."""
        if self._process.is_alive():
            try:
                self._conn.send(("close", None))
                self._conn.recv()
            except (EOFError, OSError):
                pass
        self._conn.close()
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()


# ---------------------------------------------------------------------------
# The cross-shard rename intent log.
# ---------------------------------------------------------------------------


@dataclass
class RenameIntent:
    """One cross-shard rename's durable intent record."""

    intent_id: int
    client_id: int
    req_id: int
    old: str
    new: str
    src_shard: int
    dst_shard: int
    #: "begin" -> "copied" -> "done" (or "aborted" on a clean failure).
    state: str = "begin"

    def to_json_dict(self) -> dict:
        """A JSON-serializable copy (the digest's canonical form)."""
        return dict(self.__dict__)


class ClusterIntentLog:
    """Ordered two-phase intent records for cross-shard renames.

    The log is the front-end's crash-consistency anchor for the one
    operation no single shard journal can cover end to end.  Every
    record moves ``begin -> copied -> done``; anything short of
    ``done``/``aborted`` after a disturbance is repaired by
    :meth:`ClusterService.audit_intents` — forward from ``copied``
    (the destination's bytes are acknowledged; finish the unlink),
    backward from ``begin`` (nothing acknowledged yet; drop any
    partial copy).
    """

    def __init__(self) -> None:
        self.records: List[RenameIntent] = []

    def __len__(self) -> int:
        return len(self.records)

    def begin(
        self,
        client_id: int,
        req_id: int,
        old: str,
        new: str,
        src_shard: int,
        dst_shard: int,
    ) -> RenameIntent:
        """Open a new intent in state "begin" and return it."""
        intent = RenameIntent(
            intent_id=len(self.records),
            client_id=client_id,
            req_id=req_id,
            old=old,
            new=new,
            src_shard=src_shard,
            dst_shard=dst_shard,
        )
        self.records.append(intent)
        return intent

    def advance(self, intent: RenameIntent, state: str) -> None:
        """Move one intent forward ("copied", "done", or "aborted")."""
        if state not in ("copied", "done", "aborted"):
            raise ClusterError(f"bad intent state {state!r}")
        intent.state = state

    def open_intents(self) -> List[RenameIntent]:
        """Records not yet settled (neither done nor aborted)."""
        return [r for r in self.records if r.state not in ("done", "aborted")]

    def digest(self) -> str:
        """sha256 over the canonical ordered log."""
        import json

        h = hashlib.sha256()
        for record in self.records:
            h.update(
                json.dumps(
                    record.to_json_dict(), sort_keys=True, separators=(",", ":")
                ).encode()
            )
            h.update(b"\n")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# The cluster front-end.
# ---------------------------------------------------------------------------


@dataclass
class ClusterFd:
    """Front-end descriptor record: which shard holds the real fd."""

    cfd: int
    shard: int
    shard_fd: int
    path: str
    #: A cross-shard rename moved the file to another kernel: only
    #: ``close`` still reaches ``shard_fd``, to release it.
    stale: bool = False


@dataclass
class ClusterSession:
    """A client's front-end state: its home plus the cluster fd table."""

    client_id: int
    #: Fixed when the session opens (:func:`~repro.server.session.home_dir`).
    home: str
    fds: Dict[int, ClusterFd] = field(default_factory=dict)
    next_cfd: int = 3


#: Requests per front-end scheduling batch.
_BATCH_SIZE = 32


@dataclass
class ClusterConfig(KernelSpec):
    """One cluster: the per-kernel description every shard is built
    from, plus what only the front-end knows."""

    shards: int = 2
    #: Router key mode: "dir" colocates a directory's entries on one
    #: shard (client homes land whole); "hash" scatters by full path.
    router_mode: str = "dir"
    #: The storm schedule: shard id -> executed-count crash points.
    crash_points: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # ``fail_queue`` strikes a kernel's admission; a shard has none.
        if any(capability.name == "fail_queue" for capability in self.chaos):
            raise ConfigurationError(
                "fail_queue has no hook on a cluster: shards do no admission"
            )

    def shard_spec(self, shard: int) -> ShardSpec:
        """Kernel ``shard`` of this cluster: the shared description, its
        own crash points — and its own seed, mixed from ``(seed, shard)``
        so that no two shards replay one chaos, backend or
        fault-injection stream."""
        kernel = {f.name: getattr(self, f.name) for f in fields(KernelSpec)}
        kernel["seed"] = self.seed ^ ((shard + 1) * 0x9E3779B9)
        return ShardSpec(
            **kernel,
            shard_id=shard,
            crash_points=tuple(self.crash_points.get(shard, ())),
        )


@dataclass
class ClusterStats:
    """Front-end counters (shard counters live in shard snapshots)."""

    submitted: int = 0
    rejected: int = 0
    routed: int = 0
    fanouts: int = 0
    local_failures: int = 0
    cross_renames: int = 0
    cross_rename_failures: int = 0


class ClusterService:
    """N independent Machine+Kernel shards behind one deterministic router.

    ``jobs=1`` hosts every shard in-process; ``jobs>1`` gives every
    shard its own worker process.  The command streams are identical,
    so digests are too.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, *, jobs: int = 1) -> None:
        self.config = config or ClusterConfig()
        self.router = Router(self.config.shards, mode=self.config.router_mode)
        self.scheduler = RequestScheduler(self.config.service.queue_depth)
        self.sessions: Dict[int, ClusterSession] = {}
        self.intents = ClusterIntentLog()
        self.stats = ClusterStats()
        #: Test hook: called with (phase, intent) at "pre-copy" and
        #: "pre-unlink" during a cross-shard rename, so the suite can
        #: land a shard crash exactly inside the two-phase window.
        self.rename_hook: Optional[Callable[[str, RenameIntent], None]] = None
        #: The post-conditions of ``done`` intents that still bind: path
        #: -> id of the intent that put a file there / took one away.  A
        #: later acknowledged namespace operation on the path lifts the
        #: condition (:meth:`_namespace_changed`).
        self._must_exist: Dict[str, int] = {}
        self._must_be_absent: Dict[str, int] = {}
        #: Directories whose fan-out ``mkdir`` was acknowledged: renaming
        #: one moves a shell on every shard, not a file on one.
        self._dirs: Set[str] = set()
        self._shard_sessions: Set[Tuple[int, int]] = set()
        self._next_internal_req = 1
        self.jobs = jobs
        host_type = ProcessShardHost if jobs > 1 else InlineShardHost
        self.hosts: List[Any] = []
        try:
            for shard in range(self.config.shards):
                self.hosts.append(host_type(self.config.shard_spec(shard)))
            # The internal session exists on every shard from the start
            # so fan-out and rename machinery never races session creation.
            self._gather("session", INTERNAL_CLIENT)
        except BaseException:
            # A host that failed to start must not strand the workers
            # already running.
            self.close()
            raise

    # -- plumbing ------------------------------------------------------

    def close(self) -> None:
        """Shut down every shard host (idempotent)."""
        for host in self.hosts:
            host.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _internal_request(self, op: str, **kwargs) -> Request:
        request = Request(
            client_id=INTERNAL_CLIENT,
            req_id=self._next_internal_req,
            op=op,
            **kwargs,
        )
        self._next_internal_req += 1
        return request

    def _gather(self, command: str, payload: Any = None) -> List[Any]:
        """One command to every shard, overlapped; replies in shard order."""
        for host in self.hosts:
            host.cast(command, payload)
        return [host.collect() for host in self.hosts]

    def _internal_step(self, shard: int, request: Request) -> Response:
        """One internal sub-request on one shard, run to completion."""
        host = self.hosts[shard]
        host.cast("step", [request])
        return host.collect()[0]

    def _ensure_session(self, client_id: int, shard: int, casts: List) -> None:
        """Queue a shard session-open for the client if missing."""
        key = (client_id, shard)
        if key in self._shard_sessions:
            return
        self._shard_sessions.add(key)
        self.hosts[shard].cast("session", client_id)
        casts.append(("session", shard, None))

    def _ensure_sessions_sync(self, client_id: int, shards) -> None:
        """Open the client's session on the given shards, synchronously.

        The barriers (fan-out, cross-shard rename) touch shards
        the client may never have been routed to; the shard-side
        session open also creates the client's home directory, which
        those operations resolve under.
        """
        casts: List = []
        for shard in shards:
            self._ensure_session(client_id, shard, casts)
        for _, shard, _ in casts:
            self.hosts[shard].collect()

    # -- sessions ------------------------------------------------------

    def open_session(self, client_id: int) -> ClusterSession:
        """Create the client's front-end session (shard sessions are
        created lazily, on the first request routed to each shard)."""
        if client_id in self.sessions:
            return self.sessions[client_id]
        session = ClusterSession(client_id=client_id, home=home_dir(client_id))
        self.sessions[client_id] = session
        return session

    # -- admission -----------------------------------------------------

    def submit(self, request: Request) -> Optional[Response]:
        """Admit a request into the cluster-wide scheduler.

        Mirrors :meth:`FileService.submit`: ``None`` on admission, an
        immediate retryable response on backpressure.  Time stamps are
        applied shard-side (each shard has its own virtual clock), so
        latencies are shard-local and deterministic.
        """
        self.stats.submitted += 1
        if request.client_id not in self.sessions:
            self.stats.submitted -= 1
            self.stats.rejected += 1
            return Response.failure(
                request, SessionError(f"no session for client {request.client_id}")
            )
        try:
            self.scheduler.enqueue(request)
        except Backpressure as exc:
            self.stats.submitted -= 1
            self.stats.rejected += 1
            return Response.failure(request, exc)
        return None

    def backlog(self) -> int:
        """Requests admitted but not yet dispatched to a shard."""
        return self.scheduler.backlog()

    # -- the pump ------------------------------------------------------

    def pump(self) -> List[Response]:
        """Dispatch one scheduled batch across the shards.

        Single-shard requests are grouped per shard and the groups run
        concurrently (each shard's pipe serializes its own stream);
        fan-out operations and cross-shard renames are barriers — the
        open groups are collected first, then the barrier runs
        synchronously.  A request the front-end refuses (unknown op or
        fd, a path that does not resolve, the fd quota) is answered on
        the spot and takes nothing else in the batch with it.  Response
        order is deterministic: per segment, shards ascending, each
        shard's responses in its service's execution order.
        """
        batch = self.scheduler.next_batch(_BATCH_SIZE, self.config.service.quantum)
        if not batch:
            return []
        out: List[Response] = []
        segment: List[Tuple[int, Request, Optional[Callable]]] = []
        for request in batch:
            try:
                kind, payload = self._translate(request)
            except ServerError as exc:
                self.stats.local_failures += 1
                out.append(Response.failure(request, exc))
                continue
            if kind == "shard":
                self.stats.routed += 1
                segment.append(payload)
            else:
                out.extend(self._dispatch(segment))
                segment = []
                if kind == "fanout":
                    self.stats.fanouts += 1
                    out.append(self._fanout(*payload))
                else:  # "xrename"
                    out.append(self._cross_rename(*payload))
        out.extend(self._dispatch(segment))
        return out

    # -- request translation -------------------------------------------

    def _translate(self, request: Request):
        """Classify one client request into a dispatch plan item.

        Returns ``(kind, payload)`` where kind is ``"shard"`` (a
        translated single-shard request plus its response finisher) or
        a barrier, ``"fanout"``/``"xrename"``; every path is resolved
        here, once.  Raises :class:`ServerError` for a request the
        front-end answers itself.
        """
        session = self.sessions[request.client_id]
        op = request.op

        if op in ("read", "write", "fsync", "truncate", "close"):
            entry = session.fds.get(request.fd) if request.fd is not None else None
            if entry is None:
                raise SessionError(f"client {request.client_id}: unknown fd {request.fd}")
            if entry.stale and op != "close":
                raise SessionError(
                    f"client {request.client_id}: fd {request.fd} went "
                    "stale across a cross-shard rename"
                )
            translated = replace(request, fd=entry.shard_fd)
            finisher = None
            if op == "close":
                cfd = request.fd

                def finisher(response: Response, _session=session, _cfd=cfd):
                    if response.ok:
                        _session.fds.pop(_cfd, None)
                    return response

            return "shard", (entry.shard, translated, finisher)

        if op == "open":
            path = resolve_path(session.home, request.path)
            if len(session.fds) >= MAX_OPEN_FDS:
                raise QuotaExceeded(
                    f"client {request.client_id}: open-fd quota "
                    f"({MAX_OPEN_FDS}) exhausted"
                )
            shard = self.router.shard_for(path)
            translated = replace(request, path=path)

            def finisher(
                response: Response,
                _session=session,
                _shard=shard,
                _path=path,
                _create=request.create,
            ):
                if response.ok:
                    if _create:
                        self._namespace_changed(created=_path)
                    entry = ClusterFd(
                        cfd=_session.next_cfd,
                        shard=_shard,
                        shard_fd=response.value,
                        path=_path,
                    )
                    _session.fds[entry.cfd] = entry
                    _session.next_cfd += 1
                    response.value = entry.cfd
                return response

            return "shard", (shard, translated, finisher)

        if op == "readdir" and self.router.mode == "dir":
            # Dir mode colocates a directory's files on the shard owning
            # its key, and directory shells replicate everywhere — so
            # that one shard holds the complete listing.  No fan-out.
            path = resolve_path(session.home, request.path)
            shard = self.router.shard_for_key(path)
            return "shard", (shard, replace(request, path=path), None)

        if op in ("mkdir", "readdir"):
            return "fanout", (request, resolve_path(session.home, request.path), None)

        if op in ("stat", "unlink"):
            path = resolve_path(session.home, request.path)
            shard = self.router.shard_for(path)
            finisher = None
            if op == "unlink":

                def finisher(response: Response, _path=path):
                    if response.ok:
                        self._namespace_changed(removed=_path)
                    return response

            return "shard", (shard, replace(request, path=path), finisher)

        if op == "rename":
            old = resolve_path(session.home, request.path)
            new = resolve_path(session.home, request.new_path)
            if old in self._dirs:
                return "fanout", (request, old, new)
            src = self.router.shard_for(old)
            dst = self.router.shard_for(new)
            if src == dst:
                translated = replace(request, path=old, new_path=new)

                def finisher(response: Response, _old=old, _new=new):
                    if response.ok:
                        self._namespace_changed(removed=_old, created=_new)
                        self._repoint_fds(_old, _new, stale=False)
                    return response

                return "shard", (src, translated, finisher)
            return "xrename", (request, old, new, src, dst)

        raise SessionError(f"unknown op {request.op!r}")

    def _namespace_changed(
        self, *, removed: Optional[str] = None, created: Optional[str] = None
    ) -> None:
        """An acknowledged operation took the name ``removed`` away and/or
        brought the name ``created`` into being: an earlier ``done``
        intent no longer promises that the one exists or the other is
        absent.  Only what the front-end acknowledged counts — a name
        that changes behind its back stays a violation."""
        if removed is not None:
            self._must_exist.pop(removed, None)
        if created is not None:
            self._must_be_absent.pop(created, None)

    def _intent_done(self, intent: RenameIntent) -> None:
        """Settle ``intent`` as ``done``: the rename is itself a namespace
        change, and its own post-conditions bind from here on."""
        self.intents.advance(intent, "done")
        self._namespace_changed(removed=intent.old, created=intent.new)
        self._must_exist[intent.new] = intent.intent_id
        self._must_be_absent[intent.old] = intent.intent_id
        self._repoint_fds(intent.old, intent.new, stale=True)

    def _repoint_fds(self, old: str, new: str, *, stale: bool) -> None:
        """Update every cluster fd open on ``old`` after a rename.

        Intra-shard renames keep descriptors valid (the shard service
        re-points its own fd table), so the front-end just renames the
        path.  A cross-shard rename moves the bytes to another kernel,
        so descriptors on the source go stale — exactly like a network
        file system's handle after a cross-server migration — and keep
        their source-shard fd for ``close`` to release.
        """
        for session in self.sessions.values():
            for entry in session.fds.values():
                if entry.path == old:
                    entry.path = new
                    entry.stale = entry.stale or stale

    # -- dispatch ------------------------------------------------------

    def _dispatch(self, segment: List[Tuple[int, Request, Optional[Callable]]]):
        """Run one barrier-free segment: group per shard, overlap, collect."""
        if not segment:
            return []
        by_shard: Dict[int, List[Tuple[Request, Optional[Callable]]]] = {}
        for shard, translated, finisher in segment:
            by_shard.setdefault(shard, []).append((translated, finisher))
        casts: List[Tuple[str, int, Any]] = []
        for shard in sorted(by_shard):
            entries = by_shard[shard]
            for translated, _ in entries:
                self._ensure_session(translated.client_id, shard, casts)
            self.hosts[shard].cast("step", [t for t, _ in entries])
            casts.append(("step", shard, entries))
        out: List[Response] = []
        for kind, shard, entries in casts:
            result = self.hosts[shard].collect()
            if kind == "session":
                continue
            finishers = {
                (t.client_id, t.req_id): f for t, f in entries if f is not None
            }
            for response in result:
                finisher = finishers.get((response.client_id, response.req_id))
                out.append(finisher(response) if finisher else response)
        return out

    # -- barriers ------------------------------------------------------

    def _merged_failure(self, request: Request, sub: Response) -> Response:
        """A client response carrying a sub-response's failure."""
        return Response.answer(
            request, error=sub.error, retryable=sub.retryable, timed_by=sub
        )

    def _fanout_step(self, op: str, path: str, new_path: Optional[str] = None) -> List[Response]:
        """One internal request per shard, overlapped; shard order."""
        for host in self.hosts:
            host.cast("step", [self._internal_request(op, path=path, new_path=new_path)])
        return [host.collect()[0] for host in self.hosts]

    def _fanout(self, request: Request, path: str, new: Optional[str]) -> Response:
        """Run mkdir, a directory rename (to ``new``) or hash-mode readdir
        of the resolved ``path`` on every shard.

        Directory *shells* are replicated: a directory exists on every
        shard so any shard can hold files under it.  ``readdir`` is
        the union of every shard's view; ``mkdir`` succeeds only when
        every shard succeeded (the shards' directory sets only move in
        lock step, so a split verdict indicates real divergence and is
        surfaced as the lowest shard's error).  A directory ``rename``
        probes every shard's listing *first* and moves only an empty
        shell: what lives under a populated one is placed by its *path*,
        so renaming the shells would leave every entry on a shard the
        new name no longer routes to — ``EXDEV``, as for any move the
        kernels cannot do in place.
        """
        self._ensure_sessions_sync(request.client_id, range(self.config.shards))
        if request.op == "rename":
            probes = self._fanout_step("readdir", path)
            failed = [r for r in probes if not r.ok]
            if failed:
                return self._merged_failure(request, failed[0])
            blocked = [r for r in probes if r.value]
            if blocked:
                return Response.answer(request, error="EXDEV", timed_by=blocked[0])
        subs = self._fanout_step(request.op, path, new)
        slowest = max(subs, key=lambda r: r.latency_ns)
        failed = [r for r in subs if not r.ok]
        if failed:
            return self._merged_failure(request, failed[0])
        value = None
        if request.op == "mkdir":
            self._namespace_changed(created=path)
            self._dirs.add(path)
        elif request.op == "rename":
            self._namespace_changed(removed=path, created=new)
            self._dirs.discard(path)
            self._dirs.add(new)
        else:  # readdir
            value = sorted(set().union(*(sub.value or [] for sub in subs)))
        return Response.answer(request, value=value, timed_by=slowest)

    # -- the hard case: cross-shard rename ------------------------------

    def _copy_across(self, old: str, new: str, src: int, dst: int) -> Optional[Response]:
        """Copy ``old`` on shard ``src`` to ``new`` on shard ``dst``, each
        side through its shard's normal acknowledged service path.

        Returns ``None`` once the destination holds every byte, else the
        first sub-response that failed — with whatever this opened closed
        again, a partial destination unlinked and the source untouched.
        """

        def step(shard: int, op: str, **kwargs) -> Response:
            return self._internal_step(shard, self._internal_request(op, **kwargs))

        probe = step(src, "stat", path=old)
        if probe.ok and not probe.value.get("exists"):
            probe = replace(probe, ok=False, error="ENOENT")
        if not probe.ok:
            return probe
        size = probe.value.get("size") or 0
        opened = step(src, "open", path=old)
        if not opened.ok:
            return opened
        chunks: List[bytes] = []
        failed = None
        offset = 0
        while offset < size and failed is None:
            got = step(
                src, "read", fd=opened.value, offset=offset,
                length=min(_COPY_CHUNK, size - offset),
            )
            if not got.ok:
                failed = got
            elif not got.value:
                break
            else:
                chunks.append(got.value)
                offset += len(got.value)
        step(src, "close", fd=opened.value)
        if failed is not None:
            return failed
        created = step(dst, "open", path=new, create=True)
        if not created.ok:
            return created
        data = b"".join(chunks)
        wrote = step(dst, "truncate", fd=created.value)
        if wrote.ok and data:
            wrote = step(dst, "write", fd=created.value, offset=0, data=data)
        closed = step(dst, "close", fd=created.value)
        if wrote.ok and closed.ok:
            return None
        step(dst, "unlink", path=new)
        return closed if wrote.ok else wrote

    def _cross_rename(
        self, request: Request, old: str, new: str, src: int, dst: int
    ) -> Response:
        """Move a file between kernels under a two-phase intent record.

        Phase 1 (:meth:`_copy_across`) reads the source through the
        source shard's normal service path and writes the destination
        through the destination shard's (create + truncate + write, all
        acknowledged into *that* shard's journal), then advances the
        intent to ``copied``; a step that fails on the way — a full
        destination, a chaos-denied read — aborts the intent with the
        source intact and hands the client that step's error.  Phase 2
        unlinks the source (acknowledged into the *source* shard's
        journal) and marks the intent ``done``.  A shard crash inside
        either phase is recovered by that shard in line — its ``step``
        re-executes the sub-request — so the phases always complete; the intent log exists to make the window *auditable*
        and to drive roll-forward/back if the front-end is ever
        interrupted between phases (:meth:`audit_intents`).
        """
        self.stats.cross_renames += 1
        self._ensure_sessions_sync(request.client_id, (src, dst))
        intent = self.intents.begin(request.client_id, request.req_id, old, new, src, dst)
        if self.rename_hook is not None:
            self.rename_hook("pre-copy", intent)
        failed = self._copy_across(old, new, src, dst)
        if failed is not None:
            self.intents.advance(intent, "aborted")
            self.stats.cross_rename_failures += 1
            return self._merged_failure(request, failed)
        self.intents.advance(intent, "copied")
        if self.rename_hook is not None:
            self.rename_hook("pre-unlink", intent)
        # Drop the source; ENOENT means someone beat us to it.
        gone = self._internal_step(src, self._internal_request("unlink", path=old))
        if gone.ok or gone.error == "ENOENT":
            self._intent_done(intent)
            return Response.answer(request, timed_by=gone)
        self.stats.cross_rename_failures += 1
        return self._merged_failure(request, gone)

    # -- audits --------------------------------------------------------

    def audit_intents(self) -> Dict[str, Any]:
        """Audit the intent log against the shards; repair open records.

        A ``done`` intent must hold — destination present, source
        absent — for as long as no later acknowledged operation renamed,
        unlinked or re-created the name (those lift the condition, see
        :meth:`_namespace_changed`); a violation is reported (it would
        mean a shard lost an acknowledged operation, which its own audit
        also flags).  An
        intent caught mid-flight is repaired: rolled *forward* from
        ``copied`` (the destination's bytes are acknowledged — finish
        the unlink), rolled *back* from ``begin`` (drop any partial
        destination; the source was never touched).
        """
        violations: List[str] = []
        rolled_forward = rolled_back = 0
        for intent in self.intents.open_intents():
            if intent.state == "copied":
                gone = self._internal_step(
                    intent.src_shard, self._internal_request("unlink", path=intent.old)
                )
                if gone.ok or gone.error == "ENOENT":
                    self._intent_done(intent)
                    rolled_forward += 1
                else:
                    violations.append(
                        f"intent {intent.intent_id}: roll-forward unlink "
                        f"{intent.old} failed ({gone.error})"
                    )
            else:  # "begin": nothing acknowledged at the destination yet
                self._internal_step(
                    intent.dst_shard, self._internal_request("unlink", path=intent.new)
                )
                self.intents.advance(intent, "aborted")
                rolled_back += 1
        for intent in self.intents.records:
            if intent.state != "done":
                continue
            dst = self._internal_step(
                intent.dst_shard, self._internal_request("stat", path=intent.new)
            )
            src = self._internal_step(
                intent.src_shard, self._internal_request("stat", path=intent.old)
            )
            if self._must_exist.get(intent.new) == intent.intent_id and not (
                dst.ok and dst.value.get("exists")
            ):
                violations.append(
                    f"intent {intent.intent_id}: destination {intent.new} "
                    "missing after completion"
                )
            if (
                self._must_be_absent.get(intent.old) == intent.intent_id
                and src.ok
                and src.value.get("exists")
            ):
                violations.append(
                    f"intent {intent.intent_id}: source {intent.old} "
                    "resurrected after completion"
                )
        return {
            "intents": len(self.intents),
            "open": len(self.intents.open_intents()),
            "rolled_forward": rolled_forward,
            "rolled_back": rolled_back,
            "violations": violations,
            "ok": not violations,
        }

    def snapshots(self) -> List[Dict[str, Any]]:
        """One scalar snapshot per shard, in shard order."""
        return self._gather("snapshot")

    def audits(self) -> List[Dict[str, Any]]:
        """One durability-audit report per shard, in shard order."""
        return self._gather("audit")

    def verdicts(self) -> List[Dict[str, Any]]:
        """One :meth:`Shard.verdict` per shard, in shard order (flushes
        every shard: call once, after the load)."""
        return self._gather("verdict")

    def cluster_digest(self) -> str:
        """sha256 over every shard's ack+state digest plus the intent log.

        The cluster determinism fixture: identical at any ``jobs`` and
        on either execution engine for one ``(config, seed)``.
        """
        h = hashlib.sha256()
        for snap in self.snapshots():
            h.update(
                f"{snap['shard']} {snap['ack_digest']} {snap['state_digest']}\n".encode()
            )
        h.update(self.intents.digest().encode())
        return h.hexdigest()

    def load_mark(self) -> Tuple[Tuple[int, ...], Dict[str, str]]:
        """The :meth:`FileService.load_mark` answer for a cluster: one
        virtual clock per shard, and the cluster + intent-log digests."""
        clocks = tuple(snap["clock_ns"] for snap in self.snapshots())
        digests = {
            "cluster_digest": self.cluster_digest(),
            "intent_digest": self.intents.digest(),
        }
        return clocks, digests
