""":class:`FileService`: the assembled crash-transparent file server.

One service owns one :class:`~repro.system.System` and serves many
clients: admission control and typed backpressure at the front, the
deterministic fair scheduler in the middle, batched syscall execution
against the VFS at the bottom — and, when the kernel goes down
mid-traffic (an injected fault, a crash-storm hook, a genuine bug), the
service *recovers in line*: it runs the warm reboot, audits (and on
lossy systems repairs) the acknowledged-write journal against the
restored cache, re-binds every session's fd table, and resumes the very
batch it was executing.  Acknowledged operations are never lost; the
per-request durability audit proves it after every crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    CrashedMachineError,
    FileExists,
    FileNotFound,
    FileSystemError,
    SystemCrash,
)
from repro.faults import FaultInjector
from repro.server.journal import AckJournal, AuditReport, renamed
from repro.server.protocol import (
    ChaosInjected,
    QuotaExceeded,
    Request,
    Response,
    ServerError,
    SessionError,
)
from repro.server.scheduler import RequestScheduler
from repro.server.session import Session, SessionManager


#: Directory under which per-client homes are created.
HOME_PREFIX = "/srv"


@dataclass
class ServiceConfig:
    """Tunables of one file service instance."""

    #: Per-client admission queue depth (Backpressure beyond it).
    queue_depth: int = 32
    #: Requests executed per scheduling batch.
    batch_size: int = 16
    #: Max requests one client contributes per round-robin visit.
    quantum: int = 4
    #: Per-client open-descriptor quota (QuotaExceeded beyond it).
    max_open_fds: int = 16
    #: Re-apply lost journal entries during the post-crash audit.
    #: Pointless on Rio (nothing is ever lost); it lets the service
    #: degrade gracefully on disk-backed systems instead of lying.
    repair_on_recover: bool = False
    #: PLANTED ORDERING BUG — off by default, switched on only by the
    #: crash-point explorer's counterexample tests.  When set, a write
    #: is journaled, acknowledged and answered *before* it executes; a
    #: crash inside the window between the premature ack and the cache
    #: write loses an acknowledged operation (the exact failure the
    #: acked-data-durable spec clause exists to catch), because the
    #: dying request is already answered and recovery has no in-flight
    #: description to reconcile the broken promise with.
    ack_before_execute: bool = False


@dataclass
class ServiceStats:
    """Running counters across the service's lifetime."""

    submitted: int = 0
    rejected: int = 0
    executed: int = 0
    acked: int = 0
    failed: int = 0
    crashes_detected: int = 0
    #: Requests re-executed transparently after a mid-request crash.
    transparent_retries: int = 0
    recoveries: int = 0
    lost_acks: int = 0
    repaired_acks: int = 0
    #: Virtual time spent inside :meth:`FileService.recover` (reboot +
    #: audit), summed across all recoveries — the recovery-time SLO the
    #: chaos campaign reports.
    recovery_ns: int = 0
    audits: List[AuditReport] = field(default_factory=list)


class CrashPoints:
    """A ``before_execute`` hook forcing a kernel crash at fixed points.

    ``points`` are executed-request counts; each fires once, in
    ascending order, the first time ``executed`` reaches it.  Every
    forced storm is this hook fed by a schedule (evenly spaced for one
    kernel, rolling across a cluster's shards); the fault-injecting
    storm overrides what a due point does.
    """

    def __init__(self, system, points, label: str = "storm") -> None:
        self.system = system
        self.points = tuple(sorted(points))
        self.label = label
        self.fired = 0
        #: Counted by the fault-injecting flavour; a forced storm has none.
        self.faults_injected = self.watchdog_fired = 0

    def due(self, executed: int) -> bool:
        """Consume the next point if ``executed`` has reached it."""
        if self.fired < len(self.points) and executed >= self.points[self.fired]:
            self.fired += 1
            return True
        return False

    def __call__(self, executed: int) -> None:
        if self.due(executed):
            self.system.machine.crash(
                f"{self.label} crash {self.fired}/{len(self.points)}", kind="forced"
            )


class FaultStorm(CrashPoints):
    """The "faults" flavour: a due point injects one Table 1 fault and
    arms a watchdog that forces the crash if the corruption stays
    latent past ``watchdog_budget`` executed requests.  ``spec`` (a
    :class:`~repro.server.ShardSpec`) names the ``fault_type``, that
    budget, and the ``seed`` the injector draws from."""

    def __init__(self, system, points, label: str, spec) -> None:
        super().__init__(system, points, label)
        self.spec = spec
        self._armed_at: Optional[int] = None
        self._armed_kernel = None

    def __call__(self, executed: int) -> None:
        if self._armed_at is not None:
            if self.system.kernel is not self._armed_kernel:
                # The fault crashed the kernel on its own (the system
                # has rebooted since arming): disarm the watchdog.
                self._armed_at = self._armed_kernel = None
            elif executed - self._armed_at >= self.spec.watchdog_budget:
                # Latent corruption past the budget; force the crash.
                self._armed_at = self._armed_kernel = None
                self.watchdog_fired += 1
                self.system.machine.crash(
                    f"{self.label} watchdog: latent fault", kind="watchdog"
                )
                return
            else:
                return
        if not self.due(executed):
            return
        # A fresh injector every time: the kernel object is replaced
        # by each reboot.
        injector = FaultInjector(
            self.system.kernel, seed=self.spec.seed * 1000 + self.fired
        )
        injector.inject(self.spec.fault_type)
        self.faults_injected += 1
        self._armed_at = executed
        self._armed_kernel = self.system.kernel


class FileService:
    """A concurrent multi-client file service over one simulated system."""

    def __init__(self, system, config: Optional[ServiceConfig] = None) -> None:
        self.system = system
        self.config = config or ServiceConfig()
        self.sessions = SessionManager()
        self.journal = AckJournal()
        self.scheduler = RequestScheduler(self.config.queue_depth)
        #: Chaos registry, or ``None``.  The service owns the request
        #: scope: every executed request is bracketed with its
        #: client/session/routine identity so capabilities down the
        #: stack (cache, allocator, disk) can target it.
        self.chaos = system.chaos
        self.scheduler.chaos = self.chaos
        self.stats = ServiceStats()
        #: Optional hook called with the running executed-request count
        #: immediately before each request runs; crash storms use it to
        #: bring the kernel down mid-traffic.
        self.before_execute: Optional[Callable[[int], None]] = None
        self.last_audit: Optional[AuditReport] = None
        #: The request the last mid-request crash interrupted.  The pump
        #: re-executes that very object after recovery, so identity tells
        #: :meth:`_dispatch` that what it runs is a retry across a crash.
        self._interrupted: Optional[Request] = None
        system.add_reboot_hook(self._on_reboot)
        try:
            self.system.vfs.mkdir(HOME_PREFIX)
        except FileExists:
            pass
        else:
            self.journal.record(-1, 0, "mkdir", HOME_PREFIX)

    # -- plumbing ------------------------------------------------------

    @property
    def _now(self) -> int:
        return self.system.clock.now_ns

    # -- sessions ------------------------------------------------------

    def open_session(self, client_id: int) -> Session:
        """Create a session (and its home directory) for a client.

        The home directory creation is journaled under ``req_id=0`` —
        it is an acknowledged mutation like any other.
        """
        if client_id in self.sessions.sessions:
            return self.sessions.get(client_id)
        home = f"{HOME_PREFIX}/c{client_id:03d}"
        try:
            self.system.vfs.mkdir(home)
        except FileExists:
            pass
        self.journal.record(client_id, 0, "mkdir", home)
        session = self.sessions.open_session(client_id, cwd=home)
        rec = self.system.machine.recorder
        if rec.enabled:
            rec.emit("server", "session-open", client=client_id, home=home)
        return session

    # -- admission -----------------------------------------------------

    def submit(self, request: Request) -> Optional[Response]:
        """Admit a request into its client's queue.

        Returns ``None`` on admission, or an immediate *retryable*
        error response (backpressure) when the queue is full.  Requests
        are stamped with the current virtual time so latencies measure
        queueing, execution, and any recovery they waited out.
        """
        request.submitted_ns = self._now
        self.stats.submitted += 1
        try:
            self.sessions.get(request.client_id)
            self.scheduler.enqueue(request)
        except ServerError as exc:
            self.stats.submitted -= 1
            self.stats.rejected += 1
            rec = self.system.machine.recorder
            if rec.enabled:
                rec.emit(
                    "server", "reject",
                    client=request.client_id, req=request.req_id, error=exc.code,
                )
            return Response.failure(request, exc, self._now)
        return None

    # -- the pump ------------------------------------------------------

    def pump(self) -> List[Response]:
        """Execute one scheduled batch; returns its responses.

        The batch runs inside a :meth:`VFS.batch` scope (the fixed
        syscall prologue is charged once at full price, then at the
        batched rate).  A crash mid-batch is absorbed here: completed
        requests keep their (already journaled) acknowledgements, while
        the dying request and the batch's unstarted remainder return to
        the front of their queues in order — the client never sees the
        crash, only the recovery latency: the warm reboot, audit and
        session re-bind all happen before this call returns.
        """
        if self.system.machine.crashed:
            # The machine went down outside any batch (an administrative
            # crash, a storm firing between pumps).  Recover first.
            self.stats.crashes_detected += 1
            self.recover(None)
        batch = self.scheduler.next_batch(self.config.batch_size, self.config.quantum)
        if not batch:
            return []
        responses: List[Response] = []
        inflight: Optional[dict] = None
        rec = self.system.machine.recorder
        vfs = self.system.vfs
        #: The client has (or will get, when pump returns) the current
        #: request's response.
        answered = False

        def ack(request: Request, value: Any) -> None:
            # ``answered`` is set the moment the response is appended,
            # *before* the ack event is emitted, so a crash landing on
            # the ack emission still delivers.
            nonlocal answered
            self.stats.executed += 1
            self.stats.acked += 1
            responses.append(Response.answer(request, value=value, now_ns=self._now))
            answered = True
            if rec.enabled:
                rec.emit(
                    "server", "ack",
                    client=request.client_id, req=request.req_id, op=request.op,
                )

        try:
            with vfs.batch():
                for index, request in enumerate(batch):
                    if self.before_execute is not None:
                        self.before_execute(self.stats.executed)
                    answered = False
                    try:
                        if self.config.ack_before_execute and request.op == "write":
                            promised = self._pre_ack(request)
                            if promised is not None:
                                ack(request, promised)
                        value = self._execute(request, journal=not answered)
                        if not answered:
                            ack(request, value)
                    except (SystemCrash, CrashedMachineError):
                        if answered:
                            # The request was already answered.  Either it
                            # fully executed and the crash hit the ack
                            # emission (nothing is in flight), or the
                            # planted ack-before-execute bug promised it
                            # and the crash beat the data to the cache —
                            # recovery is handed *no* in-flight
                            # description, so the broken promise stands
                            # unexcused and the post-crash audit reports
                            # the lost ack.
                            inflight = {}
                            self.scheduler.requeue_front(batch[index + 1:])
                            break
                        # Crash transparency: the dying request was not
                        # acknowledged, so it is simply re-executed after
                        # recovery — ahead of the rest of the batch, so
                        # per-client ordering is preserved.  Re-execution
                        # is safe: writes are positional (idempotent) and
                        # a namespace op that did land surfaces as an
                        # ordinary POSIX error on the retry.
                        inflight = self._describe_inflight(request)
                        self._interrupted = request
                        self.stats.transparent_retries += 1
                        self.scheduler.requeue_front(batch[index:])
                        break
                    except (ServerError, FileSystemError) as exc:
                        if not answered:
                            self.stats.executed += 1
                            self.stats.failed += 1
                            responses.append(Response.failure(request, exc, self._now))
        except (SystemCrash, CrashedMachineError):
            # A crash escaping outside request execution (e.g. raised by
            # the batch epilogue) is handled like a mid-request crash
            # with nothing in flight.
            inflight = inflight or {}
        if inflight is not None:
            self.stats.crashes_detected += 1
            if rec.enabled:
                rec.emit("server", "crash-detected", backlog=self.scheduler.backlog())
            self.recover(inflight)
        return responses

    def drain(self, max_batches: int = 100_000) -> List[Response]:
        """Pump until every queue is empty; returns all responses."""
        responses: List[Response] = []
        for _ in range(max_batches):
            out = self.pump()
            if not out and self.scheduler.backlog() == 0:
                break
            responses.extend(out)
        return responses

    # -- recovery ------------------------------------------------------

    def recover(self, inflight: Optional[dict] = None) -> AuditReport:
        """Warm-reboot the system, audit the ack journal, resume.

        ``inflight`` is the description of the single unacknowledged
        request the machine died inside (see
        :meth:`AckJournal.audit`); sessions are re-bound by the
        :meth:`System.add_reboot_hook` hook this service registered at
        construction.  Returns the audit report; ``report.ok`` is the
        zero-lost-acks guarantee the traffic campaign asserts.
        """
        recover_start_ns = self._now
        self.system.reboot()  # reboot hooks re-bind the sessions
        audit = self.journal.audit(
            self.system.vfs,
            repair=self.config.repair_on_recover,
            inflight=inflight,
        )
        self.stats.recovery_ns += self._now - recover_start_ns
        self.stats.recoveries += 1
        self.stats.lost_acks += len(audit.lost)
        self.stats.repaired_acks += audit.repaired
        self.stats.audits.append(audit)
        self.last_audit = audit
        rec = self.system.machine.recorder
        if rec.enabled:
            rec.emit(
                "server", "recovered",
                lost=len(audit.lost),
                repaired=audit.repaired,
                files=audit.files_checked,
            )
        return audit

    def audit(self) -> AuditReport:
        """Run the durability audit against the current file system."""
        audit = self.journal.audit(self.system.vfs)
        self.last_audit = audit
        return audit

    def load_mark(self) -> Tuple[Tuple[int, ...], Dict[str, str]]:
        """What :func:`~repro.server.loadgen.run_load` asks of a target:
        the virtual clock of every kernel behind it (a run's elapsed
        time is the slowest kernel's) and the digests naming the
        acknowledged history so far."""
        digests = {
            "ack_digest": self.journal.ack_digest(),
            "state_digest": self.journal.state_digest(),
        }
        return (self._now,), digests

    def _on_reboot(self, system, report) -> None:
        """Reboot hook: reconstruct every session on the fresh VFS."""
        self.sessions.rebind_all(system.vfs, system.machine.recorder)

    # -- request execution ---------------------------------------------

    def _describe_inflight(self, request: Request) -> dict:
        """Resolve the crashing request's paths for the audit mask."""
        info: dict = {"op": request.op}
        try:
            session = self.sessions.get(request.client_id)
        except SessionError:
            return info
        if request.op in ("write", "read", "fsync", "truncate", "close"):
            state = session.fds.get(request.fd)
            if state is not None:
                info["path"] = state.path
                if request.op == "write":
                    info["offset"] = (
                        request.offset if request.offset is not None else state.offset
                    )
                    info["length"] = len(request.data or b"")
        elif request.path is not None:
            info["path"] = session.resolve(request.path)
            if request.new_path is not None:
                info["new_path"] = session.resolve(request.new_path)
        return info

    def _pre_ack(self, request: Request) -> Optional[int]:
        """The ``ack_before_execute`` planted bug: promise, then do.

        Journals a write before a single byte reaches the cache and
        returns the byte count it promised (the pump answers the client
        and emits the ack event on the spot), or ``None`` when the
        request cannot be resolved (bad session/fd — it then takes the
        normal path and fails honestly).
        """
        try:
            session = self.sessions.get(request.client_id)
            state = session.lookup(request.fd)
        except ServerError:
            return None
        offset = request.offset if request.offset is not None else state.offset
        data = request.data or b""
        self.journal.record(
            session.client_id, request.req_id, "write",
            state.path, offset=offset, data=data,
        )
        return len(data)

    def _execute(self, request: Request, *, journal: bool = True) -> Any:
        """Run one request against the VFS; journal it if it mutates.

        Raises :class:`ServerError` subtypes for service-level
        failures, file-system errors for POSIX failures, and lets
        crashes propagate to :meth:`pump`.  ``journal=False`` skips the
        write-path journal append (the ``ack_before_execute`` planted
        bug already recorded the promise before calling here).

        When a chaos registry is installed, execution runs inside a
        request scope carrying the client id, session sequence number
        and op name, and the ``fail_nth_syscall`` capability is
        evaluated here — *before* dispatch — so a denied request fails
        retryably without touching any state.  A deep chaos denial
        (page grant or block allocation refused mid-op) can leave a
        *partially applied* unacknowledged mutation; that partial state
        is outside the promise, so the journal model adopts the request's
        actual effect — exactly the crash-in-flight reconciliation —
        before the failure is surfaced.
        """
        session = self.sessions.get(request.client_id)
        if self.chaos is None:
            return self._dispatch(request, session, journal=journal)
        with self.chaos.request_scope(
            client=request.client_id,
            session=session.session_seq,
            routine=request.op,
        ):
            if self.chaos.should_fail("fail_nth_syscall"):
                raise ChaosInjected(
                    f"client {request.client_id}: chaos fail_nth_syscall"
                )
            try:
                return self._dispatch(request, session, journal=journal)
            except FileSystemError:
                with self.chaos.calm():
                    self.journal.reconcile_inflight(
                        self.system.vfs, self._describe_inflight(request)
                    )
                raise

    def _dispatch(self, request: Request, session: Session, *, journal: bool) -> Any:
        """The op switch behind :meth:`_execute` (same contract)."""
        vfs = self.system.vfs
        op = request.op

        if op == "open":
            if len(session.fds) >= self.config.max_open_fds:
                raise QuotaExceeded(
                    f"client {session.client_id}: "
                    f"open-fd quota ({self.config.max_open_fds}) exhausted"
                )
            path = session.resolve(request.path)
            existed = vfs.exists(path)
            backing = vfs.open(path, create=request.create)
            state = session.add_fd(path, backing, self.config.max_open_fds)
            if request.create and not existed:
                self.journal.record(session.client_id, request.req_id, "open", path)
            return state.cfd

        if op == "close":
            state = session.lookup(request.fd)
            vfs.close(state.backing_fd)
            session.drop_fd(state.cfd)
            return None

        if op == "read":
            state = session.lookup(request.fd)
            offset = request.offset if request.offset is not None else state.offset
            data = vfs.pread(state.backing_fd, request.length or 0, offset)
            if request.offset is None:
                state.offset = offset + len(data)
            return data

        if op == "write":
            state = session.lookup(request.fd)
            offset = request.offset if request.offset is not None else state.offset
            data = request.data or b""
            vfs.pwrite(state.backing_fd, data, offset)
            if journal:
                self.journal.record(
                    session.client_id, request.req_id, "write",
                    state.path, offset=offset, data=data,
                )
            if request.offset is None:
                state.offset = offset + len(data)
            return len(data)

        if op == "fsync":
            state = session.lookup(request.fd)
            vfs.fsync(state.backing_fd)
            return None

        if op == "truncate":
            state = session.lookup(request.fd)
            vfs.ftruncate(state.backing_fd)
            self.journal.record(
                session.client_id, request.req_id, "truncate", state.path
            )
            state.offset = 0
            return None

        if op == "mkdir":
            path = session.resolve(request.path)
            vfs.mkdir(path)
            self.journal.record(session.client_id, request.req_id, "mkdir", path)
            return None

        if op == "rmdir":
            path = session.resolve(request.path)
            vfs.rmdir(path)
            self.journal.record(session.client_id, request.req_id, "rmdir", path)
            return None

        if op == "unlink":
            path = session.resolve(request.path)
            vfs.unlink(path)
            self.journal.record(session.client_id, request.req_id, "unlink", path)
            return None

        if op == "rename":
            old = session.resolve(request.path)
            new = session.resolve(request.new_path)
            vfs.rename(old, new)
            if request is self._interrupted and old != new and vfs.exists(old):
                # The first attempt died between UFS.rename's dir_add and
                # dir_remove, leaving both names on one inode, and the
                # kernel's rename of two links to one file is a POSIX
                # no-op.  The protocol has no link op, so inside the
                # service this can only be that interrupted rename:
                # finish it before it is acknowledged.  (Recovery's fsck
                # has already counted the second name into nlink.  A
                # directory cannot be finished this way — EISDIR fails
                # the request honestly instead of acking a non-event.)
                vfs.unlink(old)
            self.journal.record(
                session.client_id, request.req_id, "rename", old, new_path=new
            )
            for other in self.sessions.sessions.values():
                for state in other.fds.values():
                    state.path = renamed(state.path, old, new)
            return None

        if op == "readdir":
            return vfs.readdir(session.resolve(request.path))

        if op == "stat":
            path = session.resolve(request.path)
            try:
                node = vfs.stat(path)
            except FileNotFound:
                return {"exists": False}
            return {"exists": True, "size": node.size}

        if op == "chdir":
            path = session.resolve(request.path)
            if not vfs.exists(path):
                raise FileNotFound(path)
            session.cwd = path
            return path

        raise SessionError(f"unknown op {request.op!r}")
