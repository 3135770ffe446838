"""Debugfs-style chaos fault capabilities for the service tier.

The Table 1 injector corrupts kernel *text*; the failure modes a
production service actually meets live higher up the stack — an
allocation that fails, a queue that overflows, a disk that fills, an IO
that suddenly takes 8x longer.  This module mirrors the Linux fault
injection capability model (``/sys/kernel/debug/failslab``,
``fail_page_alloc``, ``fail_function``, fail-Nth): each *capability* is
a named fault with ``probability``/``interval``/``times`` knobs and a
*scope* restricting it to one client, one session, or one request
routine, registered in a :class:`ChaosRegistry` the hook sites consult.

Capabilities and their hook sites:

===================  ====================================================
``fail_alloc``       buffer-cache page grant (:meth:`PageCache.get` miss
                     path) raises ``ENOMEM`` before any state changes
``fail_queue``       scheduler admission raises :class:`Backpressure`
``fail_disk_full``   block allocator raises ``ENOSPC``
``slow_io``          disk service time is multiplied by ``factor``
``fail_nth_syscall`` the Nth request a scope executes fails retryably
``backend_fail``     an object-store request fails retryably (a 5xx)
``backend_outage``   an object-store request is rejected as an outage
===================  ====================================================

Determinism is the whole point: every probability draw comes from a
:class:`~repro.util.prng.DeterministicRandom` seeded per capability, and
every counter advances only on scope-matched evaluations, so one
``(seed, workload)`` pair produces one fault pattern — bit for bit, on
either execution engine, at any worker count.

Error-path capabilities (``fail_alloc``, ``fail_disk_full``,
``fail_nth_syscall``) evaluate **only inside a request scope**: they
model per-request resource denials, and recovery or administrative
paths (fsck, warm reboot, flushes) are never denied — chaos must not
break the recovery SLO it exists to measure.  ``fail_queue`` carries
its client explicitly at the admission hook, and ``slow_io`` may fire
anywhere its scope matches, including recovery IO.  The backend
capabilities (``backend_fail``, ``backend_outage``) likewise fire
wherever their scope matches — remote weather does not care what the
machine is doing — except inside ``repro fsck-remote``, which runs
under :meth:`ChaosRegistry.calm` (reconciliation is a recovery path).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.util.prng import DeterministicRandom

#: Every capability the registry knows how to arm.
CAPABILITY_NAMES = (
    "fail_alloc",
    "fail_queue",
    "fail_disk_full",
    "slow_io",
    "fail_nth_syscall",
    "backend_fail",
    "backend_outage",
)

#: Capabilities that only evaluate inside an active request scope (see
#: the module docstring: recovery paths are never denied).
REQUEST_SCOPED = frozenset({"fail_alloc", "fail_disk_full", "fail_nth_syscall"})


@dataclass
class ChaosContext:
    """Where the system currently is: which client/session/routine.

    Pushed by the file service around each request's execution (see
    :meth:`ChaosRegistry.request_scope`); hook sites may override single
    fields (the admission hook passes the client explicitly because no
    request is executing yet).
    """

    client: Optional[int] = None
    session: Optional[int] = None
    routine: Optional[str] = None


@dataclass
class ChaosScope:
    """What a capability is restricted to; ``None`` fields match anything.

    ``client`` is a client id, ``session`` a session sequence number
    (one per :meth:`SessionManager.open_session`, surviving warm
    reboots), ``routine`` a request op name (``"write"``, ``"mkdir"``,
    ...).
    """

    client: Optional[int] = None
    session: Optional[int] = None
    routine: Optional[str] = None

    def matches(self, ctx: Optional[ChaosContext]) -> bool:
        """True when every constrained field equals the context's."""
        if ctx is None:
            return self.client is None and self.session is None and self.routine is None
        return (
            (self.client is None or self.client == ctx.client)
            and (self.session is None or self.session == ctx.session)
            and (self.routine is None or self.routine == ctx.routine)
        )


@dataclass
class ChaosCapability:
    """One armed fault capability with its knobs and counters.

    Knob semantics mirror the Linux fault-injection attributes:

    * ``probability`` — percent chance an otherwise-eligible call fires;
    * ``interval`` — only every ``interval``-th eligible call may fire;
    * ``times`` — remaining fires (``-1`` = unlimited; reaching 0
      exhausts the capability);
    * ``nth`` — ``fail_nth_syscall`` only: the Nth scope-matched call
      fires, once per ``(client, session)`` counter;
    * ``factor`` — ``slow_io`` only: service-time multiplier.
    """

    name: str
    probability: int = 100
    interval: int = 1
    times: int = -1
    nth: int = 0
    factor: float = 8.0
    scope: ChaosScope = field(default_factory=ChaosScope)
    #: Scope-matched evaluations and actual fires (observability; the
    #: per-client split backs the scope-isolation tests).
    calls: int = 0
    fires: int = 0
    fires_by_client: Dict[Optional[int], int] = field(default_factory=dict)
    _nth_counts: Dict[tuple, int] = field(default_factory=dict)
    _rng: Optional[DeterministicRandom] = None

    def validate(self) -> None:
        """Reject knob values outside their documented domains."""
        if self.name not in CAPABILITY_NAMES:
            raise ConfigurationError(f"unknown chaos capability {self.name!r}")
        if not 0 <= self.probability <= 100:
            raise ConfigurationError("probability must be in [0, 100]")
        if self.interval < 1:
            raise ConfigurationError("interval must be >= 1")
        if self.times < -1:
            raise ConfigurationError("times must be -1 (unlimited) or >= 0")
        if self.nth < 0:
            raise ConfigurationError("nth must be >= 0")
        if self.factor <= 0:
            raise ConfigurationError("factor must be positive")

    @property
    def exhausted(self) -> bool:
        """True once a bounded ``times`` budget has been spent."""
        return self.times == 0

    def evaluate(self, ctx: Optional[ChaosContext]) -> bool:
        """Decide whether this capability fires for ``ctx``.

        Counters advance only on scope-matched evaluations, so a
        capability scoped to client A is a pure function of client A's
        call stream — client B's traffic cannot perturb it.
        """
        if self.exhausted or not self.scope.matches(ctx):
            return False
        self.calls += 1
        if self.nth > 0:
            key = (ctx.client, ctx.session) if ctx is not None else (None, None)
            count = self._nth_counts.get(key, 0) + 1
            self._nth_counts[key] = count
            if count != self.nth:
                return False
        elif self.interval > 1 and self.calls % self.interval != 0:
            return False
        if self.probability < 100:
            if self._rng is None or self._rng.randrange(100) >= self.probability:
                return False
        if self.times > 0:
            self.times -= 1
        self.fires += 1
        client = ctx.client if ctx is not None else None
        self.fires_by_client[client] = self.fires_by_client.get(client, 0) + 1
        return True

    def snapshot(self) -> dict:
        """JSON-safe counter summary for reports and digests."""
        return {
            "capability": self.name,
            "calls": self.calls,
            "fires": self.fires,
            "times_left": self.times,
            "fires_by_client": {
                str(client): count
                for client, count in sorted(
                    self.fires_by_client.items(), key=lambda kv: (kv[0] is None, kv[0])
                )
            },
        }


class ChaosRegistry:
    """The armed capability set plus the ambient request context.

    One registry serves one :class:`~repro.system.System` for one run:
    :meth:`System.install_chaos` attaches it to the kernel and disks
    (and re-attaches it across warm reboots), the file service pushes a
    request scope around every syscall, and the hook sites down the
    stack ask :meth:`should_fail`.  Everything is a pure function of
    the construction seed and the (deterministic) call stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._caps: Dict[str, List[ChaosCapability]] = {}
        self._context: List[ChaosContext] = []
        self._armed = 0
        self._calm = 0

    # -- arming --------------------------------------------------------

    def enable(
        self,
        name: str,
        *,
        probability: int = 100,
        interval: int = 1,
        times: int = -1,
        nth: int = 0,
        factor: float = 8.0,
        client: Optional[int] = None,
        session: Optional[int] = None,
        routine: Optional[str] = None,
    ) -> ChaosCapability:
        """Arm one capability; multiple arms of one name may coexist
        with different scopes (the *matrix* of the module name)."""
        cap = ChaosCapability(
            name=name,
            probability=probability,
            interval=interval,
            times=times,
            nth=nth,
            factor=factor,
            scope=ChaosScope(client=client, session=session, routine=routine),
        )
        cap.validate()
        cap._rng = DeterministicRandom(
            self.seed ^ (sum(ord(c) << i for i, c in enumerate(name)) * 0x9E3779B9)
            ^ (self._armed * 0x85EBCA6B)
        )
        self._armed += 1
        self._caps.setdefault(name, []).append(cap)
        return cap

    def capabilities(self) -> List[ChaosCapability]:
        """Every armed capability, in arming order per name."""
        return [cap for name in sorted(self._caps) for cap in self._caps[name]]

    # -- ambient context -----------------------------------------------

    @contextmanager
    def request_scope(
        self,
        *,
        client: Optional[int] = None,
        session: Optional[int] = None,
        routine: Optional[str] = None,
    ):
        """Push the executing request's identity for the hooks below it."""
        self._context.append(
            ChaosContext(client=client, session=session, routine=routine)
        )
        try:
            yield
        finally:
            self._context.pop()

    def current_context(self) -> Optional[ChaosContext]:
        """The innermost active request context, or ``None``."""
        return self._context[-1] if self._context else None

    @contextmanager
    def calm(self):
        """Suppress every capability (no counters advance) for a block.

        Used around *adoption* reads — after a chaos-denied request the
        service reads back what the request partially did to reconcile
        the audit model, and those reads must never themselves be
        chaos-denied (they are bookkeeping, not workload).
        """
        self._calm += 1
        try:
            yield
        finally:
            self._calm -= 1

    # -- evaluation (the hook-site API) --------------------------------

    def _effective_context(
        self, client: Optional[int], routine: Optional[str]
    ) -> Optional[ChaosContext]:
        ctx = self.current_context()
        if client is None and routine is None:
            return ctx
        return ChaosContext(
            client=client if client is not None else (ctx.client if ctx else None),
            session=ctx.session if ctx else None,
            routine=routine if routine is not None else (ctx.routine if ctx else None),
        )

    def should_fail(
        self,
        name: str,
        *,
        client: Optional[int] = None,
        routine: Optional[str] = None,
    ) -> bool:
        """True when any armed ``name`` capability fires right now.

        Request-scoped capabilities decline when no request identity is
        available (neither an ambient scope nor an explicit ``client``) —
        that is what keeps chaos out of the recovery path.
        """
        caps = self._caps.get(name)
        if not caps or self._calm:
            return False
        ctx = self._effective_context(client, routine)
        if ctx is None and name in REQUEST_SCOPED:
            return False
        fired = False
        for cap in caps:
            # Evaluate every armed scope so each keeps its own counters.
            fired = cap.evaluate(ctx) or fired
        return fired

    def io_service_ns(self, service_ns: int) -> int:
        """Apply ``slow_io`` to one disk service time (identity when calm)."""
        caps = self._caps.get("slow_io")
        if not caps or self._calm:
            return service_ns
        ctx = self.current_context()
        for cap in caps:
            if cap.evaluate(ctx):
                service_ns = int(service_ns * cap.factor)
        return service_ns

    # -- observability -------------------------------------------------

    def snapshot(self) -> List[dict]:
        """JSON-safe summary of every capability's counters, in a
        deterministic order (digest material for the chaos campaign)."""
        return [cap.snapshot() for cap in self.capabilities()]
