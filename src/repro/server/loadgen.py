"""Deterministic multi-client load generation for the file service.

Each :class:`LoadClient` is a seeded PRNG state machine producing a
stream of small *programs* — a write, a read, an fsync, a close/unlink/
re-create cycle, a rename — against its own session home.  Clients
pipeline a few requests at a time, resubmit on retryable errors
(backpressure, quota, chaos denials), and count every
acknowledgement.  Because both the clients and the scheduler are pure
functions of their seeds, one ``(seed, clients, ops)`` triple produces
one ack log, bit for bit, crash storms included — the determinism the
traffic campaign asserts across runs *and* across execution engines.

:func:`run_load` is the one driver loop — behind ``repro loadgen``,
``repro serve``, ``repro cluster``, the traffic campaign and the
explorer's traffic workload — for a single service and a cluster alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.server.protocol import Request, Response
from repro.util.prng import DeterministicRandom, pattern_bytes


#: Ops that change the namespace or a descriptor binding.  A client
#: submits these *exclusively*: the pipeline drains first, and nothing
#: else goes out while one is in flight.  Data ops (positional reads,
#: writes, fsyncs) commute, so pipelining them is safe — but a retried
#: namespace op must never leapfrog a dependent request.  Without the
#: barrier, a retryable failure (backpressure, an injected fault) of
#: ``rename f1 -> r1`` lets the already-pipelined ``open r1 create``
#: execute first; the retried rename then replaces the fresh file while
#: the client keeps writing through its fd — acknowledged writes land
#: in a dead inode and the run's zero-lost-acks audit rightly fails.
NAMESPACE_OPS = frozenset({"open", "close", "unlink", "rename", "mkdir"})


def percentile(values: List[int], fraction: float) -> int:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


@dataclass
class LoadSpec:
    """Shape of the generated load (per client)."""

    #: Programs each client runs (a program is 1-3 requests).
    ops_per_client: int = 30
    #: Files per client home directory.
    files_per_client: int = 4
    #: Write sizes drawn uniformly from this inclusive range.
    write_bytes: tuple = (64, 2048)
    #: Files grow up to this many bytes (offsets drawn below it).
    max_file_bytes: int = 16 * 1024
    #: Requests a client keeps in flight at once.
    pipeline: int = 4

    def __post_init__(self) -> None:
        if self.pipeline < 1:
            # A client that may keep nothing in flight never submits.
            raise ConfigurationError(f"pipeline must be >= 1, got {self.pipeline}")


#: The program mix and its relative weights.
_KINDS, _WEIGHTS = zip(
    ("write", 50),
    ("read", 20),
    ("fsync", 8),
    ("readdir", 4),
    ("stat", 4),
    ("cycle", 8),
    ("mkdir", 3),
    ("rename", 3),
)


@dataclass
class ClientStats:
    """One client's view of the run."""

    client_id: int
    acked: int = 0
    failed: int = 0
    retried: int = 0
    rejected: int = 0
    latencies_ns: List[int] = field(default_factory=list)


class LoadClient:
    """One deterministic client: generates programs, tracks outcomes."""

    def __init__(self, client_id: int, seed: int, spec: LoadSpec) -> None:
        self.client_id = client_id
        self.spec = spec
        self.rng = DeterministicRandom(seed ^ (client_id * 0x9E3779B9) ^ 0x5EED)
        self.stats = ClientStats(client_id=client_id)
        self._next_req_id = 1
        self._programs_left = spec.ops_per_client
        self._planned: List[Request] = []
        self._outstanding: Dict[int, Request] = {}
        #: file index -> current path (relative to the session home).
        self.files = [f"f{i}" for i in range(spec.files_per_client)]
        #: file index -> client fd (None while closed/not yet open).
        self.fds: List[Optional[int]] = [None] * spec.files_per_client
        #: requests whose response assigns an fd: req_id -> file index.
        self._pending_opens: Dict[int, int] = {}
        self._mkdirs = 0
        self._renames = 0
        # Session warm-up: open every file once.
        for index in range(spec.files_per_client):
            self._plan_open(index)

    # -- request construction ------------------------------------------

    def _request(self, op: str, **kwargs) -> Request:
        req = Request(
            client_id=self.client_id, req_id=self._next_req_id, op=op, **kwargs
        )
        self._next_req_id += 1
        return req

    def _plan_open(self, index: int) -> None:
        req = self._request("open", path=self.files[index], create=True)
        self._pending_opens[req.req_id] = index
        self._planned.append(req)

    def _file_key(self, index: int) -> int:
        return (self.client_id << 20) ^ (index << 8) ^ 0xF11E

    def _plan_program(self) -> bool:
        """Queue the next program's requests; False when none remain."""
        if self._programs_left <= 0:
            return False
        self._programs_left -= 1
        spec = self.spec
        index = self.rng.randrange(spec.files_per_client)
        fd = self.fds[index]
        kind = self.rng.weighted_choice(_KINDS, _WEIGHTS)
        if fd is None and kind in ("write", "read", "fsync", "cycle", "rename"):
            kind = "stat"  # file mid-reopen; run a cheap op instead
        if kind == "write":
            offset = self.rng.randrange(spec.max_file_bytes)
            size = self.rng.randint(*spec.write_bytes)
            data = pattern_bytes(
                self._file_key(index) ^ self._next_req_id, offset, size
            )
            self._planned.append(
                self._request("write", fd=fd, offset=offset, data=data)
            )
        elif kind == "read":
            offset = self.rng.randrange(spec.max_file_bytes)
            length = self.rng.randint(*spec.write_bytes)
            self._planned.append(
                self._request("read", fd=fd, offset=offset, length=length)
            )
        elif kind == "fsync":
            self._planned.append(self._request("fsync", fd=fd))
        elif kind == "readdir":
            self._planned.append(self._request("readdir", path="."))
        elif kind == "stat":
            self._planned.append(self._request("stat", path=self.files[index]))
        elif kind == "cycle":
            self._planned.append(self._request("close", fd=fd))
            self._planned.append(self._request("unlink", path=self.files[index]))
            self.fds[index] = None
            self._plan_open(index)
        elif kind == "mkdir":
            self._mkdirs += 1
            self._planned.append(self._request("mkdir", path=f"d{self._mkdirs}"))
        elif kind == "rename":
            self._renames += 1
            new_name = f"r{self._renames}_{index}"
            self._planned.append(self._request("close", fd=fd))
            self._planned.append(
                self._request("rename", path=self.files[index], new_path=new_name)
            )
            self.fds[index] = None
            self.files[index] = new_name
            self._plan_open(index)
        return True

    # -- the client loop ------------------------------------------------

    def next_request(self) -> Optional[Request]:
        """The next request to submit, or None if idle right now."""
        if len(self._outstanding) >= self.spec.pipeline:
            return None
        while not self._planned:
            if not self._plan_program():
                return None
        head = self._planned[0]
        if self._outstanding and (
            head.op in NAMESPACE_OPS
            or any(r.op in NAMESPACE_OPS for r in self._outstanding.values())
        ):
            # Namespace ops run exclusively (see NAMESPACE_OPS): wait
            # for the pipeline to drain before one, and for the op to
            # resolve before anything behind it.
            return None
        request = self._planned.pop(0)
        self._outstanding[request.req_id] = request
        return request

    def on_response(self, response: Response) -> None:
        """Account one response; plan retries for retryable failures."""
        request = self._outstanding.pop(response.req_id, None)
        if request is None:
            return
        if response.ok:
            self.stats.acked += 1
            self.stats.latencies_ns.append(response.latency_ns)
            index = self._pending_opens.pop(response.req_id, None)
            if index is not None:
                self.fds[index] = response.value
            return
        if response.retryable:
            if response.error == "EAGAIN":
                self.stats.rejected += 1
            else:
                self.stats.retried += 1
            if response.error == "EQUOTA":
                # Quota relief needs another request (a close) to execute
                # first; retrying at the head would spin ahead of — and
                # starve — the very close that frees the descriptor.
                # Requeue at the back instead: the op is retried, never
                # dropped, after the rest of the plan has had its turn.
                self._planned.append(request)
            else:
                self._planned.insert(0, request)
            return
        # Non-retryable: record, and self-heal the common cases.
        self.stats.failed += 1
        index = self._pending_opens.pop(response.req_id, None)
        if index is not None and response.error != "ENOSPC":
            # The re-open after a cycle/rename failed (e.g. the unlink
            # landed un-acked before a crash): create it afresh.  A full
            # inode table is not healed by asking again — every retry
            # would fail the same way, forever — so on ENOSPC the slot
            # stays closed and programs drawing it degrade to ``stat``.
            self._plan_open(index)

    @property
    def done(self) -> bool:
        """True when every program ran and every request resolved."""
        return (
            self._programs_left <= 0
            and not self._planned
            and not self._outstanding
        )


@dataclass
class LoadReport:
    """The outcome of one :func:`run_load` drive."""

    clients: int = 0
    acked: int = 0
    failed: int = 0
    retried: int = 0
    rejected: int = 0
    rounds: int = 0
    #: Clients not done when ``max_rounds`` ran out (0: the load finished).
    unfinished: int = 0
    #: Elapsed virtual time; behind a cluster, the slowest shard's
    #: (shards run concurrently, so the run is done when it is).
    wall_virtual_ns: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    #: The target's end-of-run digests (see its ``load_mark``):
    #: ``ack_digest``/``state_digest`` for a :class:`FileService`,
    #: ``cluster_digest``/``intent_digest`` for a cluster.
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def throughput_ops_per_vsec(self) -> float:
        """Acknowledged operations per virtual second."""
        if self.wall_virtual_ns <= 0:
            return 0.0
        return self.acked / (self.wall_virtual_ns / 1e9)

    def latency_percentile(self, fraction: float) -> int:
        """Nearest-rank latency percentile over all acks (virtual ns)."""
        return percentile(self.latencies_ns, fraction)


def run_load(
    target,
    clients: List[LoadClient],
    *,
    max_rounds: int = 1_000_000,
) -> LoadReport:
    """Drive ``clients`` against ``target`` until all are done.

    ``target`` is a :class:`~repro.server.FileService` or a
    :class:`~repro.server.ClusterService` — anything with
    ``open_session``/``submit``/``pump``, a ``scheduler`` and a
    ``load_mark``.  One round = every client tops up its pipeline (in
    client-id order), then the target executes one scheduled batch and
    the responses are delivered.  Entirely deterministic for fixed
    seeds.
    """
    report = LoadReport(clients=len(clients))
    by_id = {client.client_id: client for client in clients}
    for client in clients:
        target.open_session(client.client_id)
    start_clocks, _ = target.load_mark()
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        idle = True
        for client in clients:
            while True:
                request = client.next_request()
                if request is None:
                    break
                idle = False
                rejection = target.submit(request)
                if rejection is not None:
                    client.on_response(rejection)
                    break
        for response in target.pump():
            idle = False
            owner = by_id.get(response.client_id)
            if owner is not None:
                owner.on_response(response)
        if idle and target.scheduler.backlog() == 0:
            if all(client.done for client in clients):
                break
    else:
        report.unfinished = sum(1 for client in clients if not client.done)
    report.rounds = rounds
    clocks, report.digests = target.load_mark()
    report.wall_virtual_ns = max(
        now - then for now, then in zip(clocks, start_clocks)
    )
    for client in clients:
        stats = client.stats
        report.acked += stats.acked
        report.failed += stats.failed
        report.retried += stats.retried
        report.rejected += stats.rejected
        report.latencies_ns.extend(stats.latencies_ns)
    return report
