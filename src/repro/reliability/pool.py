"""The one worker pool every fan-out in this package runs on.

A campaign trial, a crash-point boundary trial and a chaos matrix row
are all the same thing to the host: a *named pure function*
(``"module.path:function"``) applied to a keyed, JSON-safe payload.
:class:`WorkerPool` runs such tasks on worker processes and is the only
code here that starts a process, writes a claim slot, polls liveness or
tears a pool down.  Its two clients are the speculative Table 1
scheduler (:class:`repro.reliability.engine.CampaignEngine`) and
:class:`ParallelMap`, the plain keyed map the crash-point explorer and
the chaos matrix fan through.

Worker death
------------

A worker that dies mid-task (OOM-kill, SIGKILL, a bug that takes down
the interpreter) is detected by liveness polling; the task it held is
retried once on a fresh worker.  If it kills a second worker it is
**quarantined**: the pool reports it as such, lists the key in
``stats.quarantined`` and moves on, so one worker-killer cannot stall a
sweep forever.  A task that *raises* is a deterministic bug, not a
death — retrying would fail identically — so it aborts the whole run
with :class:`CampaignWorkerError`.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


class CampaignWorkerError(RuntimeError):
    """A worker hit an exception inside the simulation (a bug, not a
    simulated crash); determinism means retrying would fail identically,
    so the campaign aborts loudly."""


@dataclass
class PoolStats:
    """What one pool did (host-side bookkeeping only — nothing here
    feeds back into task outcomes)."""

    executed: int = 0  #: tasks actually run to a result
    worker_crashes: int = 0  #: worker deaths (and in-flight losses) observed
    quarantined: list = field(default_factory=list)  #: keys given up on


def _test_kill_hook(key) -> None:
    """Deterministic worker-death injection for the pool's own tests.

    ``RIO_ENGINE_TEST_KILL=system|fault value|attempt|times|counter_dir``
    kills the worker (hard, no cleanup) the first ``times`` times the
    task keyed ``(system, fault value, attempt)`` is claimed; the
    cross-process count lives in ``counter_dir`` because each death
    spawns a fresh worker.
    """
    spec = os.environ.get("RIO_ENGINE_TEST_KILL")
    if not spec:
        return
    system, fault, attempt, times, counter_dir = spec.split("|")
    if key != (system, fault, int(attempt)):
        return
    os.makedirs(counter_dir, exist_ok=True)
    marker = os.path.join(counter_dir, "kills")
    count = 0
    if os.path.exists(marker):
        count = int(open(marker).read() or "0")
    if count >= int(times):
        return
    with open(marker, "w") as fh:
        fh.write(str(count + 1))
    os._exit(17)


def _resolve(fn_path: str) -> Callable[[Any], Any]:
    module_name, _, func_name = fn_path.partition(":")
    return getattr(importlib.import_module(module_name), func_name)


def _worker_loop(fn_path: str, task_q, result_q, claim_slot) -> None:
    """Worker process body: claim a task, run it, ship the result home.

    The claim-slot write *precedes* execution so the pool knows which
    task a dead worker was holding.  The loop never returns: the pool
    terminates its workers when it closes.
    """
    fn = _resolve(fn_path)
    while True:
        task_id, key, payload = task_q.get()
        claim_slot.value = task_id
        _test_kill_hook(key)
        try:
            result_q.put(("done", key, fn(payload)))
        except Exception as exc:  # ship the bug home, don't hang
            result_q.put(("fail", key, f"{type(exc).__name__}: {exc}"))


class WorkerPool:
    """A claim-slot process pool over one named pure function.

    ``submit(key, payload)`` queues a task; :meth:`next_events` blocks
    for the next thing that happened and returns it as ``(kind, key,
    result)`` tuples, ``kind`` being ``"done"`` or ``"quarantined"``
    (``result`` is then ``None``).  Worker death, tasks lost in flight
    and retry-once-then-quarantine are decided in here, once; a task
    that raises surfaces as :class:`CampaignWorkerError`.

    ``jobs == 1`` starts no process: each :meth:`next_events` call runs
    the oldest pending task in-process, through the same imported
    function and the same payloads, so the serial path exercises the
    identical wire format (and an exception propagates as itself).
    """

    #: Worker deaths (or in-flight losses) tolerated per task before quarantine.
    retry_limit = 1
    #: Seconds :meth:`next_events` waits for a result before it checks
    #: that the workers are still alive.
    poll_s = 0.2
    #: Seconds without any result after which a pending task that is
    #: neither queued nor claimed is taken to be lost.
    lost_task_s = 5.0

    def __init__(
        self,
        fn_path: str,
        jobs: int = 1,
        say: Optional[Callable[[str], None]] = None,
        stats: Optional[PoolStats] = None,
    ) -> None:
        self.fn_path = fn_path
        self.stats = stats if stats is not None else PoolStats()
        self._say = say if say is not None else (lambda line: None)
        self._pending: dict = {}  # key -> payload (kept for the retry)
        self._strikes: dict = {}  # key -> worker deaths charged to it
        self._tid_key: dict = {}  # task id (what a claim slot holds) -> key
        #: ``(process, claim slot)`` per live worker.  The slot is a shared
        #: ``Value('i')`` holding the id of the task the worker last
        #: claimed.  Shared memory, not a queue message: a queue put is
        #: flushed by a background feeder thread, so a worker killed right
        #: after claiming could die with the claim unsent — the claim-slot
        #: write is synchronous and survives any death.
        self._workers: list = []
        self._last_activity = time.monotonic()
        #: The task function itself when running in-process, else ``None``.
        self._fn = _resolve(fn_path) if jobs <= 1 else None
        if self._fn is None:
            self._ctx = multiprocessing.get_context()
            self._task_q, self._result_q = self._ctx.Queue(), self._ctx.Queue()
            for _ in range(jobs):
                self._spawn()

    @property
    def pending(self) -> int:
        """Tasks submitted and not yet done, quarantined or cancelled."""
        return len(self._pending)

    def submit(self, key, payload) -> None:
        """Queue one task; ``key`` must be hashable and unique while pending."""
        self._pending[key] = payload
        if self._fn is None:
            self._put(key)

    def cancel(self, key) -> None:
        """The caller no longer wants ``key``'s result.  A worker may
        still run it (that counts in ``stats.executed``), but it yields
        no event and a death while holding it is not charged to it."""
        self._pending.pop(key, None)

    def next_events(self) -> list:
        """Wait for the next result — at most ``poll_s`` — and return
        what happened; an empty list on a quiet poll.  Call it only
        while tasks are :attr:`pending`."""
        if self._fn is not None:
            key = next(iter(self._pending))
            result = self._fn(self._pending.pop(key))
            self.stats.executed += 1
            return [("done", key, result)]
        try:
            kind, key, result = self._result_q.get(timeout=self.poll_s)
        except queue_mod.Empty:
            return self._reap()
        self._last_activity = time.monotonic()
        if kind == "fail":
            raise CampaignWorkerError(f"worker exception on task {key}: {result}")
        self.stats.executed += 1
        if key not in self._pending:
            return []  # cancelled, or a retry raced its original: result unneeded
        del self._pending[key]
        return [("done", key, result)]

    def close(self) -> None:
        """Tear the pool down; never waits on a worker mid-task."""
        if self._fn is not None:
            return
        for proc, _slot in self._workers:
            if proc.is_alive():
                proc.terminate()
        for proc, _slot in self._workers:
            proc.join(timeout=2)
        for q in (self._task_q, self._result_q):
            q.cancel_join_thread()
            q.close()

    # -- pool internals ----------------------------------------------------

    def _spawn(self) -> None:
        claim_slot = self._ctx.Value("i", -1)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self.fn_path, self._task_q, self._result_q, claim_slot),
            daemon=True,
            name="rio-pool-worker",
        )
        proc.start()
        self._workers.append((proc, claim_slot))

    def _put(self, key) -> None:
        task_id = len(self._tid_key)
        self._tid_key[task_id] = key
        self._task_q.put((task_id, key, self._pending[key]))
        self._last_activity = time.monotonic()

    def _reap(self) -> list:
        """A quiet poll: replace dead workers, strike the tasks they
        held, and sweep for tasks lost in flight."""
        events: list = []
        for worker in [w for w in self._workers if not w[0].is_alive()]:
            self._workers.remove(worker)
            key = self._tid_key.get(worker[1].value)  # -1 (idle) maps to None
            if key in self._pending:
                events += self._strike(key, "worker died")
            self._spawn()
        if (
            self._pending
            and time.monotonic() - self._last_activity > self.lost_task_s
            and self._task_q.empty()
        ):
            # Pending but neither queued nor claimed by a live worker: a
            # worker died between the queue get and the claim-slot write,
            # or with a finished result still in its queue feeder thread.
            claimed = {self._tid_key.get(slot.value) for _proc, slot in self._workers}
            for key in [k for k in self._pending if k not in claimed]:
                events += self._strike(key, "task lost in flight")
            self._last_activity = time.monotonic()
        return events

    def _strike(self, key, why: str) -> list:
        """One worker death charged to ``key``: requeue it up to
        ``retry_limit`` times, then quarantine — give up on it instead
        of relaunching a worker-killer forever."""
        self.stats.worker_crashes += 1
        count = self._strikes[key] = self._strikes.get(key, 0) + 1
        label = "/".join(map(str, key)) if isinstance(key, tuple) else str(key)
        if count <= self.retry_limit:
            self._say(f"{why} on {label} (worker_crashed); retrying once")
            self._put(key)
            return []
        self._say(f"{why} again on {label}; quarantining the task")
        self.stats.quarantined.append(key)
        del self._pending[key]
        return [("quarantined", key, None)]


class ParallelMap:
    """A keyed map over the pool: submit everything, take results as
    they land.

    These tasks have **no sequential stopping rule**, so the keyed
    result map is identical for any job count and any completion order
    by construction.  The crash-point explorer fans its per-boundary
    trials through this, the chaos campaign its matrix rows.
    """

    def __init__(
        self,
        fn_path: str,
        jobs: int = 1,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.fn_path = fn_path
        self.jobs = jobs
        self.progress = progress
        self.stats = PoolStats()

    def stream(self, tasks: list) -> Iterator[tuple]:
        """Execute ``tasks`` — ``(key, payload)`` pairs, keys unique and
        hashable — yielding ``(key, result)`` as each lands, in
        completion order.  A task whose worker died past the retry limit
        yields ``None`` and its key lands in ``stats.quarantined``.  A
        task that *raises* aborts the whole map (:class:`WorkerPool`).
        Closing the generator early tears the pool down.
        """
        if not tasks:
            return  # e.g. a fully checkpointed sweep: start no workers
        pool = WorkerPool(self.fn_path, self.jobs, self.progress, self.stats)
        try:
            for key, payload in tasks:
                pool.submit(key, payload)
            while pool.pending:
                for _kind, key, result in pool.next_events():
                    yield key, result
        finally:
            pool.close()

    def run(self, tasks: list) -> dict:
        """:meth:`stream`, collected: ``{key: result}`` (``None`` for a
        quarantined key)."""
        return dict(self.stream(tasks))
