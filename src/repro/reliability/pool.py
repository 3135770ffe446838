"""The one worker pool every fan-out in this package runs on.

A campaign trial, a crash-point boundary trial and a chaos matrix row
are all the same thing to the host: a *named pure function*
(``"module.path:function"``) applied to a keyed, JSON-safe payload.
:class:`WorkerPool` runs such tasks on worker processes and is the only
code here that starts a process, talks to one or tears a pool down.  Its two clients are the batching Table 1
scheduler (:class:`repro.reliability.engine.CampaignEngine`) and
:class:`ParallelMap`, the plain keyed map the crash-point explorer and
the chaos matrix fan through.

Worker death
------------

Each worker has its own duplex pipe: the pool sends it one task at a
time and it sends the result back, so the pool always knows which task
a worker holds and no lock is shared between workers.  A worker that
dies mid-task (OOM-kill, SIGKILL, a bug that takes down the interpreter)
shows as end-of-file on its pipe, or a message cut short; the task it
held is retried once on a fresh worker.  If it kills a second worker it is
**quarantined**: the pool reports it as such, lists the key in
``stats.quarantined`` and moves on, so one worker-killer cannot stall a
sweep forever.  A task that *raises* is a deterministic bug, not a
death — retrying would fail identically — so it aborts the whole run
with :class:`CampaignWorkerError`.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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
    worker_crashes: int = 0  #: worker deaths that cost a task its run
    quarantined: list = field(default_factory=list)  #: keys given up on


def _test_kill_hook(key) -> None:
    """Deterministic worker-death injection for the pool's own tests.

    ``RIO_ENGINE_TEST_KILL=system|fault value|attempt|times|counter_dir``
    kills the worker (hard, no cleanup) the first ``times`` times the
    task keyed ``(system, fault value, attempt)`` reaches a worker; the
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


def _worker_loop(fn_path: str, conn) -> None:
    """Worker process body: take a task from the pipe, run it, send the
    result back.  The loop never returns: the pool terminates its
    workers when it closes.

    A worker holds only what its task holds: the heap it inherited is
    frozen out of the collector's reach, and a collection after each
    task frees that task's cyclic garbage — a trial's object graph is
    mostly cycles, which would otherwise wait for a full collection.
    """
    fn = _resolve(fn_path)
    gc.freeze()
    while True:
        key, payload = conn.recv()
        _test_kill_hook(key)
        try:
            conn.send(("done", fn(payload)))
        except Exception as exc:  # ship the bug home, don't hang
            conn.send(("fail", f"{type(exc).__name__}: {exc}"))
        gc.collect()


class WorkerPool:
    """A process pool over one named pure function, one pipe per worker.

    ``submit(key, payload)`` queues a task; :meth:`next_events` blocks
    for the next thing that happened and returns it as ``(kind, key,
    result)`` tuples, ``kind`` being ``"done"`` or ``"quarantined"``
    (``result`` is then ``None``).  Worker death and
    retry-once-then-quarantine are decided in here, once; a task that
    raises surfaces as :class:`CampaignWorkerError`.

    ``jobs == 1`` starts no process: each :meth:`next_events` call runs
    the oldest pending task in-process, through the same imported
    function and the same payloads, so the serial path exercises the
    identical wire format (and an exception propagates as itself).
    """

    #: Worker deaths tolerated per task before quarantine.
    retry_limit = 1
    #: Seconds :meth:`next_events` waits for a result before it returns
    #: an empty list.
    poll_s = 0.2

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
        self._queued: deque = deque()  # keys waiting for an idle worker
        #: The pool's end of each live worker's pipe -> that worker's
        #: process; ``_held`` maps a busy worker's pipe to its task's key.
        self._workers: dict = {}
        self._held: dict = {}
        #: The task function itself when running in-process, else ``None``.
        self._fn = _resolve(fn_path) if jobs <= 1 else None
        if self._fn is None:
            self._ctx = multiprocessing.get_context()
            for _ in range(jobs):
                self._spawn()

    @property
    def pending(self) -> int:
        """Tasks submitted and not yet done or quarantined."""
        return len(self._pending)

    def submit(self, key, payload) -> None:
        """Queue one task; ``key`` must be hashable and unique while pending."""
        self._pending[key] = payload
        if self._fn is None:
            self._queued.append(key)
            self._dispatch()

    def next_events(self) -> list:
        """Wait for the next results — at most ``poll_s`` — and return
        what happened; an empty list on a quiet poll.  Call it only
        while tasks are :attr:`pending`."""
        if self._fn is not None:
            key = next(iter(self._pending))
            result = self._fn(self._pending.pop(key))
            self.stats.executed += 1
            return [("done", key, result)]
        events: list = []
        for conn in wait(list(self._workers), timeout=self.poll_s):
            key = self._held.pop(conn, None)
            try:
                kind, result = conn.recv()
            except (EOFError, OSError):  # died, maybe mid-message
                self._bury(conn)
                if key is not None:
                    events += self._strike(key)
                continue
            if kind == "fail":
                raise CampaignWorkerError(f"worker exception on task {key}: {result}")
            self.stats.executed += 1
            del self._pending[key]
            events.append(("done", key, result))
        self._dispatch()
        return events

    def close(self) -> None:
        """Tear the pool down; never waits on a worker mid-task."""
        if self._fn is not None:
            return
        for proc in self._workers.values():
            if proc.is_alive():
                proc.terminate()
        for conn, proc in self._workers.items():
            proc.join(timeout=2)
            conn.close()

    # -- pool internals ----------------------------------------------------

    def _spawn(self) -> None:
        conn, worker_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self.fn_path, worker_end),
            daemon=True,
            name="rio-pool-worker",
        )
        proc.start()
        worker_end.close()  # the worker's copy alone: its death reads as EOF
        self._workers[conn] = proc

    def _bury(self, conn) -> None:
        """Replace the dead worker behind ``conn``."""
        self._workers.pop(conn).join(timeout=2)
        conn.close()
        self._spawn()

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, one each."""
        idle = [conn for conn in self._workers if conn not in self._held]
        while idle and self._queued:
            conn, key = idle.pop(), self._queued.popleft()
            self._held[conn] = key
            try:
                conn.send((key, self._pending[key]))
            except OSError:
                pass  # a dead worker: its pipe reads EOF at the next wait

    def _strike(self, key) -> list:
        """One worker death charged to ``key``: requeue it up to
        ``retry_limit`` times, then quarantine — give up on it instead
        of relaunching a worker-killer forever."""
        self.stats.worker_crashes += 1
        count = self._strikes[key] = self._strikes.get(key, 0) + 1
        label = "/".join(map(str, key)) if isinstance(key, tuple) else str(key)
        if count <= self.retry_limit:
            self._say(f"worker died on {label} (worker_crashed); retrying once")
            self._queued.append(key)
            return []
        self._say(f"worker died again on {label}; quarantining the task")
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
