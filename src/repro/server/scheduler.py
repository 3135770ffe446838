"""Deterministic fair queuing over per-client request streams.

The simulated machine is single-threaded, so concurrency is a
scheduling problem: many client streams must interleave onto one
syscall layer without any client starving the rest.  The scheduler
keeps one bounded FIFO per client and assembles *batches* by deficit
round-robin: clients are visited in a rotating order (resuming after
the last client served, so a heavy client cannot monopolize the front
of every batch) and each visited client contributes up to ``quantum``
requests until the batch is full or every queue is empty.  Everything
is a pure function of the submission order, so one seed produces one
schedule — the property the traffic-under-faults determinism suite
pins down.

The rotation order is maintained *incrementally*: a sorted list of
active (non-empty) client ids is updated on enqueue and on drain, so
assembling a batch costs O(batch) visits plus a bisect — not a full
``sorted()`` rescan of every client queue per batch, which at cluster
scale (thousands of clients) used to dominate the pump loop.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from typing import Deque, Dict, List

from repro.server.protocol import Backpressure, Request


class RequestScheduler:
    """Bounded per-client queues plus deficit round-robin batching."""

    def __init__(self, queue_depth: int = 32) -> None:
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.queue_depth = queue_depth
        #: Chaos registry (``fail_queue`` capability); set by the file
        #: service when one is installed.
        self.chaos = None
        self._queues: Dict[int, Deque[Request]] = {}
        #: Sorted ids of clients with a non-empty queue.  Invariant:
        #: ``cid in _active`` iff ``_queues[cid]`` is non-empty, so every
        #: visit during batch assembly takes at least one request.
        self._active: List[int] = []
        #: Client id after which the next batch's rotation starts.
        self._resume_after: int = -1

    # -- admission -----------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Admit one request or raise :class:`Backpressure` if full."""
        queue = self._queues.setdefault(request.client_id, deque())
        if len(queue) >= self.queue_depth:
            raise Backpressure(
                f"client {request.client_id}: queue depth {self.queue_depth} reached"
            )
        if self.chaos is not None and self.chaos.should_fail(
            "fail_queue", client=request.client_id, routine=request.op
        ):
            # Forced Backpressure: the queue pretends to be full.  Raised
            # before any queue/_active mutation, so a denied admission
            # leaves the scheduler exactly as it was.
            raise Backpressure(
                f"client {request.client_id}: chaos fail_queue"
            )
        if not queue:
            insort(self._active, request.client_id)
        queue.append(request)

    def requeue_front(self, requests: List[Request]) -> None:
        """Put never-started requests back at the head of their queues.

        Used when a crash interrupts a batch: requests scheduled but not
        yet executed keep their place in line (and their admission
        timestamps, so their latency honestly includes the recovery).

        Requeue is exempt from admission control and from chaos: these
        requests were already admitted once, and bouncing them here would
        silently drop in-flight work (losing acked-op accounting), so the
        queue may transiently exceed ``queue_depth``.  Each id enters
        ``_active`` only after its request is actually back in the queue —
        nothing in this path can leave a phantom active entry.
        """
        for request in reversed(requests):
            queue = self._queues.setdefault(request.client_id, deque())
            was_empty = not queue
            queue.appendleft(request)
            if was_empty:
                insort(self._active, request.client_id)

    # -- introspection -------------------------------------------------

    def backlog(self, client_id: int | None = None) -> int:
        """Queued requests for one client (or all clients)."""
        if client_id is not None:
            return len(self._queues.get(client_id, ()))
        return sum(len(q) for q in self._queues.values())

    # -- batching ------------------------------------------------------

    def next_batch(self, batch_size: int, quantum: int = 4) -> List[Request]:
        """Assemble the next batch by rotating deficit round-robin.

        Visits active clients in ascending id order starting after the
        client that ended the previous batch, wrapping circularly; each
        visit takes up to ``quantum`` requests and a drained client
        leaves the active list.  Returns at most ``batch_size`` requests
        (empty when nothing is queued).
        """
        if batch_size <= 0 or quantum <= 0:
            raise ValueError("batch_size and quantum must be positive")
        active = self._active
        index = bisect_right(active, self._resume_after)
        batch: List[Request] = []
        while active and len(batch) < batch_size:
            if index >= len(active):
                index = 0
            cid = active[index]
            queue = self._queues[cid]
            took = 0
            while queue and took < quantum and len(batch) < batch_size:
                batch.append(queue.popleft())
                took += 1
            self._resume_after = cid
            if queue:
                index += 1
            else:
                # The next-larger id slides into `index`; no advance.
                active.pop(index)
        return batch
