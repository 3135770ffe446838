"""The object store every backing tier is built on.

An s3ql-style store: named immutable blobs behind four verbs —
``get``/``put``/``delete``/``list`` — plus a typed error taxonomy that
separates *weather* from *wreckage*:

* :class:`TransientBackendError` — this request failed but a retry may
  succeed (a dropped connection, a 5xx, a throttle).  Callers with a
  retry budget spend it here.
* :class:`BackendOutage` — the store is unreachable as a whole; retrying
  now is pointless.  Callers defer the work (the tiered store keeps the
  block dirty locally and re-offers it at the next drain).
* :class:`BackendError` — fatal: a malformed key, a protocol violation.
  Nothing retries these; they are bugs, not weather.

Keys are flat strings namespaced by convention (``obj/<sha256>``,
``map/<block>``, ``ref/<sha256>``, ``seal`` — see
:mod:`repro.backend.tiered`).  ``list`` returns keys sorted, always:
listing order is digest material and must not depend on insertion
history.

**The link.**  A store reached over a link (:class:`LocalBackend` and
everything built on it) has the disk's request model: the link serves
one request at a time on its own busy-until timeline, so a request
issued at ``now`` starts at ``max(now, link_free_ns)`` and completes one
service time later.  A *waited* request (every read, and a write with
``sync=True``) advances the machine clock to its completion.  A
*posted* write (``sync=False``) returns at once: it is visible to every
later request — they queue behind it, FIFO is the only ordering rule —
but it has *landed* only once virtual time passes its completion, and a
machine crash before that instant means it never happened
(:meth:`LocalBackend.sever`).  Admission (outage, chaos, seeded failure)
is decided when a request is issued, before any link time is taken.

Determinism contract: a backend's observable behavior (service times,
transient failures, outage windows) is a pure function of its
construction seed and its call stream.  No wall clock, no ambient
randomness — the simulated machine clock is the only time source.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple


class BackendError(Exception):
    """Fatal backend failure: a bug or protocol violation, never retried."""


class TransientBackendError(BackendError):
    """This request failed; an identical retry may succeed."""


class BackendOutage(TransientBackendError):
    """The store is unreachable as a whole; defer instead of retrying."""


@dataclass
class BackendStats:
    """Operation counters one backend accumulates (observability only)."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    lists: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Requests denied retryably (transient errors and chaos denials).
    transient_errors: int = 0
    #: Requests rejected because the store was down.
    outage_rejections: int = 0
    #: Total virtual time the link was busy serving requests (ns).
    service_ns: int = 0
    #: Machine-clock time spent stopped on the link (ns): waited
    #: requests, queueing behind posted writes included, plus
    #: :meth:`LocalBackend.drain` back-pressure.
    waited_ns: int = 0
    #: Writes issued without waiting for them to land.
    posted_writes: int = 0
    #: Posted writes a machine crash caught before they landed.
    severed_writes: int = 0

    def to_json_dict(self) -> Dict[str, int]:
        """JSON-safe counter summary for reports and digests."""
        return dict(self.__dict__)


class LocalBackend:
    """The object store every tier is built on: an in-memory blob map
    behind a link (see the module docstring).

    As it stands it is the ``local`` flavour — the null object of the
    family: requests never fail and cost nothing, so a tiered store
    mounted over it behaves exactly like the local-disk-only stack while
    every remote-tier code path (upload boundaries, fsck-remote, the
    materialized-image audit) still runs.  A remote model overrides
    :meth:`_service_ns` — admission and the price of one request; the
    verbs, key validation, counters, the link timeline and the crash
    semantics of posted writes live here once.
    """

    def __init__(self, *, clock=None) -> None:
        self.stats = BackendStats()
        #: Optional :class:`~repro.faults.capabilities.ChaosRegistry`,
        #: consulted per request by the remote model (see objectstore).
        self.chaos = None
        self._blobs: Dict[str, bytes] = {}
        self._clock = clock
        #: When the link finishes the last request issued on it (ns).
        self.link_free_ns = 0
        # Posted writes not yet seen to have landed, oldest first:
        # (completion_ns, key, the blob the write replaced or None).
        self._posted: Deque[Tuple[int, str, Optional[bytes]]] = deque()

    def attach(self, clock) -> None:
        """Point the backend at the machine clock (idempotent)."""
        self._clock = clock

    # -- the four verbs --------------------------------------------------

    def get(self, key: str) -> bytes:
        """Return the blob at ``key``; raises :class:`KeyError` if absent."""
        self._check_key(key)
        self.stats.gets += 1
        blob = self._blobs.get(key)
        # Issued before absence is reported: during an outage you cannot
        # know a key is missing, so the outage wins.
        self._request(len(blob) if blob is not None else 0)
        if blob is None:
            raise KeyError(f"no such backend object: {key}")
        self.stats.bytes_out += len(blob)
        return blob

    def put(self, key: str, data: bytes, *, sync: bool = True) -> None:
        """Store ``data`` at ``key``, overwriting any previous blob;
        ``sync=False`` posts the write instead of waiting for it."""
        self._check_key(key)
        self.stats.puts += 1
        self.stats.bytes_in += len(data)
        self._request(len(data), None if sync else key)
        self._blobs[key] = bytes(data)

    def delete(self, key: str, *, sync: bool = True) -> None:
        """Remove ``key`` (idempotent: absent keys delete silently);
        ``sync=False`` posts the delete instead of waiting for it."""
        self._check_key(key)
        self.stats.deletes += 1
        self._request(0, None if sync else key)
        self._blobs.pop(key, None)

    def list(self, prefix: str = "") -> List[str]:
        """Every key starting with ``prefix``, sorted."""
        self.stats.lists += 1
        self._request(0)
        return sorted(k for k in self._blobs if k.startswith(prefix))

    # -- the link --------------------------------------------------------

    def _service_ns(self, nbytes: int) -> int:
        """Admit one request and price it (ns); raise to reject it."""
        return 0

    def _request(self, nbytes: int, post: Optional[str] = None) -> None:
        """Issue one request on the link; ``post`` names the key of a
        posted write (whose undo image is taken here, before the caller
        applies it), None a request the machine waits for."""
        service = self._service_ns(nbytes)  # may reject: no link time taken
        stats = self.stats
        stats.service_ns += service
        clock = self._clock
        if clock is None:
            return  # no timeline: every request lands as it is issued
        now = clock.now_ns
        done = max(now, self.link_free_ns) + service
        self.link_free_ns = done
        if post is None:
            self._wait(done)
        else:
            posted = self._posted
            while posted and posted[0][0] <= now:
                posted.popleft()
            posted.append((done, post, self._blobs.get(post)))
            stats.posted_writes += 1

    def _wait(self, until_ns: int) -> None:
        """Stop the machine until ``until_ns``, a completion on the link:
        FIFO, so every write posted before it has landed by then."""
        clock = self._clock
        if until_ns > clock.now_ns:
            self.stats.waited_ns += until_ns - clock.now_ns
            clock.advance_to(until_ns)
        self._posted.clear()

    def drain(self) -> None:
        """Stop the machine until the link is idle: every posted write
        has landed (the store's back-pressure)."""
        if self._clock is not None:
            self._wait(self.link_free_ns)

    def sever(self, crash_ns: int) -> int:
        """The machine died at ``crash_ns``: undo, newest first, every
        posted write completing after it (what landed is a prefix of the
        issued stream) and return how many there were."""
        posted, severed = self._posted, 0
        while posted and posted[-1][0] > crash_ns:
            _, key, previous = posted.pop()
            if previous is None:
                self._blobs.pop(key, None)
            else:
                self._blobs[key] = previous
            severed += 1
        posted.clear()
        self.link_free_ns = min(self.link_free_ns, crash_ns)
        self.stats.severed_writes += severed
        return severed

    # -- shared plumbing ------------------------------------------------

    @staticmethod
    def _check_key(key: str) -> None:
        """Reject keys the protocol cannot represent."""
        if not key or "\n" in key or len(key) > 256:
            raise BackendError(f"malformed backend key {key!r}")

    def digest(self) -> str:
        """sha256 over the sorted ``key -> sha256(content)`` map.

        The determinism fixture: two stores with identical contents have
        identical digests regardless of operation history.
        """
        h = hashlib.sha256()
        for key in self.list():
            h.update(key.encode())
            h.update(b"\x00")
            h.update(hashlib.sha256(self._blobs[key]).digest())
            h.update(b"\n")
        return h.hexdigest()
