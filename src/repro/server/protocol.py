"""Requests, responses, and the service's typed error taxonomy.

The admission layer distinguishes *retryable* conditions — a full queue,
an exhausted quota, a machine that is down mid-recovery — from genuine
failures (bad descriptor, missing file).  Clients are expected to
resubmit on retryable errors and to treat everything else as the final
outcome of the request.  Error names follow errno tradition where one
fits and invent one (``EAGAIN``-style) where it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ReproError

#: Operations a request may carry.  Mutating ops (journaled on ack) are
#: marked in :data:`MUTATING_OPS`.
OPS = (
    "open",      # path, create -> client fd
    "close",     # fd
    "read",      # fd, offset, length -> bytes
    "write",     # fd, offset, data -> bytes written
    "fsync",     # fd
    "truncate",  # fd
    "mkdir",     # path
    "rmdir",     # path
    "unlink",    # path
    "rename",    # path, new_path
    "readdir",   # path -> [names]
    "stat",      # path -> exists/size facts
    "chdir",     # path (session working directory)
)

#: Ops that change durable state and therefore enter the ack journal.
MUTATING_OPS = frozenset(
    {"open", "write", "truncate", "mkdir", "rmdir", "unlink", "rename"}
)


class ServerError(ReproError):
    """Base class of service-level failures surfaced to clients.

    ``retryable`` marks transient conditions the client should simply
    resubmit after; ``code`` is the symbolic error tag carried on the
    wire in :attr:`Response.error`.
    """

    retryable = False
    code = "EIO"


class Backpressure(ServerError):
    """The client's admission queue is full; resubmit later."""

    retryable = True
    code = "EAGAIN"


class QuotaExceeded(ServerError):
    """A per-client quota (open fds, queued bytes) is exhausted."""

    retryable = True
    code = "EQUOTA"


class ServiceDown(ServerError):
    """The kernel crashed while the request was in flight.

    The request was *not* acknowledged; nothing about it is durable.
    Resubmit once the service has recovered (the service recovers
    automatically before the next batch is scheduled).
    """

    retryable = True
    code = "EDOWN"


class ChaosInjected(ServerError):
    """A chaos ``fail_nth_syscall`` capability denied the request.

    The request did not execute and nothing about it is durable; the
    client resubmits exactly as for :class:`Backpressure`.  (The
    capability's fail-Nth counter has already advanced, so the retry is
    not re-denied unless the knobs say so.)
    """

    retryable = True
    code = "ECHAOS"


class SessionError(ServerError):
    """The session or client fd is unknown or no longer valid."""

    retryable = False
    code = "EBADSESSION"


@dataclass
class Request:
    """One client request.

    ``client_id``/``req_id`` identify the request (``req_id`` is a
    per-client monotone counter — acks are journaled under it); ``op``
    is one of :data:`OPS` and the remaining fields are that op's
    arguments.  Paths are resolved against the session's working
    directory when relative.
    """

    client_id: int
    req_id: int
    op: str
    path: Optional[str] = None
    new_path: Optional[str] = None
    fd: Optional[int] = None
    offset: Optional[int] = None
    length: Optional[int] = None
    data: Optional[bytes] = None
    create: bool = False
    #: Set by the service at admission (virtual ns); used for latency.
    submitted_ns: int = field(default=0, compare=False)


@dataclass
class Response:
    """The outcome of one request.

    ``ok`` acknowledges the operation: for mutating ops an ``ok=True``
    response is a durability promise audited across crashes.  On
    failure ``error`` holds the symbolic code and ``retryable`` says
    whether resubmitting can succeed.
    """

    client_id: int
    req_id: int
    op: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    retryable: bool = False
    submitted_ns: int = 0
    completed_ns: int = 0

    @property
    def latency_ns(self) -> int:
        """Virtual time from admission to completion."""
        return self.completed_ns - self.submitted_ns

    @classmethod
    def answer(
        cls,
        request: Request,
        *,
        value: Any = None,
        error: Optional[str] = None,
        retryable: bool = False,
        now_ns: int = 0,
        timed_by: Optional["Response"] = None,
    ) -> "Response":
        """Answer ``request``: its identity, ``ok`` unless ``error`` is set.

        The answer spans the request's admission to ``now_ns`` — or,
        where a cluster front-end merges a shard's sub-response into the
        client's answer, that sub-response's span (``timed_by``): the
        only clocks a cluster has are its shards'.
        """
        return cls(
            client_id=request.client_id,
            req_id=request.req_id,
            op=request.op,
            ok=error is None,
            value=value,
            error=error,
            retryable=retryable,
            submitted_ns=(timed_by or request).submitted_ns,
            completed_ns=now_ns if timed_by is None else timed_by.completed_ns,
        )

    @classmethod
    def failure(cls, request: Request, exc: ReproError, now_ns: int = 0) -> "Response":
        """Build an error response for ``request`` from a typed error: a
        :class:`ServerError`'s code and retryability, or a POSIX
        :class:`~repro.errors.FileSystemError`'s errno name (final)."""
        if isinstance(exc, ServerError):
            return cls.answer(
                request, error=exc.code, retryable=exc.retryable, now_ns=now_ns
            )
        return cls.answer(request, error=exc.errno_name, now_ns=now_ns)
