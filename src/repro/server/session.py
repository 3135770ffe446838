"""Per-client sessions: fd tables and working directories.

A session's client-visible file descriptors are *server* state layered
over the kernel's: each client fd maps to a path, a session-tracked
offset, and a backing kernel fd.  The kernel fd table does not survive
a crash (the VFS is rebuilt by the reboot), so after a warm reboot the
session layer *reconstructs* itself: every client fd is re-opened by
path on the new VFS and its offset restored.  On a Rio system every
acknowledged ``open``'s file is guaranteed to still exist, so rebinding
is total; on a disk-based system a rebind may find the file gone, and
the fd is marked stale (:data:`FdState.STALE`) — operations on it fail
with ``EBADSESSION`` until the client re-opens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import FileNotFound
from repro.server.protocol import QuotaExceeded, SessionError


def resolve_path(cwd: str, path: str) -> str:
    """Resolve ``path`` against ``cwd`` into a normalized absolute path.

    Supports ``.`` and ``..`` components; never escapes the root.
    """
    if not path:
        raise SessionError("empty path")
    combined = path if path.startswith("/") else f"{cwd}/{path}"
    parts: list[str] = []
    for part in combined.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


@dataclass
class FdState:
    """One client file descriptor's server-side record."""

    #: Marker value for :attr:`backing_fd` after a failed rebind.
    STALE = -1

    cfd: int
    path: str
    offset: int = 0
    backing_fd: int = 0

    @property
    def stale(self) -> bool:
        """True when the post-crash rebind could not re-open the file."""
        return self.backing_fd == self.STALE


@dataclass
class Session:
    """One client's connection state: working directory plus fd table."""

    client_id: int
    cwd: str = "/"
    fds: Dict[int, FdState] = field(default_factory=dict)
    next_cfd: int = 3
    #: Monotone session sequence number assigned at open (1, 2, ...),
    #: surviving warm reboots (the session object persists); chaos
    #: capabilities scope on it to target one session deterministically.
    session_seq: int = 0
    #: Total successful rebinds and rebind failures across this
    #: session's lifetime (observability; tested by the traffic suite).
    rebinds: int = 0
    rebind_failures: int = 0

    def resolve(self, path: str) -> str:
        """Resolve a request path against this session's cwd."""
        return resolve_path(self.cwd, path)

    def lookup(self, cfd: Optional[int]) -> FdState:
        """Return the fd record or raise a non-retryable session error."""
        if cfd is None or cfd not in self.fds:
            raise SessionError(f"client {self.client_id}: unknown fd {cfd}")
        state = self.fds[cfd]
        if state.stale:
            raise SessionError(
                f"client {self.client_id}: fd {cfd} went stale across a crash"
            )
        return state

    def add_fd(self, path: str, backing_fd: int, limit: int) -> FdState:
        """Allocate a client fd for ``path``; enforces the open-fd quota."""
        if len(self.fds) >= limit:
            raise QuotaExceeded(
                f"client {self.client_id}: open-fd quota ({limit}) exhausted"
            )
        state = FdState(cfd=self.next_cfd, path=path, backing_fd=backing_fd)
        self.fds[state.cfd] = state
        self.next_cfd += 1
        return state

    def drop_fd(self, cfd: int) -> FdState:
        """Remove and return a client fd record."""
        if cfd not in self.fds:
            raise SessionError(f"client {self.client_id}: unknown fd {cfd}")
        return self.fds.pop(cfd)


class SessionManager:
    """All live sessions, and the post-crash re-binding pass.

    The manager deliberately holds no reference to a VFS: the VFS is
    rebuilt on every reboot, so every call takes the *current* one.
    """

    def __init__(self) -> None:
        self.sessions: Dict[int, Session] = {}
        self._next_seq = 1

    def open_session(self, client_id: int, cwd: str = "/") -> Session:
        """Create (or return) the session for ``client_id``."""
        if client_id in self.sessions:
            return self.sessions[client_id]
        session = Session(client_id=client_id, cwd=cwd, session_seq=self._next_seq)
        self._next_seq += 1
        self.sessions[client_id] = session
        return session

    def get(self, client_id: int) -> Session:
        """Return an existing session or raise a session error."""
        if client_id not in self.sessions:
            raise SessionError(f"no session for client {client_id}")
        return self.sessions[client_id]

    def rebind_all(self, vfs, recorder) -> tuple[int, int]:
        """Reconstruct every session's fd table on a fresh VFS.

        Re-opens each client fd's path and keeps the session offset
        (session ops are positional, so no seek is replayed).  Returns
        ``(rebound, failed)`` counts; failures mark the fd stale rather
        than raising — the owning client decides whether to re-open.
        """
        rebound = failed = 0
        for client_id in sorted(self.sessions):
            session = self.sessions[client_id]
            for cfd in sorted(session.fds):
                state = session.fds[cfd]
                try:
                    state.backing_fd = vfs.open(state.path)
                    session.rebinds += 1
                    rebound += 1
                except FileNotFound:
                    state.backing_fd = FdState.STALE
                    session.rebind_failures += 1
                    failed += 1
            if recorder.enabled:
                recorder.emit(
                    "server",
                    "rebind",
                    client=client_id,
                    fds=len(session.fds),
                    failed=session.rebind_failures,
                )
        return rebound, failed
