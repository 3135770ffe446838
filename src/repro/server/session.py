"""Per-client sessions: a fixed home directory and an fd table.

A session's client-visible file descriptors are *server* state layered
over the kernel's: each client fd maps to a path and a backing kernel
fd (reads and writes are positional, so there is no cursor to keep).
The kernel fd table does not survive a crash (the VFS is rebuilt by the
reboot), so after a warm reboot the session layer *reconstructs*
itself: every client fd is re-opened by path on the new VFS.  On a Rio
system every acknowledged ``open``'s file is guaranteed to still exist,
so rebinding is total; on a disk-based system a rebind may find the
file gone, and the fd is marked stale (:data:`FdState.STALE`) —
operations on it fail with ``EBADSESSION``; only ``close`` succeeds,
releasing its quota slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import FileNotFound
from repro.server.protocol import SessionError


#: Directory under which per-client homes are created.
HOME_PREFIX = "/srv"


def home_dir(client_id: int) -> str:
    """The home of ``client_id``: every relative path it sends resolves here."""
    return f"{HOME_PREFIX}/c{client_id:03d}"


def resolve_path(home: str, path: str) -> str:
    """Resolve ``path`` against ``home`` into a normalized absolute path.

    Supports ``.`` and ``..`` components; never escapes the root.
    """
    if not path:
        raise SessionError("empty path")
    combined = path if path.startswith("/") else f"{home}/{path}"
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
    backing_fd: int = 0

    @property
    def stale(self) -> bool:
        """True when the post-crash rebind could not re-open the file."""
        return self.backing_fd == self.STALE


@dataclass
class Session:
    """One client's connection state: its home plus its fd table."""

    client_id: int
    #: Fixed when the session opens (:func:`home_dir`).
    home: str
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
        """Resolve a request path against this session's home."""
        return resolve_path(self.home, path)

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

    def add_fd(self, path: str, backing_fd: int) -> FdState:
        """Allocate a client fd for ``path`` (the caller enforces the
        open-fd quota before it opens the backing file)."""
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

    def open_session(self, client_id: int) -> Session:
        """Create (or return) the session for ``client_id``."""
        if client_id in self.sessions:
            return self.sessions[client_id]
        session = Session(
            client_id=client_id, home=home_dir(client_id), session_seq=self._next_seq
        )
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

        Re-opens each client fd's path (reads and writes carry their
        own offsets, so there is no cursor to restore).  Returns
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
