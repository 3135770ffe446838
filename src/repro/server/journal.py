"""The acknowledged-write journal and the per-request durability audit.

Every mutating operation the service acknowledges is recorded here
*after* it succeeded against the file cache — the ack journal is the
service's promise ledger.  It keeps two views of the same history:

* the **ack log**: the ordered list of acknowledged mutations, hashed
  into :meth:`AckJournal.ack_digest` (the determinism fixture: one seed
  must produce one ack log, bit for bit, on either execution engine);
* the **expected state**: the journal replayed into an in-memory model
  of every path the service has touched — final bytes per file, the
  set of directories, the set of paths whose *absence* was promised
  (acknowledged unlink or rename-from not followed by a re-create).

After a crash and warm reboot, :meth:`AckJournal.audit` replays the
expected state against the recovered file system: every journaled file
must exist with exactly the expected bytes, every journaled directory
must exist, every promised-absent path must be absent.  Anything else
is a *lost acknowledgement* — the failure Rio exists to prevent.  With
``repair=True`` the audit additionally rewrites what a lossy system
dropped (journal replay), so a disk-backed service degrades instead of
lying; on Rio the repair count must be zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import FileExists, FileNotFound, FileSystemError


@dataclass
class AckEntry:
    """One acknowledged mutation (the ack-log record)."""

    seq: int
    client_id: int
    req_id: int
    op: str
    path: str
    offset: Optional[int] = None
    length: Optional[int] = None
    checksum: Optional[str] = None
    new_path: Optional[str] = None

    def to_json_dict(self) -> dict:
        """Canonical wire form (None fields omitted) for digests."""
        return {
            key: value
            for key, value in self.__dict__.items()
            if value is not None
        }


@dataclass
class AuditReport:
    """What one durability audit found."""

    files_checked: int = 0
    dirs_checked: int = 0
    absent_checked: int = 0
    #: Human-readable descriptions of every lost acknowledgement.
    lost: List[str] = field(default_factory=list)
    #: Entries re-applied from the journal (``repair=True`` only).
    repaired: int = 0
    #: sha256 over the expected state (see :meth:`AckJournal.state_digest`).
    digest: str = ""

    @property
    def ok(self) -> bool:
        """True when no acknowledged operation was lost."""
        return not self.lost


def renamed(path: str, old: str, new: str) -> str:
    """Where ``path`` lives once ``old`` has been renamed to ``new``:
    ``old`` itself and everything under ``old/`` moves, the rest stays."""
    if path == old or path.startswith(old + "/"):
        return new + path[len(old):]
    return path


def _sha16(data: bytes) -> str:
    """Short content hash used in ack-log entries."""
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


class AckJournal:
    """Promise ledger plus expected-state model for the file service."""

    def __init__(self) -> None:
        self.entries: List[AckEntry] = []
        self.files: Dict[str, bytearray] = {}
        self.dirs: Set[str] = set()
        #: Paths whose absence is promised (acked unlink/rename-from).
        self.absent: Set[str] = set()

    # -- recording acknowledgements -----------------------------------

    def record(
        self,
        client_id: int,
        req_id: int,
        op: str,
        path: str,
        *,
        offset: Optional[int] = None,
        data: Optional[bytes] = None,
        new_path: Optional[str] = None,
    ) -> AckEntry:
        """Journal one acknowledged mutation and update the model.

        Call *after* the operation succeeded against the cache — an
        entry is an acknowledgement, never an intention.
        """
        entry = AckEntry(
            seq=len(self.entries),
            client_id=client_id,
            req_id=req_id,
            op=op,
            path=path,
            offset=offset,
            length=len(data) if data is not None else None,
            checksum=_sha16(data) if data is not None else None,
            new_path=new_path,
        )
        self.entries.append(entry)
        self._apply(entry, data)
        return entry

    def _apply(self, entry: AckEntry, data: Optional[bytes]) -> None:
        """Replay one entry into the expected-state model."""
        op, path = entry.op, entry.path
        if op == "open":  # journaled only for create
            self.files.setdefault(path, bytearray())
            self.absent.discard(path)
        elif op == "write":
            content = self.files.setdefault(path, bytearray())
            self.absent.discard(path)
            end = entry.offset + len(data)
            if len(content) < end:
                content.extend(b"\x00" * (end - len(content)))
            content[entry.offset : end] = data
        elif op == "truncate":
            self.files[path] = bytearray()
            self.absent.discard(path)
        elif op == "mkdir":
            self.dirs.add(path)
            self.absent.discard(path)
        elif op == "unlink":
            self.files.pop(path, None)
            self.absent.add(path)
        elif op == "rename":
            self._rename(path, entry.new_path)
        else:
            raise ValueError(f"non-mutating op journaled: {op!r}")

    def _rename(self, old: str, new: str) -> None:
        """Move ``old`` to ``new``; ``old`` is then promised absent."""
        if old in self.files:  # a file: nothing lives under it
            self.files[new] = self.files.pop(old)
        else:  # a directory moves with everything the model holds under it
            for path, moved in [(p, renamed(p, old, new)) for p in self.files]:
                if moved != path:
                    self.files[moved] = self.files.pop(path)
            self.dirs = {renamed(p, old, new) for p in self.dirs}
            # Promised absences under ``old/`` move too, except where the
            # move has just put something.
            absent = {renamed(p, old, new) for p in self.absent}
            self.absent = absent - self.files.keys() - self.dirs
        self.absent.add(old)
        self.absent.discard(new)

    # -- digests -------------------------------------------------------

    def ack_digest(self) -> str:
        """sha256 over the canonical JSON of the ordered ack log."""
        h = hashlib.sha256()
        for entry in self.entries:
            h.update(
                json.dumps(
                    entry.to_json_dict(), sort_keys=True, separators=(",", ":")
                ).encode()
            )
            h.update(b"\n")
        return h.hexdigest()

    def state_digest(self) -> str:
        """sha256 over the expected state (files, dirs, absences)."""
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(f"F {path} {_sha16(self.files[path])}\n".encode())
        for path in sorted(self.dirs):
            h.update(f"D {path}\n".encode())
        for path in sorted(self.absent):
            h.update(f"A {path}\n".encode())
        return h.hexdigest()

    # -- the audit -----------------------------------------------------

    def _read_all(self, vfs, path: str, size: int) -> bytes:
        """Read ``size`` bytes of ``path`` through a scratch descriptor."""
        fd = vfs.open(path)
        try:
            chunks = []
            offset = 0
            while offset < size:
                chunk = vfs.pread(fd, min(64 * 1024, size - offset), offset)
                if not chunk:
                    break
                chunks.append(chunk)
                offset += len(chunk)
            return b"".join(chunks)
        finally:
            vfs.close(fd)

    def reconcile_inflight(self, vfs, inflight: dict) -> None:
        """Void the promise of the single request the machine died inside.

        ``inflight`` describes the one request in flight at the crash
        (keys ``op``/``path``/``offset``/``length``/``new_path``, paths
        resolved).  It was never acknowledged, so whatever it partially
        did is *outside* the promise — but it may have landed, and a
        model that ignores that would report false lost-acks forever
        after.  The fix is adoption: the model takes on the recovered
        reality for exactly the bytes/paths that request touched.  If
        the client retries and the retry is acknowledged, the model is
        overwritten again by the normal ack path.
        """
        op = inflight.get("op")
        path = inflight.get("path")
        if path is None:
            return
        if op == "write" and path in self.files:
            start = inflight.get("offset") or 0
            length = inflight.get("length") or 0
            content = self.files[path]
            try:
                fd = vfs.open(path)
            except FileSystemError:
                return
            try:
                actual = vfs.pread(fd, length, start)
            finally:
                vfs.close(fd)
            end = start + length
            if len(content) < end:
                content.extend(b"\x00" * (end - len(content)))
            content[start:end] = actual.ljust(length, b"\x00")
        elif op == "unlink":
            if not vfs.exists(path):
                self.files.pop(path, None)
        elif op == "rename":
            new = inflight.get("new_path")
            if new and not vfs.exists(path) and vfs.exists(new):
                self._rename(path, new)
        elif op == "truncate" and path in self.files:
            try:
                fd = vfs.open(path)
            except FileSystemError:
                return
            try:
                actual = vfs.pread(fd, 1, 0)
            finally:
                vfs.close(fd)
            if actual == b"" and self.files[path]:
                self.files[path] = bytearray()
        # mkdir / open-create: an unacknowledged extra path is never
        # audited, so there is nothing to adopt.

    def audit(
        self, vfs, *, repair: bool = False, inflight: Optional[dict] = None
    ) -> AuditReport:
        """Replay the expected state against the (recovered) file system.

        Returns an :class:`AuditReport`; ``report.ok`` is the
        zero-lost-acks guarantee.  With ``repair=True``, lost state is
        re-applied from the journal (counted in ``report.repaired``)
        after being reported lost — repair heals, it does not excuse.
        ``inflight`` (the request the machine died inside) is
        reconciled into the model first: see :meth:`reconcile_inflight`.
        """
        if inflight is not None:
            self.reconcile_inflight(vfs, inflight)
        report = AuditReport(digest=self.state_digest())
        for path in sorted(self.dirs):
            report.dirs_checked += 1
            if not vfs.exists(path):
                report.lost.append(f"dir {path}: missing after recovery")
                if repair:
                    try:
                        vfs.mkdir(path)
                        report.repaired += 1
                    except FileSystemError:
                        pass
        for path in sorted(self.files):
            report.files_checked += 1
            expected = bytes(self.files[path])
            try:
                actual = self._read_all(vfs, path, len(expected))
            except FileNotFound:
                report.lost.append(f"file {path}: missing after recovery")
                actual = None
            if actual is not None:
                # The recovered file may be shorter when the expected
                # tail is all zeros (a hole the fs never materialized);
                # pad before comparing so only real data counts.
                padded = actual.ljust(len(expected), b"\x00")
                if padded != expected:
                    report.lost.append(
                        f"file {path}: content mismatch "
                        f"(expected {_sha16(expected)}, found {_sha16(padded)})"
                    )
                    actual = None
            if actual is None and repair:
                try:
                    fd = vfs.open(path, create=True, truncate=True)
                    if expected:
                        vfs.pwrite(fd, expected, 0)
                    vfs.close(fd)
                    report.repaired += 1
                except FileSystemError:
                    pass
        for path in sorted(self.absent):
            report.absent_checked += 1
            if vfs.exists(path):
                report.lost.append(f"path {path}: resurrected after recovery")
                if repair:
                    try:
                        vfs.unlink(path)
                        report.repaired += 1
                    except FileSystemError:
                        # A directory: a renamed one's old name is
                        # promised absent too.
                        try:
                            vfs.rmdir(path)
                            report.repaired += 1
                        except FileSystemError:
                            pass
        return report
