"""The VFS / system call layer.

Thin by design: file descriptor bookkeeping, path dispatch and the common
syscall prologue (CPU overhead, background kernel activity, the update
daemon's deadline check).  Every syscall body is wrapped so that a
:class:`~repro.errors.SystemCrash` raised anywhere below — a wild store
trapping, a consistency panic, a watchdog — takes the machine down through
:meth:`Kernel.go_down` before propagating to the workload harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import (
    BadFileDescriptor,
    CrossDevice,
    FileNotFound,
    FileSystemError,
    InvalidArgument,
    SystemCrash,
)
from repro.fs.types import Whence


@dataclass
class OpenFile:
    fd: int
    ino: int
    fs: object = None
    offset: int = 0


class VFS:
    """System call interface over a root file system plus optional mounts.

    ``mounts`` maps path prefixes to additional file systems (e.g. an MFS
    at ``/mfs``, as Table 2's MFS row requires: the source tree lives on
    the disk-backed root while the benchmark target is memory-resident).
    """

    #: Largest single chunk handed to the file system per write (bounded
    #: by the kernel staging region).
    MAX_IO_CHUNK = 64 * 1024

    def __init__(self, kernel, fs, mounts: dict | None = None) -> None:
        self.kernel = kernel
        self.fs = fs
        #: (prefix, fs) longest-prefix-first.
        self._mounts = sorted(
            (mounts or {}).items(), key=lambda item: -len(item[0])
        )
        self._files: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands

    # -- plumbing -----------------------------------------------------------

    def _resolve(self, path: str) -> tuple[object, str]:
        """Pick the file system owning ``path``; return (fs, subpath)."""
        for prefix, fs in self._mounts:
            if path == prefix or path.startswith(prefix + "/"):
                sub = path[len(prefix) :] or "/"
                return fs, sub
        return self.fs, path

    def _enter(self) -> None:
        self.kernel.syscall_entered()

    def _run(self, body, name: str = "syscall"):
        """Run a syscall body, converting fatal errors into a machine crash.

        Emits ``syscall`` entry/exit events into the flight recorder when
        one is attached and running; a body that raises (crash or fs
        error) leaves no exit event, so an open entry marks the syscall
        the system died inside.
        """
        rec = self.kernel.recorder
        trace = rec.enabled
        if trace:
            rec.emit("syscall", name, phase="enter")
        try:
            self._enter()
            out = body()
        except SystemCrash as exc:
            self.kernel.go_down(exc)
            raise
        if trace:
            rec.emit("syscall", name, phase="exit")
        return out

    def _file(self, fd: int) -> OpenFile:
        if fd not in self._files:
            raise BadFileDescriptor(f"fd {fd}")
        return self._files[fd]

    # -- batched entry ------------------------------------------------------

    @contextmanager
    def batch(self):
        """Scope in which syscalls share one trap's fixed entry cost.

        The first syscall inside the scope pays the kernel's full
        ``SYSCALL_OVERHEAD_NS`` prologue; the rest pay the reduced
        ``BATCH_SYSCALL_OVERHEAD_NS``.  Semantics are unchanged —
        errors and crashes propagate exactly as unbatched — only the
        fixed per-call CPU charge drops.  The file service wraps each
        scheduled batch in one of these scopes.
        """
        self.kernel.begin_batch()
        try:
            yield self
        finally:
            # The kernel object may have been replaced by a reboot
            # mid-scope; closing the old one's scope is still correct
            # (the new kernel boots with a zero batch depth).
            self.kernel.end_batch()

    def run_batch(self, calls: list) -> list:
        """Execute ``calls`` — ``(method_name, *args)`` tuples — batched.

        Returns one result per call, in order; a call that fails with a
        file-system error contributes the *exception object* instead of
        a result and the batch keeps going.  A crash propagates
        immediately (trailing calls never run).
        """
        results = []
        with self.batch():
            for name, *args in calls:
                method = getattr(self, name, None)
                if method is None or name.startswith("_"):
                    raise InvalidArgument(f"unknown syscall {name!r}")
                try:
                    results.append(method(*args))
                except FileSystemError as exc:
                    results.append(exc)
        return results

    # -- file descriptor syscalls ------------------------------------------------

    def open(self, path: str, *, create: bool = False, truncate: bool = False) -> int:
        """Open ``path``; optionally create or truncate.  Returns a file
        descriptor."""
        def body():
            fs, sub = self._resolve(path)
            try:
                ino = fs.namei(sub)
                if truncate:
                    fs.truncate(ino)
            except FileNotFound:
                if not create:
                    raise
                ino = fs.create(sub)
            fd = self._next_fd
            self._next_fd += 1
            self._files[fd] = OpenFile(fd=fd, ino=ino, fs=fs)
            return fd

        return self._run(body, "open")

    def close(self, fd: int) -> None:
        """Close a descriptor (runs the policy's close hook — the moment
        write-through-on-close systems make data permanent)."""
        def body():
            open_file = self._file(fd)
            del self._files[fd]
            open_file.fs.close_hook(open_file.ino)

        return self._run(body, "close")

    def write(self, fd: int, data: bytes) -> int:
        """Write at the current offset; returns bytes written."""
        def body():
            open_file = self._file(fd)
            written = 0
            while written < len(data):
                chunk = data[written : written + self.MAX_IO_CHUNK]
                open_file.fs.write(open_file.ino, open_file.offset, chunk)
                open_file.offset += len(chunk)
                written += len(chunk)
            return written

        return self._run(body, "write")

    def read(self, fd: int, length: int) -> bytes:
        """Read up to ``length`` bytes from the current offset."""
        def body():
            open_file = self._file(fd)
            data = open_file.fs.read(open_file.ino, open_file.offset, length)
            open_file.offset += len(data)
            return data

        return self._run(body, "read")

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """Positional write; the descriptor offset is not moved."""
        def body():
            open_file = self._file(fd)
            written = 0
            while written < len(data):
                chunk = data[written : written + self.MAX_IO_CHUNK]
                open_file.fs.write(open_file.ino, offset + written, chunk)
                written += len(chunk)
            return written

        return self._run(body, "pwrite")

    def pread(self, fd: int, length: int, offset: int) -> bytes:
        """Positional read; the descriptor offset is not moved."""
        def body():
            open_file = self._file(fd)
            return open_file.fs.read(open_file.ino, offset, length)

        return self._run(body, "pread")

    def lseek(self, fd: int, offset: int, whence: Whence = Whence.SET) -> int:
        """Move the descriptor offset; returns the new offset."""
        def body():
            open_file = self._file(fd)
            if whence == Whence.SET:
                new = offset
            elif whence == Whence.CUR:
                new = open_file.offset + offset
            else:
                new = open_file.fs.size_of(open_file.ino) + offset
            if new < 0:
                raise InvalidArgument("negative seek")
            open_file.offset = new
            return new

        return self._run(body, "lseek")

    def fsync(self, fd: int) -> None:
        """Force the file durable — a real disk wait on conventional
        systems; an immediate return on Rio (memory is stable)."""
        def body():
            open_file = self._file(fd)
            open_file.fs.fsync(open_file.ino)

        return self._run(body, "fsync")

    def ftruncate(self, fd: int) -> None:
        """Truncate the open file to zero length."""
        def body():
            open_file = self._file(fd)
            open_file.fs.truncate(open_file.ino)

        return self._run(body, "ftruncate")

    # -- path syscalls ----------------------------------------------------------

    def unlink(self, path: str) -> None:
        """Remove a name; the file dies with its last name."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.unlink(sub), "unlink")

    def mkdir(self, path: str) -> None:
        """Create a directory."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.mkdir(sub) and None, "mkdir")

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.rmdir(sub), "rmdir")

    def rename(self, old: str, new: str) -> None:
        """Rename within one file system (EXDEV across mounts)."""
        old_fs, old_sub = self._resolve(old)
        new_fs, new_sub = self._resolve(new)
        if old_fs is not new_fs:
            raise CrossDevice(f"rename across mounts: {old} -> {new}")
        return self._run(lambda: old_fs.rename(old_sub, new_sub), "rename")

    def symlink(self, target: str, link_path: str) -> None:
        """Create a symbolic link at ``link_path`` pointing to ``target``."""
        fs, sub = self._resolve(link_path)
        return self._run(lambda: fs.symlink(target, sub) and None, "symlink")

    def readlink(self, path: str) -> str:
        """Return a symlink's target without following it."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.readlink(sub), "readlink")

    def link(self, existing: str, new_path: str) -> None:
        """Create a hard link (EXDEV across mounts)."""
        old_fs, old_sub = self._resolve(existing)
        new_fs, new_sub = self._resolve(new_path)
        if old_fs is not new_fs:
            raise CrossDevice(f"link across mounts: {existing} -> {new_path}")
        return self._run(lambda: old_fs.link(old_sub, new_sub), "link")

    def readdir(self, path: str) -> list[str]:
        """List a directory (sorted; "." and ".." omitted)."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.readdir(sub), "readdir")

    def stat(self, path: str):
        """Return the inode/node behind ``path`` (follows symlinks)."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.stat(sub), "stat")

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves."""
        fs, sub = self._resolve(path)
        return self._run(lambda: fs.exists(sub), "exists")

    def sync(self) -> None:
        """Flush all mounted file systems per their policies."""
        def body():
            self.fs.sync()
            for _, fs in self._mounts:
                fs.sync()

        return self._run(body, "sync")

    @property
    def open_fds(self) -> list[int]:
        """Currently open descriptors (ascending)."""
        return sorted(self._files)
