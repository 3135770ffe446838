"""memTest: the repeatable corruption-detection workload (section 3.2).

"memTest generates a repeatable stream of file and directory creations,
deletions, reads, and writes ... Actions and data in memTest are
controlled by a pseudo-random number generator.  After each step, memTest
records its progress in a status file across the network.  After the
system crashes, we reboot the system and run memTest until it reaches the
point when the system crashed.  This reconstructs the correct contents of
the test directory at the time of the crash, and we then compare the
reconstructed contents with the file cache image in memory."

Implementation split:

* :class:`MemTestModel` — the pure expected-state machine.  Given a seed
  it deterministically generates operation ``k`` and tracks what the file
  tree *should* contain.  Replaying a fresh model to the recorded progress
  reconstructs ground truth without touching any file system.
* :class:`MemTest` — drives a VFS with the model's operations, recording
  progress after each completed step (the "status file across the
  network" is the harness-side ``progress`` attribute, which survives the
  simulated crash because it lives outside the simulated machine).
* :func:`verify_against_model` — the post-reboot comparison.  The
  operation that was in flight at crash time is allowed to be absent,
  partially applied, or fully applied; everything else must match
  exactly.

File contents are a pure function of ``(file_key, offset)``
(:func:`repro.util.prng.pattern_bytes`), so any byte of any expected file
can be recomputed at verification time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import FileSystemError
from repro.util.prng import DeterministicRandom, pattern_bytes


@dataclass
class MemTestParams:
    """Scaled-down defaults; the paper used a 100 MB file set."""

    root: str = "/memtest"
    max_files: int = 24
    max_dirs: int = 4
    max_file_bytes: int = 128 * 1024
    max_io_bytes: int = 16 * 1024
    #: Relative operation mix
    #: (create, delete, write, read, mkdir, rmdir, rename).
    weights: tuple = (20, 8, 40, 20, 4, 2, 5)
    #: fsync after every write — used for the write-through (disk-based)
    #: reliability runs, which would otherwise lose async data (§3.3).
    fsync_every_write: bool = False


@dataclass(frozen=True)
class MemTestOp:
    """One generated operation (pure description, no side effects)."""

    index: int
    kind: str  # create | delete | write | read | mkdir | rmdir | rename
    path: str
    path2: str = ""  # rename destination
    file_key: int = 0
    offset: int = 0
    length: int = 0


@dataclass
class ExpectedFile:
    file_key: int
    #: Written extents: list of (offset, length) in application order.
    extents: list = field(default_factory=list)
    size: int = 0

    def content(self) -> bytes:
        """Materialise the expected contents."""
        data = bytearray(self.size)
        for offset, length in self.extents:
            data[offset : offset + length] = pattern_bytes(self.file_key, offset, length)
        return bytes(data)


class MemTestModel:
    """The deterministic expected-state machine."""

    def __init__(self, seed: int, params: MemTestParams | None = None) -> None:
        self.params = params or MemTestParams()
        self.rng = DeterministicRandom(seed)
        self.files: dict[str, ExpectedFile] = {}
        self.dirs: list[str] = [self.params.root]
        self.ops_generated = 0
        self._key_counter = seed << 20

    # -- generation ---------------------------------------------------------

    def next_op(self) -> MemTestOp:
        """Generate operation ``ops_generated`` and apply it to the
        expected state."""
        params = self.params
        kinds = ["create", "delete", "write", "read", "mkdir", "rmdir", "rename"]
        kind = self.rng.weighted_choice(kinds, list(params.weights))

        # Degrade gracefully when a kind is impossible right now.
        if kind in ("delete", "write", "read", "rename") and not self.files:
            kind = "create"
        if kind == "create" and len(self.files) >= params.max_files:
            kind = "write" if self.files else "mkdir"
        if kind == "mkdir" and len(self.dirs) >= params.max_dirs:
            kind = "write" if self.files else "create"
        if kind == "rmdir":
            empty = [
                d
                for d in self.dirs
                if d != params.root
                and not any(f.startswith(d + "/") for f in self.files)
                and not any(x != d and x.startswith(d + "/") for x in self.dirs)
            ]
            if not empty:
                kind = "read" if self.files else "create"

        index = self.ops_generated
        op: MemTestOp
        if kind == "create":
            parent = self.rng.choice(self.dirs)
            name = f"f{index:06d}"
            path = f"{parent}/{name}"
            self._key_counter += 1
            op = MemTestOp(index, "create", path, file_key=self._key_counter)
            self.files[path] = ExpectedFile(file_key=self._key_counter)
        elif kind == "delete":
            path = self.rng.choice(sorted(self.files))
            op = MemTestOp(index, "delete", path)
            del self.files[path]
        elif kind == "write":
            path = self.rng.choice(sorted(self.files))
            expected = self.files[path]
            offset = self.rng.randrange(max(1, params.max_file_bytes - params.max_io_bytes))
            length = self.rng.randint(1, params.max_io_bytes)
            op = MemTestOp(
                index, "write", path,
                file_key=expected.file_key, offset=offset, length=length,
            )
            expected.extents.append((offset, length))
            expected.size = max(expected.size, offset + length)
        elif kind == "read":
            path = self.rng.choice(sorted(self.files))
            expected = self.files[path]
            offset = self.rng.randrange(max(1, expected.size or 1))
            length = self.rng.randint(1, params.max_io_bytes)
            op = MemTestOp(
                index, "read", path,
                file_key=expected.file_key, offset=offset, length=length,
            )
        elif kind == "rename":
            path = self.rng.choice(sorted(self.files))
            parent = self.rng.choice(self.dirs)
            path2 = f"{parent}/r{index:06d}"
            op = MemTestOp(index, "rename", path, path2=path2)
            self.files[path2] = self.files.pop(path)
        elif kind == "mkdir":
            parent = self.rng.choice(self.dirs)
            path = f"{parent}/d{index:06d}"
            op = MemTestOp(index, "mkdir", path)
            self.dirs.append(path)
        else:  # rmdir
            path = self.rng.choice(sorted(empty))
            op = MemTestOp(index, "rmdir", path)
            self.dirs.remove(path)
        self.ops_generated += 1
        return op

    @classmethod
    def replay(
        cls, seed: int, progress: int, params: MemTestParams | None = None
    ) -> tuple["MemTestModel", Optional[MemTestOp]]:
        """Reconstruct expected state after ``progress`` completed ops.

        Returns the model advanced through operation ``progress - 1``,
        plus the next (in-flight-at-crash) operation, whose effects may be
        partial on the recovered file system.
        """
        model = cls(seed, params)
        for _ in range(progress):
            model.next_op()
        # Peek at the in-flight op without losing determinism by forking
        # a replica (cheaper than deep-copying internal state).
        replica = cls(seed, params)
        for _ in range(progress):
            replica.next_op()
        in_flight = replica.next_op()
        return model, in_flight


class MemTest:
    """Drives a VFS with the model's operations."""

    def __init__(self, vfs, seed: int, params: MemTestParams | None = None) -> None:
        self.vfs = vfs
        self.params = params or MemTestParams()
        self.model = MemTestModel(seed, self.params)
        self.seed = seed
        #: The "status file across the network": number of operations
        #: fully completed.  Lives harness-side, so it survives crashes.
        self.progress = 0
        self.read_mismatches: list[MemTestOp] = []

    def setup(self) -> None:
        if not self.vfs.exists(self.params.root):
            self.vfs.mkdir(self.params.root)

    def step(self) -> MemTestOp:
        """Execute one operation; bump progress only when it completes."""
        op = self.model.next_op()
        self._apply(op)
        self.progress += 1
        return op

    def _apply(self, op: MemTestOp) -> None:
        vfs = self.vfs
        if op.kind == "create":
            fd = vfs.open(op.path, create=True)
            vfs.close(fd)
        elif op.kind == "delete":
            vfs.unlink(op.path)
        elif op.kind == "write":
            fd = vfs.open(op.path)
            vfs.pwrite(fd, pattern_bytes(op.file_key, op.offset, op.length), op.offset)
            if self.params.fsync_every_write:
                vfs.fsync(fd)
            vfs.close(fd)
        elif op.kind == "read":
            fd = vfs.open(op.path)
            data = vfs.pread(fd, op.length, op.offset)
            vfs.close(fd)
            # An online consistency check: reads must observe the
            # deterministic pattern wherever extents were written.
            expected = self.model.files.get(op.path)
            if expected is not None:
                want = expected.content()[op.offset : op.offset + op.length]
                if data != want[: len(data)]:
                    self.read_mismatches.append(op)
        elif op.kind == "rename":
            vfs.rename(op.path, op.path2)
        elif op.kind == "mkdir":
            vfs.mkdir(op.path)
        elif op.kind == "rmdir":
            vfs.rmdir(op.path)

    def ops(self) -> Iterator:
        """Endless stream of thunks for the campaign interleaver."""
        while True:
            yield self.step


@dataclass
class CorruptionRecord:
    path: str
    problem: str  # missing | extra | size | content | unreadable


def verify_against_model(
    fs,
    model: MemTestModel,
    in_flight: Optional[MemTestOp] = None,
) -> list[CorruptionRecord]:
    """Compare a recovered file system against reconstructed ground truth.

    The in-flight operation's target path is exempted from strict checks
    (its effects may legitimately be absent, partial, or complete); every
    other difference is corruption.
    """
    problems: list[CorruptionRecord] = []
    exempt = set()
    if in_flight is not None:
        exempt.add(in_flight.path)
        if in_flight.path2:
            exempt.add(in_flight.path2)
    root = model.params.root

    # Expected files must exist with exactly the expected bytes.
    for path, expected in sorted(model.files.items()):
        if path in exempt:
            continue
        try:
            if not fs.exists(path):
                problems.append(CorruptionRecord(path, "missing"))
                continue
            ino = fs.namei(path)
            actual_size = fs.size_of(ino)
            want = expected.content()
            if actual_size != len(want):
                problems.append(CorruptionRecord(path, "size"))
                continue
            if fs.read(ino, 0, len(want)) != want:
                problems.append(CorruptionRecord(path, "content"))
        except FileSystemError:
            problems.append(CorruptionRecord(path, "unreadable"))

    # Expected directories must exist; unexpected entries are corruption.
    expected_paths = set(model.files) | set(model.dirs)
    try:
        actual = _walk(fs, root)
    except FileSystemError:
        return problems + [CorruptionRecord(root, "unreadable")]
    for path in sorted(actual - expected_paths - exempt):
        # fsck may legitimately reconnect things under lost+found, which
        # lives outside the memTest root; anything else here is wrong.
        problems.append(CorruptionRecord(path, "extra"))
    for path in sorted(set(model.dirs) - actual - {root} - exempt):
        problems.append(CorruptionRecord(path, "missing"))
    return problems


def _walk(fs, root: str) -> set[str]:
    """All paths under ``root`` (excluding the root itself)."""
    seen: set[str] = set()
    stack = [root]
    while stack:
        current = stack.pop()
        for name in fs.readdir(current):
            path = f"{current}/{name}"
            seen.add(path)
            try:
                ino = fs.namei(path)
            except FileSystemError:
                continue
            node = fs.iget(ino) if hasattr(fs, "iget") else fs.stat(path)
            if node.ftype.name == "DIRECTORY":
                stack.append(path)
    return seen
