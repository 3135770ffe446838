"""The Andrew benchmark [Howard88], scaled.

"Andrew creates and copies a source hierarchy; examines the hierarchy
using find, ls, du, grep, and wc; and compiles the source hierarchy."
Five phases: mkdir, copy, stat-scan, read-scan, compile.  The compile
phase is CPU-dominated (it is why Andrew shows the smallest spread across
file systems in Table 2): each compilation charges pure CPU time and then
writes a .o file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.hw.clock import NS_PER_MS
from repro.util.prng import DeterministicRandom, pattern_bytes


#: Size of every source file — and of the object file compiled from it.
_FILE_BYTES = 8 * 1024
#: Compiler output is written in small chunks, one write() each — under
#: a "sync" mount every chunk is a synchronous disk write, which is what
#: separates write-through-on-write from write-through-on-close in
#: Table 2.
_WRITE_CHUNK = 512
#: CPU time to "compile" one source file (the dominant cost; the paper's
#: Andrew is "dominated by CPU-intensive compilation").
COMPILE_MS_PER_FILE = 120


@dataclass
class AndrewParams:
    root: str = "/andrew"
    dirs: int = 4
    files_per_dir: int = 6
    seed: int = 1234


class AndrewBenchmark:
    """One instance of the Andrew benchmark under a directory."""

    def __init__(self, vfs, kernel, params: AndrewParams | None = None) -> None:
        self.vfs = vfs
        self.kernel = kernel
        self.params = params or AndrewParams()
        self.rng = DeterministicRandom(self.params.seed)
        self.phase_times: dict[str, float] = {}

    # -- paths -------------------------------------------------------------

    def _src_dir(self, d: int) -> str:
        return f"{self.params.root}/src/dir{d}"

    def _copy_dir(self, d: int) -> str:
        return f"{self.params.root}/copy/dir{d}"

    def _files(self, d: int) -> list[str]:
        return [f"file{f}.c" for f in range(self.params.files_per_dir)]

    def _file_key(self, d: int, name: str) -> int:
        """Stable content key (no built-in hash(): PYTHONHASHSEED varies)."""
        key = self.params.seed
        for ch in f"{d}/{name}":
            key = (key * 1000003 + ord(ch)) & 0xFFFFFFFF
        return key

    # -- phases ----------------------------------------------------------------

    def phase_mkdir(self) -> None:
        vfs, p = self.vfs, self.params
        vfs.mkdir(p.root)
        vfs.mkdir(f"{p.root}/src")
        vfs.mkdir(f"{p.root}/copy")
        vfs.mkdir(f"{p.root}/obj")
        for d in range(p.dirs):
            vfs.mkdir(self._src_dir(d))
            vfs.mkdir(self._copy_dir(d))

    def phase_create_source(self) -> None:
        """Create the source hierarchy (part of phase 1 in the original)."""
        p = self.params
        for d in range(p.dirs):
            for name in self._files(d):
                path = f"{self._src_dir(d)}/{name}"
                fd = self.vfs.open(path, create=True)
                data = pattern_bytes(self._file_key(d, name), 0, _FILE_BYTES)
                for start in range(0, len(data), _WRITE_CHUNK):
                    self.vfs.write(fd, data[start : start + _WRITE_CHUNK])
                self.vfs.close(fd)

    def phase_copy(self) -> None:
        p = self.params
        for d in range(p.dirs):
            for name in self._files(d):
                src = self.vfs.open(f"{self._src_dir(d)}/{name}")
                data = self.vfs.read(src, _FILE_BYTES)
                self.vfs.close(src)
                dst = self.vfs.open(f"{self._copy_dir(d)}/{name}", create=True)
                self.vfs.write(dst, data)
                self.vfs.close(dst)

    def phase_stat_scan(self) -> None:
        """find / ls / du: walk and stat everything."""
        p = self.params
        for d in range(p.dirs):
            for directory in (self._src_dir(d), self._copy_dir(d)):
                for name in self.vfs.readdir(directory):
                    self.vfs.stat(f"{directory}/{name}")

    def phase_read_scan(self) -> None:
        """grep / wc: read every copied file."""
        p = self.params
        for d in range(p.dirs):
            for name in self._files(d):
                fd = self.vfs.open(f"{self._copy_dir(d)}/{name}")
                while self.vfs.read(fd, 4096):
                    pass
                self.vfs.close(fd)

    def phase_compile(self) -> None:
        p = self.params
        for d in range(p.dirs):
            for name in self._files(d):
                fd = self.vfs.open(f"{self._copy_dir(d)}/{name}")
                source = self.vfs.read(fd, _FILE_BYTES)
                self.vfs.close(fd)
                if self.kernel.klib.charge_time:
                    self.kernel.clock.consume(COMPILE_MS_PER_FILE * NS_PER_MS)
                out = self.vfs.open(
                    f"{p.root}/obj/{name}.d{d}.o".replace("file", "f"), create=True
                )
                for start in range(0, len(source), _WRITE_CHUNK):
                    self.vfs.write(out, source[start : start + _WRITE_CHUNK])
                self.vfs.close(out)

    # -- drivers ---------------------------------------------------------------------

    PHASES = (
        ("mkdir", phase_mkdir),
        ("create", phase_create_source),
        ("copy", phase_copy),
        ("stat", phase_stat_scan),
        ("read", phase_read_scan),
        ("compile", phase_compile),
    )

    def run(self) -> float:
        """Run all phases; returns elapsed virtual seconds."""
        clock = self.kernel.clock
        start = clock.now_ns
        for name, phase in self.PHASES:
            t0 = clock.now_ns
            phase(self)
            self.phase_times[name] = (clock.now_ns - t0) / 1e9
        return (clock.now_ns - start) / 1e9

    def ops(self) -> Iterator:
        """Fine-grained thunk stream for the campaign interleaver: runs
        the benchmark one operation at a time, then loops forever.  Only
        the source hierarchy is exercised (the copy/compile phases need
        whole-phase ordering the interleaver does not provide)."""
        while True:
            yield self.phase_mkdir_ops_guard
            for d in range(self.params.dirs):
                for name in self._files(d):
                    yield self._make_file_op(d, name)
            yield self._stat_src_pass

    def phase_mkdir_ops_guard(self) -> None:
        if not self.vfs.exists(self.params.root):
            self.phase_mkdir()

    def _stat_src_pass(self) -> None:
        for d in range(self.params.dirs):
            for name in self.vfs.readdir(self._src_dir(d)):
                self.vfs.stat(f"{self._src_dir(d)}/{name}")

    def _make_file_op(self, d: int, name: str):
        def op() -> None:
            path = f"{self._src_dir(d)}/{name}"
            key = self._file_key(d, name)
            if not self.vfs.exists(path):
                fd = self.vfs.open(path, create=True)
                self.vfs.write(fd, pattern_bytes(key, 0, _FILE_BYTES))
                self.vfs.close(fd)
            else:
                fd = self.vfs.open(path)
                self.vfs.read(fd, _FILE_BYTES)
                self.vfs.close(fd)

        return op
