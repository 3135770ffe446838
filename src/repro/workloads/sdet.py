"""Sdet: the SPEC SDM multi-user software-development workload.

"Sdet is one of SPEC's SDM benchmarks and models a multi-user software
development environment."  Each concurrent *script* is a user performing
a mix of development activity — creating and editing files, compiling,
listing directories, cleaning up.  The scripts run interleaved
round-robin (our single-CPU stand-in for concurrency), and the reported
time covers all scripts to completion — Table 2 reports "Sdet (5
scripts)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.hw.clock import NS_PER_MS
from repro.util.prng import DeterministicRandom, pattern_bytes


_FILE_BYTES = 8 * 1024
_EDITS_PER_FILE = 2
#: CPU charge per "compile" step.
_COMPILE_MS = 40
#: Writes are issued in editor/compiler-sized chunks.
_WRITE_CHUNK = 512


@dataclass
class SdetParams:
    root: str = "/sdet"
    scripts: int = 5
    files_per_script: int = 10
    seed: int = 2024


class SdetWorkload:
    def __init__(self, vfs, kernel, params: SdetParams | None = None) -> None:
        self.vfs = vfs
        self.kernel = kernel
        self.params = params or SdetParams()

    def _script_steps(self, script: int) -> Iterator:
        """One user's activity as a stream of thunks."""
        p = self.params
        rng = DeterministicRandom(p.seed + script * 7919)
        home = f"{p.root}/user{script}"

        yield lambda: self.vfs.mkdir(home)
        for f in range(p.files_per_script):
            path = f"{home}/prog{f}.c"
            key = (p.seed << 16) ^ (script << 8) ^ f

            def create(path=path, key=key):
                fd = self.vfs.open(path, create=True)
                data = pattern_bytes(key, 0, _FILE_BYTES)
                for start in range(0, len(data), _WRITE_CHUNK):
                    self.vfs.write(fd, data[start : start + _WRITE_CHUNK])
                self.vfs.close(fd)

            yield create
            for edit in range(_EDITS_PER_FILE):

                def edit_op(path=path, key=key, edit=edit, rng=rng):
                    fd = self.vfs.open(path)
                    offset = rng.randrange(_FILE_BYTES)
                    self.vfs.pwrite(fd, pattern_bytes(key ^ edit, offset, 512), offset)
                    self.vfs.close(fd)

                yield edit_op

            def compile_op(path=path, script=script, f=f):
                fd = self.vfs.open(path)
                data = self.vfs.read(fd, _FILE_BYTES)
                self.vfs.close(fd)
                if self.kernel.config.charge_time:
                    self.kernel.clock.consume(_COMPILE_MS * NS_PER_MS)
                out = self.vfs.open(f"{home}/prog{f}.o", create=True)
                obj = data[: len(data) // 2]
                for start in range(0, len(obj), _WRITE_CHUNK):
                    self.vfs.write(out, obj[start : start + _WRITE_CHUNK])
                self.vfs.close(out)

            yield compile_op

        def list_home():
            for name in self.vfs.readdir(home):
                self.vfs.stat(f"{home}/{name}")

        yield list_home

        def cleanup():
            for name in self.vfs.readdir(home):
                self.vfs.unlink(f"{home}/{name}")
            self.vfs.rmdir(home)

        yield cleanup

    def run(self) -> float:
        """Run all scripts round-robin; returns elapsed virtual seconds."""
        clock = self.kernel.clock
        start = clock.now_ns
        self.vfs.mkdir(self.params.root)
        streams = [self._script_steps(s) for s in range(self.params.scripts)]
        active = list(streams)
        while active:
            still = []
            for stream in active:
                step = next(stream, None)
                if step is not None:
                    step()
                    still.append(stream)
            active = still
        self.vfs.rmdir(self.params.root)
        return (clock.now_ns - start) / 1e9
