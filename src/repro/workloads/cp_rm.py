"""cp+rm: recursively copy then recursively remove a source tree.

The paper uses the 40 MB Digital Unix source tree; the workload here
generates a synthetic tree of the configured size on the file system
under test (untimed), then times the two phases separately, matching the
"81 (76+5)"-style cp+rm cells of Table 2.

cp+rm is the most I/O-intensive of the three workloads — it is where
write-through systems lose by the largest factor and where Rio's
remaining gap to MFS (reading the source from disk the first time) shows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.prng import DeterministicRandom, pattern_bytes

#: Where the generated source tree lives.
SRC_ROOT = "/src"


@dataclass
class CpRmParams:
    dst_root: str = "/dst"
    dirs: int = 16
    files_per_dir: int = 8
    #: Mean file size; actual sizes vary 0.5x-1.5x around it.
    mean_file_bytes: int = 32 * 1024
    seed: int = 77


@dataclass
class CpRmResult:
    cp_seconds: float
    rm_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.cp_seconds + self.rm_seconds

    def __str__(self) -> str:  # matches Table 2's "81 (76+5)" format
        return f"{self.total_seconds:.1f} ({self.cp_seconds:.1f}+{self.rm_seconds:.1f})"


class CpRmWorkload:
    def __init__(self, vfs, kernel, params: CpRmParams | None = None) -> None:
        self.vfs = vfs
        self.kernel = kernel
        self.params = params or CpRmParams()

    def _file_size(self, rng: DeterministicRandom) -> int:
        mean = self.params.mean_file_bytes
        return rng.randint(mean // 2, mean * 3 // 2)

    def setup(self) -> None:
        """Create the source tree — untimed, like having the Digital Unix
        sources already on disk before the benchmark starts."""
        with self.kernel.uncharged():
            rng = DeterministicRandom(self.params.seed)
            self.vfs.mkdir(SRC_ROOT)
            for d in range(self.params.dirs):
                dir_path = f"{SRC_ROOT}/dir{d:03d}"
                self.vfs.mkdir(dir_path)
                for f in range(self.params.files_per_dir):
                    fd = self.vfs.open(f"{dir_path}/file{f:03d}", create=True)
                    key = (self.params.seed << 20) ^ (d << 10) ^ f
                    self.vfs.write(fd, pattern_bytes(key, 0, self._file_size(rng)))
                    self.vfs.close(fd)

    def run(self) -> CpRmResult:
        clock = self.kernel.clock
        t0 = clock.now_ns
        self._copy_tree()
        t1 = clock.now_ns
        self._remove_tree()
        t2 = clock.now_ns
        return CpRmResult(cp_seconds=(t1 - t0) / 1e9, rm_seconds=(t2 - t1) / 1e9)

    def _copy_tree(self) -> None:
        p = self.params
        self.vfs.mkdir(p.dst_root)
        for d in sorted(self.vfs.readdir(SRC_ROOT)):
            self.vfs.mkdir(f"{p.dst_root}/{d}")
            for name in sorted(self.vfs.readdir(f"{SRC_ROOT}/{d}")):
                src = self.vfs.open(f"{SRC_ROOT}/{d}/{name}")
                dst = self.vfs.open(f"{p.dst_root}/{d}/{name}", create=True)
                while True:
                    chunk = self.vfs.read(src, 64 * 1024)
                    if not chunk:
                        break
                    self.vfs.write(dst, chunk)
                self.vfs.close(src)
                self.vfs.close(dst)

    def _remove_tree(self) -> None:
        p = self.params
        for d in sorted(self.vfs.readdir(p.dst_root)):
            for name in sorted(self.vfs.readdir(f"{p.dst_root}/{d}")):
                self.vfs.unlink(f"{p.dst_root}/{d}/{name}")
            self.vfs.rmdir(f"{p.dst_root}/{d}")
        self.vfs.rmdir(p.dst_root)
