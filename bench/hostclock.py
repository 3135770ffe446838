"""Host time in reference-host seconds.

The sandboxes this benchmark runs in change speed under it: the same
pure-Python loop takes 0.23-0.37 s from one second to the next with no
steal time reported, so raw wall time of a 3 s region spreads by 24 %
(quartile distance over median) between back-to-back runs.  The
slowdown is uniform across code, so a short calibration slice run
between segments of the measured work tracks it: the same regions
expressed in calibration work spread by under 2 %.

:class:`HostClock` therefore measures every segment twice — in wall
seconds, and in *reference-host seconds*: the segment's wall time
multiplied by the machine's speed around it (calibration iterations per
second from the bracketing slices) over ``REFERENCE_ITERS_PER_S``.  On a
host that runs the slice at exactly the reference rate the two agree.
All ``host_*`` / ``*_host_s`` / ``setup_s`` numbers the benchmark
reports are reference-host seconds; the raw wall is kept beside them.
"""

from __future__ import annotations

import time
from typing import Dict

#: Calibration iterations per second of the reference host (about what
#: the 2-core sandbox this was written on reaches when undisturbed).
REFERENCE_ITERS_PER_S = 1.0e7

#: One slice, about 10 ms.  Shorter slices estimate the speed too
#: noisily: with 2 ms slices around 0.5 s segments the normalised
#: numbers spread *more* (8 %) than raw wall; with 10 ms slices, 2 %.
SLICE_ITERS = 100_000

#: A lap closer than this to the previous slice reuses its speed.
MIN_LAP_S = 0.05


def _slice() -> float:
    """Run one calibration slice; returns iterations per second."""
    start = time.perf_counter()
    x = 0
    d: Dict[int, int] = {}
    for i in range(SLICE_ITERS):
        x = (x * 31 + i) & 0xFFFF
        d[i & 255] = x
    return SLICE_ITERS / (time.perf_counter() - start)


class HostClock:
    """Splits a process's life into named buckets of host time."""

    def __init__(self) -> None:
        #: bucket -> reference-host seconds / raw wall seconds.
        self.ref_s: Dict[str, float] = {}
        self.wall_s: Dict[str, float] = {}
        self._speed = _slice()
        self._mark = time.perf_counter()
        self.slices = 1

    def lap(self, bucket: str) -> None:
        """Charge everything since the previous lap to ``bucket``."""
        now = time.perf_counter()
        wall = now - self._mark
        if wall >= MIN_LAP_S:
            speed = _slice()
            self.slices += 1
            local = (self._speed + speed) / 2
            self._speed = speed
        else:
            local = self._speed
        self.wall_s[bucket] = self.wall_s.get(bucket, 0.0) + wall
        self.ref_s[bucket] = (
            self.ref_s.get(bucket, 0.0) + wall * local / REFERENCE_ITERS_PER_S
        )
        self._mark = time.perf_counter()

    def due(self, interval_s: float = 0.15) -> bool:
        """True when ``interval_s`` passed since the last lap — long
        loops call ``lap`` at this cadence so the speed stays tracked."""
        return time.perf_counter() - self._mark >= interval_s
