"""Virtual time.

All performance numbers in the reproduction (Table 2 and the micro-benches)
are *virtual seconds* accumulated on this clock: CPU work consumes time via
:meth:`Clock.consume`, synchronous disk I/O advances the clock to the
request's completion time, and asynchronous I/O merely occupies the disk's
internal timeline.  Using a virtual clock makes every run deterministic and
lets a laptop replay "6 machine-months" of crash testing.
"""

from __future__ import annotations

from typing import Callable

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


class Clock:
    """A monotonically advancing virtual clock with nanosecond resolution."""

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = start_ns
        self._listeners: list[Callable[[int], None]] = []

    @property
    def now_ns(self) -> int:
        return self._now_ns

    def consume(self, ns: int) -> None:
        """Advance the clock by ``ns`` nanoseconds of CPU work."""
        if ns < 0:
            raise ValueError("cannot consume negative time")
        self._now_ns += ns
        self._fire()

    def advance_to(self, t_ns: int) -> None:
        """Advance the clock to absolute time ``t_ns`` (no-op if in the past)."""
        if t_ns > self._now_ns:
            self._now_ns = t_ns
            self._fire()

    def on_advance(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(now_ns)`` invoked after every advance.

        Used by polled daemons (e.g. the 30-second ``update`` flush daemon)
        to notice that their deadline has passed.
        """
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[int], None]) -> None:
        if callback in self._listeners:
            self._listeners.remove(callback)

    def _fire(self) -> None:
        for callback in list(self._listeners):
            callback(self._now_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock({self._now_ns / NS_PER_SEC:.6f}s)"
