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


#: The deadline of a clock no listener has asked to be woken by: later
#: than any virtual time a run reaches (292 years).  A clock past it
#: would only fire at every advance, never miss a wake.
_NEVER = 1 << 63


class Clock:
    """A monotonically advancing virtual clock with nanosecond resolution."""

    def __init__(self) -> None:
        self._now_ns = 0
        self._deadline_ns = _NEVER
        self._listeners: list[Callable[[int], None]] = []
        self._kernel_listeners: list[Callable[[int], None]] = []

    @property
    def now_ns(self) -> int:
        return self._now_ns

    def consume(self, ns: int) -> None:
        """Advance the clock by ``ns`` nanoseconds of CPU work."""
        if ns < 0:
            raise ValueError("cannot consume negative time")
        self._now_ns += ns
        if self._now_ns >= self._deadline_ns:
            self._fire()

    def advance_to(self, t_ns: int) -> None:
        """Advance the clock to absolute time ``t_ns`` (no-op if in the past)."""
        if t_ns > self._now_ns:
            self._now_ns = t_ns
            if t_ns >= self._deadline_ns:
                self._fire()

    def on_advance(self, callback: Callable[[int], None], *, kernel: bool = False) -> None:
        """Register ``callback(now_ns)``, woken at the deadlines it asks for.

        The deadline rule: the clock keeps the earliest time any listener
        passed to :meth:`wake_at`; the first advance that reaches it
        forgets it and calls every listener in registration order.  So
        a listener that still has work after its call re-arms with
        ``wake_at(t)`` for its next due time, and code that gives a
        listener earlier work calls ``wake_at`` too; a listener with
        nothing due when called does nothing.  Listeners do not move the
        clock.

        Two things listen: a disk retires its queued requests as time
        passes (:meth:`repro.disk.device.SimulatedDisk.attach`), and the
        allocation fault frees a block once its delay is due
        (``kernel=True``).  A disk's listener lasts as long as the disk;
        one a kernel arms dies with that kernel — :meth:`Machine.reset
        <repro.hw.machine.Machine.reset>` calls :meth:`drop_kernel_listeners`
        before the boot advances the clock.  (The 30-second ``update``
        daemon is no listener: it polls at syscall entry,
        ``Kernel.syscall_entered``.)
        """
        self._listeners.append(callback)
        if kernel:
            self._kernel_listeners.append(callback)

    def wake_at(self, t_ns: int) -> None:
        """Fire the listeners at the first advance that reaches ``t_ns``."""
        if t_ns < self._deadline_ns:
            self._deadline_ns = t_ns

    def drop_kernel_listeners(self) -> None:
        """Forget every listener registered with ``kernel=True``."""
        dropped = self._kernel_listeners
        self._listeners = [cb for cb in self._listeners if cb not in dropped]
        self._kernel_listeners = []

    def _fire(self) -> None:
        self._deadline_ns = _NEVER
        for callback in list(self._listeners):
            callback(self._now_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock({self._now_ns / NS_PER_SEC:.6f}s)"
