"""Kernel locks, with the synchronization-fault surface.

The simulation is single-threaded, so locks are not needed for mutual
exclusion — they exist to give the paper's *synchronization* fault type
("randomly causing the procedures that acquire/free a lock to return
without acquiring/freeing the lock") mechanistic consequences:

* an **elided release** leaves the lock held; the next acquire of that
  lock self-deadlocks, which surfaces as a watchdog crash (a hung system);
* an **elided acquire** opens a race window: the critical section runs
  with preemption enabled, so daemons (e.g. the 30-second update flush)
  may fire at preemption points *inside* a half-finished metadata update
  and write inconsistent state to disk;
* a release of a lock that is not held trips a kernel sanity check.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import KernelPanic, SystemCrash, WatchdogTimeout


class Lock:
    """A named kernel lock."""

    def __init__(self, manager: "LockManager", name: str) -> None:
        self.manager = manager
        self.name = name
        self.held = False
        #: True while an elided acquire has left this section unprotected.
        self.elided = False

    def acquire(self) -> None:
        if self.manager.should_elide(self, "acquire"):
            self.elided = True
            self.manager.racy_sections += 1
            return
        if self.held:
            # Single-threaded: re-acquiring a held lock can never succeed.
            raise WatchdogTimeout(f"deadlock: lock {self.name!r} already held")
        self.held = True

    def release(self) -> None:
        if self.elided:
            # The matching acquire was elided; the section ran unlocked.
            self.elided = False
            return
        if self.manager.should_elide(self, "release"):
            return  # lock stays held: the next acquire deadlocks
        if not self.held:
            raise KernelPanic(f"unlock of unheld lock {self.name!r}")
        self.held = False

    def __enter__(self) -> "Lock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        # A crash unwinding through the section leaves the lock as the
        # dying kernel had it; any other exception — an errno
        # (``FileSystemError``) above all — is an ordinary return path and
        # releases like one.  Only the elision hook leaks a lock.
        if not isinstance(exc[1], SystemCrash):
            self.release()


class LockManager:
    """Creates locks and hosts the fault-injection elision hook."""

    def __init__(self) -> None:
        self._locks: dict[str, Lock] = {}
        #: ``hook(lock, op) -> bool``; ``op`` is "acquire" or "release".
        #: Returning True makes the operation silently do nothing.
        self.elision_hook: Optional[Callable[[Lock, str], bool]] = None
        self.racy_sections = 0

    def lock(self, name: str) -> Lock:
        if name not in self._locks:
            self._locks[name] = Lock(self, name)
        return self._locks[name]

    def should_elide(self, lock: Lock, op: str) -> bool:
        if self.elision_hook is None:
            return False
        return self.elision_hook(lock, op)

    def any_racing(self) -> bool:
        return any(lock.elided for lock in self._locks.values())
