"""The ``local`` backend: the current single-tier path, wrapped.

This is the null object of the backend family — an in-process blob map
whose requests never fail transiently and whose service time defaults
to zero, so a tiered store mounted over it behaves exactly like the
existing local-disk-only stack (the local disk already paid the real
I/O cost through :mod:`repro.disk.device`; mirroring a block into this
backend is a memory copy on the same machine).  It exists so every
remote-tier code path — upload boundaries, fsck-remote, the
materialized-image audit — can be exercised without any latency or
failure model in the way.

An optional flat per-request cost (``latency_ns``) can be charged
against the machine clock for benchmarks that want the copy visible in
virtual time.
"""

from __future__ import annotations

from repro.backend.common import DictBackend


class LocalBackend(DictBackend):
    """In-process store: never fails transiently, free by default."""

    name = "local"

    def __init__(self, *, clock=None, latency_ns: int = 0) -> None:
        super().__init__(clock=clock)
        self.latency_ns = latency_ns

    def _service_ns(self, nbytes: int) -> int:
        return self.latency_ns
