"""Pluggable tiered backing stores behind the simulated disk.

The Rio paper has exactly one persistence tier — the local SCSI disk.
This package adds the s3ql axis: an object store behind a link, free
and infallible as it stands (:mod:`repro.backend.common`), a
deterministic remote model that prices and fails its requests with
latency/bandwidth/outage weather (:mod:`repro.backend.objectstore`),
and the tiered write-back cache that glues one of them behind the disk
(:mod:`repro.backend.tiered`).  Reconciliation and verification live in
:mod:`repro.backend.fsck_remote` (s3ql-style ``--batch``/``--force``
fsck) and :mod:`repro.backend.audit` (mount the materialized remote
image on a scratch machine and replay the promise ledger).

Everything is a pure function of its seed: backends charge the
simulated machine clock, draw failures from
:class:`~repro.util.prng.DeterministicRandom`, and obey an installed
:class:`~repro.faults.capabilities.ChaosRegistry` — so campaign digests
stay bit-identical across ``--jobs`` and execution engines.
"""

from __future__ import annotations

from repro.backend.audit import (
    RemoteCheck,
    mount_materialized,
    remote_recovery_audit,
)
from repro.backend.common import (
    BackendError,
    BackendOutage,
    BackendStats,
    LocalBackend,
    TransientBackendError,
)
from repro.backend.fsck_remote import RemoteFsckReport, fsck_remote
from repro.backend.objectstore import ObjectStoreBackend
from repro.backend.tiered import TieredConfig, TieredStats, TieredStore

#: The names ``--backend`` accepts (None / omitted means no remote tier).
BACKEND_NAMES = ("local", "objectstore", "tiered")


def make_backing_store(name: str, *, disk, clock=None, seed: int = 0) -> TieredStore:
    """Build the named backing-store flavor over ``disk``.

    * ``local`` — write-through (threshold 1) over the free in-process
      backend: every remote code path runs, nothing costs or fails.
    * ``objectstore`` — write-through over the seeded remote model:
      every flush pays the remote round-trip immediately.
    * ``tiered`` — write-back over the remote model: uploads batch at
      the dirty threshold with read-ahead on the way back (the s3ql
      ``block_cache`` shape).
    """
    if name == "local":
        remote = LocalBackend(clock=clock)
        cfg = TieredConfig(dirty_threshold=1, readahead=0)
    elif name == "objectstore":
        remote = ObjectStoreBackend(seed=seed, clock=clock)
        cfg = TieredConfig(dirty_threshold=1)
    elif name == "tiered":
        remote = ObjectStoreBackend(seed=seed, clock=clock)
        cfg = TieredConfig()
    else:
        raise ValueError(f"unknown backend {name!r}; know {BACKEND_NAMES}")
    return TieredStore(disk, remote, clock=clock, config=cfg)


__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendOutage",
    "BackendStats",
    "LocalBackend",
    "ObjectStoreBackend",
    "RemoteCheck",
    "RemoteFsckReport",
    "TieredConfig",
    "TieredStats",
    "TieredStore",
    "TransientBackendError",
    "fsck_remote",
    "make_backing_store",
    "mount_materialized",
    "remote_recovery_audit",
]
