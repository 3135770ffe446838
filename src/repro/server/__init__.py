"""The crash-transparent file service.

Section 7 of the paper runs a *departmental file server* on Rio with
reliability-induced writes turned off.  This package grows that story to
the ROADMAP's scale: a concurrent, multi-client file service layered on
the syscall layer that keeps serving through kernel crashes.

The pieces (one module each):

* :mod:`repro.server.protocol` — requests, responses, and the typed
  error taxonomy (retryable vs. fatal) of the admission layer.
* :mod:`repro.server.session` — per-client sessions: a fixed home
  directory and an fd table, *reconstructed* after a warm reboot (the
  backing kernel fd table dies with the kernel; the session layer
  re-opens every file).
* :mod:`repro.server.journal` — the acknowledged-write journal and the
  per-request durability audit: no acknowledged operation may ever be
  lost across a crash, and the audit proves it.
* :mod:`repro.server.scheduler` — deterministic fair queuing: many
  client streams interleaved onto the single-threaded machine with
  batched syscall execution.
* :mod:`repro.server.service` — :class:`FileService`, the assembled
  server: admission control, request execution, crash detection,
  warm-reboot recovery, session re-binding and the audit.
* :mod:`repro.server.loadgen` — the deterministic multi-client load
  generator and the one driver loop (:func:`run_load`) that drives a
  :class:`FileService` or a :class:`ClusterService` alike.
* :mod:`repro.server.router` — the deterministic consistent-hash
  router mapping absolute paths to shards.
* :mod:`repro.server.cluster` — :class:`Shard`, one kernel under
  traffic built from its :class:`ShardSpec` (the unit every campaign is
  made of), and the multi-kernel cluster: N shards (in-process or one
  worker process each) behind one router, with per-shard crash
  transparency and two-phase cross-shard renames audited by an intent log.
"""

from repro.server.protocol import (
    Backpressure,
    QuotaExceeded,
    Request,
    Response,
    ServerError,
    SessionError,
)
from repro.server.session import FdState, Session, SessionManager
from repro.server.journal import AckJournal, AuditReport
from repro.server.scheduler import RequestScheduler
from repro.server.service import CrashPoints, FileService, ServiceConfig, ServiceStats
from repro.server.loadgen import (
    LoadClient,
    LoadReport,
    LoadSpec,
    percentile,
    run_load,
)
from repro.server.router import Router
from repro.server.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterIntentLog,
    ClusterService,
    KernelSpec,
    RenameIntent,
    Shard,
    ShardSpec,
)

__all__ = [
    "Backpressure",
    "QuotaExceeded",
    "Request",
    "Response",
    "ServerError",
    "SessionError",
    "FdState",
    "Session",
    "SessionManager",
    "AckJournal",
    "AuditReport",
    "RequestScheduler",
    "CrashPoints",
    "FileService",
    "ServiceConfig",
    "ServiceStats",
    "LoadClient",
    "LoadReport",
    "LoadSpec",
    "percentile",
    "run_load",
    "Router",
    "ClusterConfig",
    "ClusterError",
    "ClusterIntentLog",
    "ClusterService",
    "KernelSpec",
    "RenameIntent",
    "Shard",
    "ShardSpec",
]
