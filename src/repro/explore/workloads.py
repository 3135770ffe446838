"""The explorer's workloads: deterministic drivers with a durability model.

A workload is everything the explorer needs to (a) run once under the
flight recorder to enumerate boundaries and (b) re-run to any boundary,
crash, recover, and hand the spec a :class:`~repro.explore.spec.CrashContext`:

* ``basic`` — a scripted single-caller VFS workload (mkdir/create/
  write/fsync/rename/unlink) whose durability model is a bare
  :class:`~repro.server.journal.AckJournal`: every completed operation
  is recorded as a promise, the operation in flight at the crash is
  passed to the audit as ``inflight`` so its partial effects are
  adopted rather than miscounted.
* ``traffic`` — a :class:`~repro.server.service.FileService` under
  seeded :mod:`~repro.server.loadgen` clients, so *acknowledged-write
  durability* is in spec scope: the service absorbs the crash, recovers
  in line, and its own audit trail feeds the spec.  The
  ``plant_ack_bug`` knob switches on the service's deliberately planted
  ``ack_before_execute`` ordering bug for the counterexample tests.

Every run is a pure function of :class:`ExploreConfig`: same config,
same event stream, same verdicts — on either execution engine, at any
job count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CrashedMachineError, FileSystemError, SystemCrash
from repro.fs.dissect import second_opinion, snapshot
from repro.reliability.campaign import system_spec_for
from repro.server.journal import AckJournal
from repro.server.loadgen import LoadClient, LoadSpec, run_load
from repro.server.service import FileService, ServiceConfig
from repro.system import build_system
from repro.util.prng import DeterministicRandom, pattern_bytes

from repro.explore.spec import CrashContext

WORKLOAD_NAMES = ("basic", "traffic")


@dataclass(frozen=True)
class ExploreConfig:
    """Everything that shapes one exploration (the determinism contract)."""

    workload: str = "basic"
    #: "disk" | "rio_noprot" | "rio_prot" (the spec assumes Rio semantics;
    #: exploring "disk" is allowed and is expected to violate durability).
    system: str = "rio_prot"
    seed: int = 1
    fs_blocks: int = 192
    #: basic: seeded write rounds between the fixed prologue/epilogue.
    ops: int = 8
    #: traffic: clients and programs per client.
    clients: int = 2
    ops_per_client: int = 4
    #: traffic: switch on the service's planted ack-before-execute bug.
    plant_ack_bug: bool = False
    #: Tiered backing store behind the disk ("local" | "objectstore" |
    #: "tiered"), or None for the classic single-tier stack.  With a
    #: backend the workload epilogue drains the upload queue, so the
    #: enumeration also yields ``backend/upload``/``backend/commit``
    #: boundaries and the spec's remote-tier clause engages.
    backend: Optional[str] = None
    #: Recorder ring capacity; enumeration requires zero eviction.
    event_cap: int = 1 << 20

    def to_json_dict(self) -> Dict[str, Any]:
        """Wire form (worker payloads, checkpoint fingerprints)."""
        return {
            "workload": self.workload,
            "system": self.system,
            "seed": self.seed,
            "fs_blocks": self.fs_blocks,
            "ops": self.ops,
            "clients": self.clients,
            "ops_per_client": self.ops_per_client,
            "plant_ack_bug": self.plant_ack_bug,
            "backend": self.backend,
            "event_cap": self.event_cap,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ExploreConfig":
        """Inverse of :meth:`to_json_dict`."""
        return cls(**data)


class _RunBase:
    """Shared skeleton: build the system, drive, recover, contextualize."""

    def __init__(self, config: ExploreConfig) -> None:
        self.config = config
        spec = system_spec_for(config.system, fs_blocks=config.fs_blocks)
        if config.backend is not None:
            spec = replace(
                spec, backend=config.backend, backend_seed=config.seed
            )
        self.system = build_system(spec)
        self.recorder = self.system.machine.recorder
        self.crashed = False
        self.completed = False
        self.recovery_error: Optional[str] = None
        self.reboot = None
        self.lost: List[str] = []
        self.image: Optional[bytes] = None
        self.dissect = None
        self.divergence = None
        self.remote = None

    def execute(self) -> None:
        raise NotImplementedError

    def _journal(self):
        """The durability model backing the remote audit (or None)."""
        return None

    def _drain_backend_epilogue(self) -> None:
        """With a backend: flush and drain at the end of a clean run.

        This is the administrative durability point (the paper's
        footnote-1 toggle) that turns the clean enumeration run into an
        upload producer even under the Rio policy, whose sync/fsync are
        no-ops — without it a rio-system exploration would enumerate no
        ``backend/*`` boundaries at all.  Gated on the backend so runs
        without one replay today's event streams byte for byte.
        """
        if self.system.backing is None or self.system.disk is None:
            return
        self.system.settle()
        self.system.backing.drain_uploads()

    def _remote_check(self) -> None:
        """Run the remote-tier recovery audit once (crashed runs only)."""
        if self.remote is not None or self.system.backing is None:
            return
        if not self.crashed or self.reboot is None or self.recovery_error is not None:
            return
        journal = self._journal()
        if journal is None:
            return
        from repro.backend.audit import RemoteCheck, remote_recovery_audit

        try:
            self.remote = remote_recovery_audit(self.system, journal)
        except Exception as exc:  # the spec turns this into a violation
            self.remote = RemoteCheck(
                error=f"remote audit failed: {type(exc).__name__}: {exc}"
            )

    def _scan_disk(self) -> None:
        """The independent second opinion over the recovered durable state.

        The campaign scans the image exactly as fsck left it; the
        explorer's spec judges something stronger — that the *recovered
        system's* durable image is structurally consistent.  On Rio the
        post-crash disk legitimately holds stale partial flushes (a dir
        block written before its dot entries, say) that fsck tolerates
        and recovery supersedes from the registry-restored cache, so the
        recovered file system is flushed to disk first and dissect walks
        what the recovered reality would persist.  Any anomaly in *that*
        image is a genuine inconsistency in the recovered state — unless
        fsck's own fix list already disclosed the damage at the same
        location (``second_opinion(..., disclosed=True)``), in which case
        the two judges agree and only the full report records the defect.
        """
        fsck = self.reboot.fsck
        if self.system.disk is None or fsck is None:
            return
        self.system.settle()
        self.image = snapshot(self.system.disk)
        self.dissect, self.divergence = second_opinion(self.image, fsck, disclosed=True)

    def context(self, event_index: int, kind: str = "?", op: str = "?") -> CrashContext:
        self._remote_check()
        return CrashContext(
            workload=self.config.workload,
            seed=self.config.seed,
            event_index=event_index,
            boundary_kind=kind,
            boundary_op=op,
            system=self.system,
            reboot=self.reboot,
            recovery_error=self.recovery_error,
            lost=list(self.lost),
            dissect=self.dissect,
            divergence=self.divergence,
            remote=self.remote,
        )


class _BasicRun(_RunBase):
    """The scripted single-caller workload over a bare AckJournal model."""

    def __init__(self, config: ExploreConfig) -> None:
        super().__init__(config)
        self.model = AckJournal()
        self._fds: Dict[str, int] = {}
        self._inflight: Optional[dict] = None

    # -- the script ----------------------------------------------------

    def _steps(self):
        """Yield ``(inflight_desc, thunk)`` pairs; thunks record into the
        model only *after* the VFS call succeeded (a promise is an
        acknowledgement, never an intention)."""
        vfs = self.system.vfs
        model = self.model
        fds = self._fds
        rng = DeterministicRandom(self.config.seed ^ 0xB0A2D)

        def mkdir(path: str) -> Tuple[dict, Any]:
            def thunk():
                vfs.mkdir(path)
                model.record(0, 0, "mkdir", path)

            return {"op": "mkdir", "path": path}, thunk

        def open_create(path: str) -> Tuple[dict, Any]:
            def thunk():
                fds[path] = vfs.open(path, create=True)
                model.record(0, 0, "open", path)

            return {"op": "open", "path": path}, thunk

        def write(path: str, offset: int, size: int, salt: int) -> Tuple[dict, Any]:
            data = pattern_bytes(self.config.seed ^ salt, offset, size)

            def thunk():
                vfs.pwrite(fds[path], data, offset)
                model.record(0, 0, "write", path, offset=offset, data=data)

            return (
                {"op": "write", "path": path, "offset": offset, "length": size},
                thunk,
            )

        def fsync(path: str) -> Tuple[dict, Any]:
            def thunk():
                vfs.fsync(fds[path])

            return {"op": "fsync", "path": path}, thunk

        def close(path: str) -> Tuple[dict, Any]:
            def thunk():
                vfs.close(fds.pop(path))

            return {"op": "close", "path": path}, thunk

        def rename(old: str, new: str) -> Tuple[dict, Any]:
            def thunk():
                vfs.rename(old, new)
                model.record(0, 0, "rename", old, new_path=new)

            return {"op": "rename", "path": old, "new_path": new}, thunk

        def unlink(path: str) -> Tuple[dict, Any]:
            def thunk():
                vfs.unlink(path)
                model.record(0, 0, "unlink", path)

            return {"op": "unlink", "path": path}, thunk

        yield mkdir("/w")
        yield mkdir("/w/sub")
        files = ["/w/a", "/w/b", "/w/sub/c"]
        for path in files:
            yield open_create(path)
        for round_no in range(self.config.ops):
            path = files[rng.randrange(len(files))]
            offset = rng.randrange(4096)
            size = rng.randint(100, 1200)
            yield write(path, offset, size, round_no + 1)
            if round_no % 4 == 3:
                yield fsync(path)
        yield close("/w/b")
        yield rename("/w/b", "/w/b2")
        yield open_create("/w/tmp")
        yield write("/w/tmp", 0, 300, 0x7E4)
        yield close("/w/tmp")
        yield unlink("/w/tmp")
        yield fsync("/w/a")

    # -- drive ----------------------------------------------------------

    def _journal(self):
        return self.model

    def execute(self) -> None:
        for desc, thunk in self._steps():
            self._inflight = desc
            try:
                thunk()
            except (SystemCrash, CrashedMachineError):
                self.crashed = True
                self._recover()
                return
        # The epilogue drain is administrative: nothing is in flight,
        # so a crash inside it loses no promise.
        self._inflight = None
        try:
            self._drain_backend_epilogue()
        except (SystemCrash, CrashedMachineError):
            self.crashed = True
            self._recover()
            return
        self.completed = True

    def _recover(self) -> None:
        try:
            self.reboot = self.system.reboot()
        except Exception as exc:
            self.recovery_error = f"reboot failed: {type(exc).__name__}: {exc}"
            return
        self._scan_disk()
        try:
            audit = self.model.audit(self.system.vfs, inflight=self._inflight)
        except FileSystemError as exc:
            self.recovery_error = f"audit failed: {type(exc).__name__}: {exc}"
            return
        self.lost = list(audit.lost)


class _TrafficRun(_RunBase):
    """The file service under seeded load; the service recovers in line."""

    service: Optional[FileService] = None

    def _journal(self):
        return self.service.journal if self.service is not None else None

    def execute(self) -> None:
        config = self.config
        # The scan hook registers first so the post-fsck image is
        # captured on every recovery, service-driven or not.
        self.system.add_reboot_hook(self._on_reboot_scan)
        service = None
        try:
            service = FileService(
                self.system,
                ServiceConfig(
                    queue_depth=8,
                    batch_size=8,
                    quantum=2,
                    ack_before_execute=config.plant_ack_bug,
                ),
            )
            spec = LoadSpec(
                ops_per_client=config.ops_per_client,
                files_per_client=2,
                write_bytes=(64, 512),
                max_file_bytes=4096,
                pipeline=2,
            )
            self.service = service
            clients = [
                LoadClient(client_id, config.seed, spec)
                for client_id in range(config.clients)
            ]
            run_load(service, clients)
            self._drain_backend_epilogue()
            self.completed = True
        except (SystemCrash, CrashedMachineError):
            # The crash escaped service-guarded code (session setup, the
            # service's own construction): recover here instead.
            self.crashed = True
            if service is not None:
                try:
                    service.recover(None)
                except FileSystemError as exc:
                    self.recovery_error = (
                        f"recovery failed: {type(exc).__name__}: {exc}"
                    )
            else:
                try:
                    self.reboot = self.system.reboot()
                except Exception as exc:
                    self.recovery_error = (
                        f"reboot failed: {type(exc).__name__}: {exc}"
                    )
        except FileSystemError as exc:
            # In-line recovery itself died (reboot/audit raised).
            self.crashed = True
            self.recovery_error = f"recovery failed: {type(exc).__name__}: {exc}"
        if service is None:
            return
        if service.stats.crashes_detected > 0:
            self.crashed = True
        for audit in service.stats.audits:
            self.lost.extend(audit.lost)
        if self.completed:
            self.lost.extend(service.audit().lost)

    def _on_reboot_scan(self, system, report) -> None:
        """Reboot hook: capture the recovery report and scan the image."""
        if self.reboot is None:
            self.reboot = report
            self._scan_disk()


def build_run(config: ExploreConfig) -> _RunBase:
    """Instantiate the named workload (fresh system, nothing run yet)."""
    if config.workload == "basic":
        return _BasicRun(config)
    if config.workload == "traffic":
        return _TrafficRun(config)
    raise ValueError(
        f"unknown workload {config.workload!r}; know {WORKLOAD_NAMES}"
    )
