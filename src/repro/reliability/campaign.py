"""One crash test: boot, load, inject, crash, recover, detect.

The three systems of Table 1:

* ``disk`` — the default Digital Unix kernel setup: UFS policy (sync
  metadata, async data) with memTest calling fsync after every write to
  get write-through semantics.  No registry, no warm reboot; recovery is
  fsck.  "Only memTest is used to detect corruption on disk."
* ``rio_noprot`` — reliability writes off, registry + warm reboot, no
  protection.
* ``rio_prot`` — the same plus the VM/KSEG protection mechanism.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FileSystemError, KernelPanic, ProtectionTrap, SystemCrash
from repro.faults import FaultInjector, FaultType
from repro.hw.clock import NS_PER_SEC
# SYSTEM_NAMES / system_spec_for live in repro.system; re-exported here
# because this is the path campaigns and bench/ import them from.
from repro.system import SYSTEM_NAMES, build_system, system_spec_for  # noqa: F401
from repro.util.prng import DeterministicRandom, pattern_bytes
from repro.workloads.andrew import AndrewBenchmark, AndrewParams
from repro.workloads.memtest import (
    MemTest,
    MemTestModel,
    MemTestParams,
    verify_against_model,
)

_STATIC_KEY = 0x57A71C
_STATIC_BYTES = 32 * 1024

#: Simulated-time budget after injection: the paper discards a run that
#: has not crashed ten minutes after its faults were injected.
SIM_BUDGET_S = 600.0
#: Concurrent Andrew instances beside memTest (the paper ran four).
ANDREW_COPIES = 2
#: The operation the faults are injected before is drawn from this
#: range, so the workload has cached state when they land.
INJECT_AFTER_OPS = (30, 120)


@dataclass
class CrashTestConfig:
    system: str = "rio_prot"
    fault_type: FaultType = FaultType.KERNEL_TEXT
    seed: int = 1
    #: Operation budget after injection before the run is discarded
    #: (stands in for the paper's ten-minute wall-clock budget, beside
    #: :data:`SIM_BUDGET_S`).
    max_ops_after_injection: int = 1500
    #: Keep the recovered ``System`` on the result for white-box
    #: inspection.  Off by default: the parallel campaign engine ships
    #: results between processes as JSON, which cannot carry one.
    keep_system: bool = False
    #: Record the flight-recorder event stream for the trial and attach
    #: it (serialized, with a digest) to the result.  Off by default —
    #: with it off the recorder stays disabled and results serialize
    #: exactly as before, so table1 digests are unchanged.
    trace_events: bool = False

    def to_json_dict(self) -> dict:
        """A pure-JSON description (the fault type as its value)."""
        data = dataclasses.asdict(self)
        data["fault_type"] = self.fault_type.value
        # Only serialized when set, so untraced configs — and therefore
        # table1_digest over untraced campaigns — are byte-identical to
        # what they were before the flight recorder existed.
        if not self.trace_events:
            del data["trace_events"]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "CrashTestConfig":
        """Inverse of :meth:`to_json_dict`; a key that names no field (a
        journal written by another version) raises ``ValueError``."""
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown trial config key(s) {unknown}")
        data = dict(data)
        data["fault_type"] = FaultType(data["fault_type"])
        return cls(**data)


@dataclass
class CrashTestResult:
    config: CrashTestConfig
    crashed: bool = False
    discarded: bool = False
    crash_kind: str = ""
    crash_reason: str = ""
    #: The kernel panic's numeric code (``PANIC_MESSAGES`` key), for
    #: bucketing campaign crashes by panic site; None for non-panic
    #: crashes and panics raised without a code.
    panic_code: Optional[int] = None
    ops_run: int = 0
    injected_at_op: int = -1
    memtest_progress: int = 0
    #: Corruption evidence, by detector.
    memtest_problems: list = field(default_factory=list)
    checksum_mismatches: int = 0
    static_copy_mismatch: bool = False
    recovery_failed: bool = False
    #: True when the crash was a protection trap on a page Rio guards —
    #: a prevented corruption (the paper recorded eight of these).  A
    #: trap on kernel text is a crash of that kind but no save.
    protection_trap: bool = False
    fsck_fixes: int = 0
    #: Serialized flight-recorder event stream (list of JSON dicts) and
    #: its digest, populated only when the config sets ``trace_events``.
    #: Left out of ``to_json_dict`` when None so untraced results (and
    #: table1 digests) serialize exactly as before.
    trace_events: Optional[list] = None
    event_digest: Optional[str] = None
    #: Second opinion from the independent dissect verifier, run over the
    #: post-fsck disk image of every crashed trial: the image's canonical
    #: digest, the typed findings (JSON dicts), and the fsck-vs-dissect
    #: :class:`~repro.fs.dissect.DivergenceReport` (JSON dict).  None on
    #: discarded/diskless runs; left out of ``to_json_dict`` when None.
    image_sha256: Optional[str] = None
    dissect_findings: Optional[list] = None
    divergence: Optional[dict] = None
    #: The recovered System (populated after recovery only when the
    #: config sets ``keep_system``; white-box tests inspect it).  Never
    #: serialized: ``to_json_dict`` leaves it out, ``detach`` drops it.
    _system: object = None

    @property
    def corrupted(self) -> bool:
        return bool(
            self.memtest_problems
            or self.checksum_mismatches
            or self.static_copy_mismatch
            or self.recovery_failed
        )

    @property
    def diverged(self) -> bool:
        """fsck and the dissect verifier disagreed about this trial's
        post-recovery image (always False when the verifier did not run)."""
        return bool(self.divergence) and not self.divergence["agreed"]

    def detach(self) -> "CrashTestResult":
        """Drop the live ``_system`` back-reference; returns ``self``."""
        self._system = None
        return self

    def to_json_dict(self) -> dict:
        """A pure-JSON description; the journal/worker wire format."""
        data = {
            name: value
            for name, value in self.__dict__.items()
            if name not in ("_system", "config", "memtest_problems")
            and not (
                name
                in (
                    "trace_events",
                    "event_digest",
                    "image_sha256",
                    "dissect_findings",
                    "divergence",
                )
                and value is None
            )
        }
        data["config"] = self.config.to_json_dict()
        data["memtest_problems"] = [
            {"path": p.path, "problem": p.problem} for p in self.memtest_problems
        ]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "CrashTestResult":
        from repro.workloads.memtest import CorruptionRecord

        data = dict(data)
        data["config"] = CrashTestConfig.from_json_dict(data["config"])
        data["memtest_problems"] = [
            CorruptionRecord(**p) for p in data["memtest_problems"]
        ]
        return cls(**data)


def _setup_static_files(vfs) -> None:
    """Two identical copies of a file nothing modifies (section 3.2's
    final corruption check)."""
    vfs.mkdir("/static")
    payload = pattern_bytes(_STATIC_KEY, 0, _STATIC_BYTES)
    for name in ("copy1", "copy2"):
        fd = vfs.open(f"/static/{name}", create=True)
        vfs.write(fd, payload)
        # The paper's static copies pre-exist on stable storage; make
        # them durable before any fault is armed.
        vfs.fsync(fd)
        vfs.close(fd)


def _check_static_files(fs) -> bool:
    """Returns True when the static copies are damaged or differ."""
    expected = pattern_bytes(_STATIC_KEY, 0, _STATIC_BYTES)
    try:
        contents = [
            fs.read(fs.namei(f"/static/{name}"), 0, _STATIC_BYTES)
            for name in ("copy1", "copy2")
        ]
    except FileSystemError:
        return True
    return contents[0] != contents[1] or contents[0] != expected


def dissect_second_opinion(system, reboot, result: CrashTestResult) -> None:
    """Run the independent verifier over the post-fsck disk image.

    Populates ``image_sha256``, ``dissect_findings`` and ``divergence``
    on the result.  Runs at the one point in the trial where the on-disk
    state is supposed to be consistent — immediately after
    ``System.reboot`` (fsck has repaired, nothing has re-dirtied the
    caches) — because on a live Rio system the disk is *legitimately*
    stale between flushes and a mid-run scan would prove nothing.
    """
    from repro.fs.dissect import second_opinion, snapshot

    report, divergence = second_opinion(snapshot(system.disk), reboot.fsck)
    result.image_sha256 = report.image_sha256
    result.dissect_findings = [f.to_json_dict() for f in report.findings]
    result.divergence = divergence.to_json_dict()


def run_crash_test(
    config: CrashTestConfig, *, baseline_stop: Optional[int] = None
) -> CrashTestResult:
    """Execute one fault-injection run end to end.

    With ``baseline_stop`` set, the run becomes a *forensic baseline*: the
    fault is never injected (everything else — seeds, workload streams,
    even the rng draw that picks the injection point — is identical) and
    the run halts once ``op_index`` reaches the stop.  Diffing a faulted
    trial's event stream against its baseline's pinpoints the first store
    the fault influenced.
    """
    from repro.obs import events_digest

    result = CrashTestResult(config=config)
    rng = DeterministicRandom(config.seed ^ 0xC0FFEE)
    spec = system_spec_for(config.system)
    system = build_system(spec)
    vfs, kernel = system.vfs, system.kernel

    recorder = system.machine.recorder
    if config.trace_events:
        recorder.start()

    def finish(res: CrashTestResult) -> CrashTestResult:
        """Capture the event stream onto the result (all return paths)."""
        if config.trace_events:
            res.trace_events = recorder.to_json_list()
            res.event_digest = events_digest(res.trace_events)
            recorder.stop()
        return res

    memtest = MemTest(
        vfs, config.seed, MemTestParams(fsync_every_write=config.system == "disk")
    )
    memtest.setup()
    _setup_static_files(vfs)
    andrews = [
        AndrewBenchmark(
            vfs,
            kernel,
            AndrewParams(root=f"/andrew{i}", seed=config.seed * 31 + i, dirs=2, files_per_dir=4),
        )
        for i in range(ANDREW_COPIES)
    ]
    streams = [memtest.ops()] + [a.ops() for a in andrews]

    injector = FaultInjector(kernel, config.seed)
    inject_at = rng.randint(*INJECT_AFTER_OPS)
    injected = False
    deadline_ns: Optional[int] = None
    op_index = 0

    while True:
        if baseline_stop is not None:
            if op_index >= baseline_stop:
                result.discarded = True  # baseline: ran clean to the stop
                break
        elif injected:
            if (
                op_index - inject_at > config.max_ops_after_injection
                or system.clock.now_ns > deadline_ns
            ):
                result.discarded = True  # survived the budget: discard
                break
        if baseline_stop is None and op_index == inject_at:
            if recorder.enabled:
                recorder.emit(
                    "trial",
                    "inject",
                    at_op=inject_at,
                    fault=str(config.fault_type.value),
                    seed=config.seed,
                )
            injector.inject(config.fault_type)
            injected = True
            result.injected_at_op = inject_at
            deadline_ns = system.clock.now_ns + int(SIM_BUDGET_S * NS_PER_SEC)
        stream = streams[op_index % len(streams)]
        thunk = next(stream)
        try:
            thunk()
        except SystemCrash as crash:
            result.crashed = True
            result.crash_reason = str(crash)
            result.crash_kind = (
                system.machine.crash_log[-1].kind if system.machine.crash_log else "panic"
            )
            result.protection_trap = (
                result.crash_kind == "protection_trap"
                and isinstance(crash, ProtectionTrap)
                and system.rio is not None
                and system.rio.protection.guards(crash.address)
            )
            if isinstance(crash, KernelPanic):
                result.panic_code = crash.code
            break
        except FileSystemError:
            pass  # a failed op (e.g. transient ENOSPC) is not a crash
        op_index += 1
    result.ops_run = op_index
    result.memtest_progress = memtest.progress
    if not result.crashed:
        return finish(result)

    # -- recovery ----------------------------------------------------------
    # A recovery that crashes or fails a file-system check is the trial's
    # outcome; any other exception is the harness's own fault and escapes.
    try:
        reboot = system.reboot()
    except (SystemCrash, FileSystemError):
        result.recovery_failed = True
        return finish(result)
    # Second opinion before any detection I/O can dirty the caches: the
    # independent dissect verifier walks the image exactly as fsck left it.
    dissect_second_opinion(system, reboot, result)
    result.fsck_fixes = reboot.fsck.fix_count
    if reboot.fsck.unrecoverable:
        result.recovery_failed = True
        return finish(result)
    if reboot.warm is not None:
        result.checksum_mismatches = len(reboot.warm.checksum_mismatches)

    # -- detection ------------------------------------------------------------
    model, in_flight = MemTestModel.replay(
        config.seed, memtest.progress, memtest.params
    )
    try:
        result.memtest_problems = verify_against_model(system.fs, model, in_flight)
    except FileSystemError:
        result.recovery_failed = True
    result.static_copy_mismatch = _check_static_files(system.fs)
    if config.keep_system:
        result._system = system  # kept for white-box inspection in tests
    return finish(result)


def run_baseline_trace(config: CrashTestConfig, stop_at_op: int) -> list:
    """Re-run a trial's exact configuration with injection suppressed.

    Returns the serialized baseline event stream, halted at
    ``stop_at_op`` (pass the faulted trial's ``ops_run + 1`` so the
    baseline fully executes the operation the faulted run died inside).
    """
    cfg = dataclasses.replace(config, trace_events=True, keep_system=False)
    res = run_crash_test(cfg, baseline_stop=stop_at_op)
    return res.trace_events or []
