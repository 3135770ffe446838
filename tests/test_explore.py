"""The exhaustive crash-point explorer: spec clauses, boundary
enumeration, and the end-to-end sweep.

Three layers:

* **Spec units** — every clause of the declared crash-consistency spec
  is constructed in both a violating and a clean configuration, with no
  live system underneath (the clauses skip absent fields by contract).
* **Enumeration** — the boundary extractor over hand-built streams, and
  the golden cross-engine check: both execution engines enumerate the
  identical boundary list (same digest, same census) for one seed.
* **The stopped trial** — a sweep's trial, whose recorder stops at the
  crash, against a fully recorded trial on sampled boundaries: same
  verdict, same virtual time.
* **End to end** — a full sweep of the small basic workload: 100%
  coverage, zero violations on the clean rio_prot kernel, a serial
  report digest identical to the ``--jobs 4`` digest, and a checkpoint
  journal that resumes without re-running anything.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.backend import BackendError
from repro.errors import FileSystemError, NotADirectory, SystemCrash
from repro.explore import (
    Boundary,
    CrashContext,
    ExploreConfig,
    boundary_census,
    default_spec,
    enumerate_boundaries,
    explore,
    run_boundary_trial,
    run_enumeration,
)
from repro.explore.spec import (
    AckedDataDurable,
    FsckDissectAgree,
    MetadataAtomic,
    RecoverySucceeds,
    ShadowPagesNeverTorn,
)
from repro.explore.explorer import _trial
from repro.system import System


def ctx(**kwargs) -> CrashContext:
    base = dict(workload="unit", seed=3, event_index=17)
    base.update(kwargs)
    return CrashContext(**base)


class TestRecoverySucceeds:
    def test_violates_on_recovery_error(self):
        details = RecoverySucceeds().check(ctx(recovery_error="reboot failed: boom"))
        assert details == ["recovery failed: reboot failed: boom"]

    def test_violates_on_unrecoverable_fsck(self):
        reboot = SimpleNamespace(fsck=SimpleNamespace(unrecoverable=True))
        assert "unrecoverable" in RecoverySucceeds().check(ctx(reboot=reboot))[0]

    def test_clean(self):
        reboot = SimpleNamespace(fsck=SimpleNamespace(unrecoverable=False))
        assert RecoverySucceeds().check(ctx(reboot=reboot)) == []
        assert RecoverySucceeds().check(ctx()) == []  # no reboot: skip


class TestAckedDataDurable:
    def test_violates_per_lost_ack(self):
        details = AckedDataDurable().check(ctx(lost=["file /a: gone", "dir /b"]))
        assert len(details) == 2
        assert details[0] == "lost acknowledgement: file /a: gone"

    def test_clean(self):
        assert AckedDataDurable().check(ctx()) == []


class _FakeVFS:
    """A namespace of dirs (name -> child list) and plain files."""

    def __init__(self, dirs, broken=()):
        self.dirs = dirs
        self.broken = set(broken)
        self.reads = []

    def readdir(self, path):
        self.reads.append(path)
        if path in self.broken:
            raise FileSystemError(f"torn directory {path}")
        if path in self.dirs:
            return list(self.dirs[path])
        raise NotADirectory(path)

    def stat(self, path):
        if path in self.broken:
            raise FileSystemError(f"unreachable inode {path}")
        return SimpleNamespace(path=path)


class TestMetadataAtomic:
    def test_violates_on_unreadable_directory(self):
        vfs = _FakeVFS({"/": ["d"], "/d": []}, broken=["/d"])
        details = MetadataAtomic().check(ctx(system=SimpleNamespace(vfs=vfs)))
        assert details and "failed after recovery" in details[0]

    def test_clean_walk(self):
        vfs = _FakeVFS({"/": ["d", "f"], "/d": ["g"]})
        assert MetadataAtomic().check(ctx(system=SimpleNamespace(vfs=vfs))) == []
        # Breadth first, each directory listed once (its probe is its read).
        assert vfs.reads == ["/", "/d", "/f", "/d/g"]

    def test_details_in_walk_order(self):
        vfs = _FakeVFS({"/": ["a", "b"], "/a": ["x"], "/b": []}, broken=["/a/x", "/b"])
        assert MetadataAtomic().check(ctx(system=SimpleNamespace(vfs=vfs))) == [
            "stat /b failed after recovery: unreachable inode /b",
            "stat /a/x failed after recovery: unreachable inode /a/x",
        ]
        vfs = _FakeVFS({}, broken=["/"])
        assert MetadataAtomic().check(ctx(system=SimpleNamespace(vfs=vfs))) == [
            "readdir / failed after recovery: torn directory /"
        ]

    def test_skips_without_a_system(self):
        assert MetadataAtomic().check(ctx()) == []


class TestShadowPagesNeverTorn:
    def test_violates_on_checksum_mismatch(self):
        reboot = SimpleNamespace(warm=SimpleNamespace(checksum_mismatches=[4, 9]))
        details = ShadowPagesNeverTorn().check(ctx(reboot=reboot))
        assert details == ["warm reboot found 2 torn page(s) (registry slot(s) 4, 9)"]

    def test_clean(self):
        reboot = SimpleNamespace(warm=SimpleNamespace(checksum_mismatches=[]))
        assert ShadowPagesNeverTorn().check(ctx(reboot=reboot)) == []
        assert ShadowPagesNeverTorn().check(ctx()) == []


class TestFsckDissectAgree:
    def test_violates_on_divergence(self):
        divergence = SimpleNamespace(agreed=False, details=["fsck blessed garbage"])
        details = FsckDissectAgree().check(ctx(divergence=divergence))
        assert details == ["fsck/dissect divergence: fsck blessed garbage"]

    def test_clean(self):
        agreed = SimpleNamespace(agreed=True, details=[])
        assert FsckDissectAgree().check(ctx(divergence=agreed)) == []
        assert FsckDissectAgree().check(ctx()) == []  # no scan ran: skip


class TestCrashSpec:
    def test_default_spec_clause_order(self):
        assert default_spec().clause_ids() == [
            "recovery-succeeds",
            "acked-data-durable",
            "metadata-atomic",
            "shadow-never-torn",
            "fsck-dissect-agree",
            "remote-tier-consistent",
        ]

    def test_violations_carry_the_replay_identity(self):
        violations = default_spec().check(
            ctx(lost=["file /a"], recovery_error="x", workload="basic", seed=9)
        )
        assert {v.clause for v in violations} == {
            "recovery-succeeds",
            "acked-data-durable",
        }
        for violation in violations:
            assert (violation.seed, violation.event_index) == (9, 17)
            assert violation.workload == "basic"
            round_tripped = type(violation).from_json_dict(violation.to_json_dict())
            assert round_tripped == violation


def ev(seq, kind, op, **payload):
    return {"seq": seq, "kind": kind, "op": op, "vtime": 0, "payload": payload}


class TestEnumeration:
    def test_extracts_only_boundary_events(self):
        stream = [
            ev(0, "syscall", "write", phase="enter"),
            ev(1, "cache", "write", page=1),
            ev(2, "wb", "flush", page=1),
            ev(3, "shadow", "begin-write", slot=2),
            ev(4, "shadow", "end-write", slot=2),
            ev(5, "registry", "update", slot=2),
            ev(6, "server", "ack", req=0),
            ev(7, "trap", "protection", page=1),
        ]
        boundaries = enumerate_boundaries(stream)
        assert [b.index for b in boundaries] == [1, 2, 3, 4, 5, 6]
        assert boundaries[0] == Boundary(index=1, kind="cache", op="write")
        census = boundary_census(boundaries)
        assert census == {
            "cache/write": 1,
            "registry/update": 1,
            "server/ack": 1,
            "shadow/begin-write": 1,
            "shadow/end-write": 1,
            "wb/flush": 1,
        }

    def test_boundary_round_trips(self):
        boundary = Boundary(index=12, kind="shadow", op="end-write")
        assert Boundary.from_json_dict(boundary.to_json_dict()) == boundary
        assert boundary.key() == "shadow/end-write"

    def test_enumeration_golden_across_engines(self, monkeypatch):
        """Both execution engines enumerate the identical crash-point
        list for one seed: same stream digest, same census — the
        foundation of the (seed, event_index) replay identity."""
        results = {}
        for fast in (True, False):
            monkeypatch.setenv("RIO_FAST_PATH", "1" if fast else "0")
            config = ExploreConfig(workload="basic", ops=1, seed=5)
            enumeration = run_enumeration(config)
            results[fast] = (
                enumeration.digest,
                boundary_census(enumeration.boundaries),
                [b.to_json_dict() for b in enumeration.boundaries],
            )
        assert results[True] == results[False]
        digest, census, boundaries = results[True]
        assert len(boundaries) > 100
        # The taxonomy the sweep must cover on a rio system (a rio
        # cache never writes back, so wb/flush is absent by design).
        for key in (
            "cache/write",
            "cache/fill",
            "registry/update",
            "shadow/begin-write",
            "shadow/end-write",
        ):
            assert census[key] > 0, f"lost the {key} boundary kind"
        assert "wb/flush" not in census


class TestRecoveryRule:
    def test_a_harness_error_in_reboot_escapes_the_trial(self, monkeypatch):
        """Table 1's rule: only a crash or a file-system error out of the
        reboot is the trial's outcome (a ``recovery_error``, hence a
        violation); any other exception is the harness's and escapes."""
        config = ExploreConfig(workload="basic", ops=0)
        boundary = run_enumeration(config).boundaries[0]

        def broken_reboot(self, **kwargs):
            raise RuntimeError("harness bug")

        monkeypatch.setattr(System, "reboot", broken_reboot)
        with pytest.raises(RuntimeError, match="harness bug"):
            run_boundary_trial(config, boundary)

    @pytest.mark.parametrize(
        "error", [BackendError("store lost"), RuntimeError("harness bug")],
        ids=["backend", "harness"],
    )
    def test_only_a_simulated_failure_in_the_remote_audit_is_a_violation(
        self, monkeypatch, error
    ):
        """The same rule for the remote-tier audit after the reboot."""
        config = ExploreConfig(workload="basic", ops=0, backend="local")
        boundary = run_enumeration(config).boundaries[0]

        def audit(system, journal):
            raise error

        monkeypatch.setattr("repro.backend.audit.remote_recovery_audit", audit)
        if isinstance(error, RuntimeError):
            with pytest.raises(RuntimeError, match="harness bug"):
                run_boundary_trial(config, boundary)
        else:
            verdict = run_boundary_trial(config, boundary)
            assert [v.detail for v in verdict.violations] == [
                "remote audit error: remote audit failed: BackendError: store lost"
            ]

    def test_a_reboot_that_crashes_is_a_violation(self, monkeypatch):
        config = ExploreConfig(workload="basic", ops=0)
        boundary = run_enumeration(config).boundaries[0]

        def crashing_reboot(self, **kwargs):
            raise SystemCrash("reboot crashed")

        monkeypatch.setattr(System, "reboot", crashing_reboot)
        verdict = run_boundary_trial(config, boundary)
        assert [(v.clause, v.detail) for v in verdict.violations] == [
            ("recovery-succeeds", "recovery failed: reboot failed: SystemCrash: reboot crashed")
        ]


#: The configurations the stopped trial is checked on: each system the
#: spec distinguishes, the tiered backend, the planted ack bug (whose
#: ack boundaries violate) and the traffic workload on the disk policy.
STOPPED_CONFIGS = [
    ExploreConfig("basic", "rio_prot", ops=2),
    ExploreConfig("basic", "disk", ops=2),
    ExploreConfig("basic", "rio_noprot", ops=2),
    ExploreConfig("basic", backend="tiered", ops=0),
    ExploreConfig("traffic", clients=1, ops_per_client=3, plant_ack_bug=True),
    ExploreConfig("traffic", "disk", clients=1, ops_per_client=2),
]


def sampled_boundaries(config, stride_picks: int = 3):
    """The last boundary of every kind, plus ``stride_picks`` spread
    over the whole run."""
    boundaries = run_enumeration(config).boundaries
    by_kind = {}
    for boundary in boundaries:
        by_kind.setdefault(boundary.key(), []).append(boundary)
    picks = {b.index: b for b in boundaries[:: max(1, len(boundaries) // stride_picks)]}
    picks.update((group[-1].index, group[-1]) for group in by_kind.values())
    return [picks[index] for index in sorted(picks)]


class TestStoppedTrial:
    @pytest.mark.parametrize(
        "config", STOPPED_CONFIGS,
        ids=lambda c: f"{c.workload}-{c.system}-{c.backend or 'local'}"
        + ("-ackbug" if c.plant_ack_bug else ""),
    )
    def test_the_sweep_trial_matches_a_fully_recorded_trial(self, config):
        """The recorder off after the crash moves registry stores onto
        their known-effect route and skips every emission; neither may
        change what the trial concludes or the virtual time it reaches."""
        violating = 0
        for boundary in sampled_boundaries(config):
            stopped, stopped_run = _trial(config, boundary, record_all=False)
            recorded, recorded_run = _trial(config, boundary, record_all=True)
            assert stopped.canonical_json_dict() == recorded.canonical_json_dict()
            assert stopped_run.system.clock.now_ns == recorded_run.system.clock.now_ns
            assert stopped_run.recorder.events()[-1].seq == boundary.index  # the armed event
            assert recorded_run.recorder.events()[-1].seq > boundary.index
            violating += bool(stopped.violations)
        if config.plant_ack_bug or config.system == "disk" and config.workload == "basic":
            assert violating, "the sample lost the violating boundaries"


@pytest.mark.slow
class TestEndToEnd:
    def test_sweep_serial_equals_parallel(self, tmp_path):
        """Full sweep of the small basic workload: 100% coverage, zero
        violations on the clean kernel, and a report digest identical
        between the serial and the ``--jobs 4`` sweep.  Re-running
        against the checkpoint re-runs nothing and keeps the digest."""
        config = ExploreConfig(workload="basic", ops=0)
        checkpoint = str(tmp_path / "explore.jsonl")

        serial = explore(config, jobs=1, checkpoint=checkpoint)
        assert serial.complete and serial.coverage_percent == 100.0
        assert serial.violations == []
        assert serial.executed == serial.boundaries_total
        assert serial.crashed_count == serial.boundaries_total

        parallel = explore(config, jobs=4)
        assert parallel.complete and parallel.violations == []
        assert parallel.report_digest() == serial.report_digest()

        resumed = explore(config, jobs=1, checkpoint=checkpoint)
        assert resumed.executed == 0
        assert resumed.from_checkpoint == serial.boundaries_total
        assert resumed.report_digest() == serial.report_digest()

    def test_acknowledged_rename_survives_every_crash_point(self):
        """Seed 40's clean run acknowledges a ``rename``.  A crash between
        the rename's two directory updates used to be retried into a POSIX
        no-op and acknowledged with the old name still there (5
        ``acked-data-durable`` violations); the service now finishes the
        interrupted rename before it acks."""
        config = ExploreConfig("traffic", clients=1, ops_per_client=2, seed=40)
        report = explore(config, jobs=2)
        assert report.complete and report.coverage_percent == 100.0
        assert report.violations == []
