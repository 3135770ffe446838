"""The exhaustive crash-point explorer: spec clauses, boundary
enumeration, and the end-to-end sweep.

Three layers:

* **Spec units** — every clause of the declared crash-consistency spec
  is constructed in both a violating and a clean configuration, with no
  live system underneath (the clauses skip absent fields by contract).
* **Enumeration** — the boundary extractor over hand-built streams, and
  the golden cross-engine check: both execution engines enumerate the
  identical boundary list (same digest, same census) for one seed.
* **End to end** — a full sweep of the small basic workload: 100%
  coverage, zero violations on the clean rio_prot kernel, a serial
  report digest identical to the ``--jobs 4`` digest, and a checkpoint
  journal that resumes without re-running anything.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import FileSystemError, NotADirectory
from repro.explore import (
    Boundary,
    CrashContext,
    ExploreConfig,
    boundary_census,
    default_spec,
    enumerate_boundaries,
    explore,
    run_enumeration,
)
from repro.explore.spec import (
    AckedDataDurable,
    FsckDissectAgree,
    MetadataAtomic,
    RecoverySucceeds,
    ShadowPagesNeverTorn,
)


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
