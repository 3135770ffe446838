"""The tiered backing store: protocol, write-back tier, crash matrix.

Four layers of coverage:

* the :class:`LocalBackend` protocol itself — key validation, the typed
  transient/outage error split, the deterministic failure model of the
  simulated object store;
* the write-back tier — upload batching, content-hash dedup with
  refcounts, the snapshot-once drain invariant, crash semantics of the
  kernel-memory queue;
* the seeded outage matrix — crash with stranded uploads, object store
  down through the reboot (reconcile defers, as declared), heal, one
  ``batch`` pass reconciles, and fsck-remote's verdict agrees with the
  independent dissect of the materialized image;
* determinism — the ``local`` backend changes nothing (bit-identical
  digests vs. no backend), tiered campaigns are engine-pure, and the
  explorer's sweep digest is identical at any worker count.
"""

import hashlib

import pytest

from repro.backend import (
    BackendError,
    BackendOutage,
    LocalBackend,
    ObjectStoreBackend,
    ObjectStoreConfig,
    TieredConfig,
    TieredStore,
    TransientBackendError,
    make_backing_store,
)
from repro.backend.audit import mount_materialized, remote_recovery_audit
from repro.backend.fsck_remote import fsck_remote
from repro.backend.tiered import content_hash, obj_key
from repro.fs.types import SECTORS_PER_BLOCK
from repro.hw.clock import Clock
from repro.reliability import TrafficConfig, run_traffic_campaign
from repro.reliability.campaign import system_spec_for
from repro.server import LoadSpec
from repro.system import build_system

BLOCK = 8192


def _tiered_system(seed=1, fs_blocks=256, backend="tiered", system="rio_prot"):
    spec = system_spec_for(
        system, fs_blocks=fs_blocks, backend=backend, backend_seed=seed
    )
    return build_system(spec)


def _churn(system, prefix, count=10, stride=1):
    system.vfs.mkdir(prefix)
    for i in range(count):
        fd = system.vfs.open(f"{prefix}/f{i}", create=True)
        system.vfs.write(fd, bytes([(i * stride) % 256]) * (400 + 96 * i))
        system.vfs.close(fd)
    _flush(system)


def _flush(system):
    system.fs.flush_data(sync=True)
    system.fs.flush_metadata(sync=True)
    system.drain_disks()


def _hold_queue(store):
    """Raise the drain threshold so flushes queue but never upload."""
    from dataclasses import replace

    store.config = replace(store.config, dirty_threshold=10**9)


def _release_queue(store):
    from dataclasses import replace

    store.config = replace(store.config, dirty_threshold=8)


class TestBackendProtocol:
    def test_key_validation(self):
        backend = LocalBackend()
        for bad in ("", "a\nb", "x" * 300):
            with pytest.raises(BackendError):
                backend.put(bad, b"data")
            with pytest.raises(BackendError):
                backend.get(bad)

    def test_dict_roundtrip_and_digest(self):
        a, b = LocalBackend(), LocalBackend()
        for backend in (a, b):
            backend.put("obj/x", b"one")
            backend.put("map/1", b"two")
        assert a.get("obj/x") == b"one"
        assert a.list("obj/") == ["obj/x"]
        assert a.digest() == b.digest()
        b.delete("map/1")
        assert a.digest() != b.digest()
        b.delete("map/1")  # idempotent
        assert a.stats.puts == 2 and a.stats.gets == 1

    def test_local_backend_is_free(self):
        clock = Clock()
        backend = LocalBackend()
        backend.attach(clock)
        before = clock.now_ns
        backend.put("obj/x", b"y" * 10000)
        backend.get("obj/x")
        assert clock.now_ns == before

    def test_objectstore_charges_virtual_time(self):
        clock = Clock()
        store = ObjectStoreBackend(ObjectStoreConfig(seed=4))
        store.attach(clock)
        before = clock.now_ns
        store.put("obj/x", b"y" * BLOCK)
        after_put = clock.now_ns
        assert after_put > before
        store.put("obj/big", b"y" * (64 * BLOCK))
        # Bandwidth term: more bytes cost more virtual time.
        assert clock.now_ns - after_put > after_put - before

    def test_objectstore_outage_hides_absence(self):
        store = ObjectStoreBackend(ObjectStoreConfig(seed=4))
        store.attach(Clock())
        store.set_down(True)
        with pytest.raises(BackendOutage):
            store.get("obj/never-stored")
        with pytest.raises(BackendOutage):
            store.put("obj/x", b"y")
        store.set_down(False)
        with pytest.raises(KeyError):
            store.get("obj/never-stored")

    def test_objectstore_fail_for_expires_with_clock(self):
        clock = Clock()
        store = ObjectStoreBackend(ObjectStoreConfig(seed=4))
        store.attach(clock)
        store.fail_for(10_000_000)
        with pytest.raises(BackendOutage):
            store.put("obj/x", b"y")
        clock.consume(10_000_001)
        store.put("obj/x", b"y")
        assert store.get("obj/x") == b"y"

    def test_objectstore_transients_are_seeded(self):
        def pattern(seed):
            store = ObjectStoreBackend(
                ObjectStoreConfig(seed=seed, transient_fail_pct=30)
            )
            store.attach(Clock())
            out = []
            for i in range(40):
                try:
                    store.put(f"obj/{i}", b"data")
                    out.append("ok")
                except TransientBackendError:
                    out.append("fail")
            return out

        first = pattern(9)
        assert first == pattern(9)
        assert "fail" in first and "ok" in first
        assert first != pattern(10)

    def test_make_backing_store_flavours(self):
        from repro.disk.device import SimulatedDisk

        for name, remote_type in (
            ("local", LocalBackend),
            ("objectstore", ObjectStoreBackend),
            ("tiered", ObjectStoreBackend),
        ):
            disk = SimulatedDisk("d", num_sectors=256 * 16)
            store = make_backing_store(name, disk=disk, clock=Clock(), seed=3)
            assert isinstance(store, TieredStore)
            assert isinstance(store.remote, remote_type)
        with pytest.raises(ValueError):
            make_backing_store("s3", disk=disk)


class TestTieredStore:
    def test_flush_uploads_and_seals(self):
        system = _tiered_system()
        store = system.backing
        _churn(system, "/a")
        store.drain_uploads()
        assert store.stats.uploads > 0
        assert not store.dirty_blocks()
        # A drain never claims the mirror: blocks written before the
        # store was installed (mkfs) reconcile on the first full scan.
        first = fsck_remote(store, batch=True)
        assert first.ok and not first.sealed and first.repairs > 0
        # Now the remote tier alone reproduces the local image, and a
        # second check rides the seal fast path.
        materialized = hashlib.sha256(store.materialize()).hexdigest()
        assert materialized == store.local_image_sha256()
        second = fsck_remote(store)
        assert second.sealed and second.ok

    def test_dedup_refcounts(self):
        system = _tiered_system()
        store = system.backing
        body = b"\x5a" * BLOCK  # exactly one block: identical data blocks
        for name in ("/one", "/two"):
            fd = system.vfs.open(name, create=True)
            system.vfs.write(fd, body)
            system.vfs.close(fd)
        _flush(system)
        store.drain_uploads()
        digest = content_hash(body)
        assert store._refs[digest] == 2
        assert store.stats.dedup_hits >= 1
        # Overwriting a *file* would let UFS allocate a fresh data block
        # and leave the old bytes in place on disk (still correctly
        # mirrored, so still referenced).  Drive the refcount
        # transitions at the block layer instead: rewrite the two
        # physical blocks that hold the shared blob.
        shared = sorted(b for b, d in store._map.items() if d == digest)
        assert len(shared) == 2
        first, second = shared
        store.disk.poke(first * SECTORS_PER_BLOCK, b"\xa5" * BLOCK)
        store.note_flush(first)
        store.drain_uploads()
        assert store._refs[digest] == 1
        # Rewrite the last holder: refcount zero deletes the blob.
        store.disk.poke(second * SECTORS_PER_BLOCK, b"\x3c" * BLOCK)
        store.note_flush(second)
        store.drain_uploads()
        assert digest not in store._refs
        assert obj_key(digest) not in store.remote.list("obj/")

    def test_drain_snapshots_dirty_set_once(self):
        """A block re-dirtied during a slow drain waits for the *next*
        drain — the in-flight batch never extends (the regression the
        flush loop fixed, realized at the upload tier)."""
        system = _tiered_system()
        store = system.backing
        _churn(system, "/a")
        batch = list(store._dirty)
        assert batch
        victim = batch[0]
        redirtied = []
        original_put = store.remote.put

        def racing_put(key, data):
            # A concurrent flush lands mid-drain: re-dirty the block the
            # drain already uploaded (and one it is about to upload).
            if not redirtied:
                redirtied.append(True)
                store.note_flush(victim)
            return original_put(key, data)

        store.remote.put = racing_put
        try:
            # Slow remote: every upload is a chance for the race to land.
            assert store.drain_uploads()
        finally:
            store.remote.put = original_put
        # The drain uploaded exactly the snapshot; the re-dirtied block
        # is queued for the next drain, not re-uploaded in this one.
        assert store.dirty_blocks() == [victim]
        assert store.drain_uploads()
        assert not store.dirty_blocks()

    def test_crash_discards_queue_and_reboot_reconciles(self):
        system = _tiered_system()
        store = system.backing
        _churn(system, "/a")
        store.drain_uploads()
        _hold_queue(store)
        _churn(system, "/b", count=6)
        assert store.dirty_blocks()
        system.crash("stranded uploads", kind="forced")
        _release_queue(store)
        report = system.reboot()
        # The queue was kernel memory: the reboot discarded it (nothing
        # was left to drain) and the mount-time reconcile healed the
        # remote tier from local truth instead.
        assert not store.dirty_blocks()
        assert report.remote is not None and report.remote.ok
        assert report.remote.repairs > 0
        materialized = hashlib.sha256(store.materialize()).hexdigest()
        assert materialized == store.local_image_sha256()

    def test_writeback_policy_drains_at_fsync(self):
        """On a write-through policy the durability point is the upload
        boundary: fsync leaves nothing in the dirty queue."""
        system = _tiered_system(system="disk")
        store = system.backing
        fd = system.vfs.open("/f", create=True)
        system.vfs.write(fd, b"durable" * 600)
        system.vfs.fsync(fd)
        system.vfs.close(fd)
        assert store.stats.uploads > 0
        assert not store.dirty_blocks()

    def test_transient_failures_retry_then_defer(self):
        system = _tiered_system()
        store = system.backing
        _churn(system, "/a", count=4)
        failures = {"left": 2}
        original_put = store.remote.put

        def flaky_put(key, data):
            if failures["left"]:
                failures["left"] -= 1
                raise TransientBackendError("blip")
            return original_put(key, data)

        store.remote.put = flaky_put
        try:
            assert store.drain_uploads()
        finally:
            store.remote.put = original_put
        assert not store.dirty_blocks()
        assert store.stats.retries >= 2

    def test_outage_defers_blocks_not_drops(self):
        system = _tiered_system()
        store = system.backing
        _churn(system, "/a", count=4)
        dirty = store.dirty_blocks()
        store.remote.set_down(True)
        assert not store.drain_uploads()
        assert store.dirty_blocks() == dirty
        assert store.stats.outage_deferrals > 0
        store.remote.set_down(False)
        assert store.drain_uploads()
        assert not store.dirty_blocks()


class TestOutageMatrix:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_crash_outage_reboot_reconcile(self, seed):
        system = _tiered_system(seed=seed)
        store = system.backing
        _churn(system, "/base", count=8, stride=seed)
        store.drain_uploads()
        _hold_queue(store)
        _churn(system, "/late", count=8, stride=seed + 1)
        assert store.dirty_blocks()
        system.crash("outage matrix", kind="forced")
        _release_queue(store)
        store.remote.set_down(True)
        report = system.reboot()
        # Reconcile during the outage defers — declared, not an error.
        assert report.remote is not None and report.remote.deferred
        store.remote.set_down(False)
        check = fsck_remote(store, batch=True, force=True)
        assert check.ok and check.repairs > 0
        # One batch pass after the heal: the remote tier alone now
        # reproduces the local disk bit for bit.
        materialized = hashlib.sha256(store.materialize()).hexdigest()
        assert materialized == store.local_image_sha256()
        # fsck-remote and the independent verifier agree about the
        # materialized image after every recovery.
        scratch, scratch_report, image = mount_materialized(store)
        from repro.fs.dissect import compare_verdicts, dissect_image

        scan = dissect_image(image)
        divergence = compare_verdicts(
            fsck_unrecoverable=scratch_report.fsck.unrecoverable,
            fsck_fix_count=scratch_report.fsck.fix_count,
            report=scan,
        )
        assert divergence.agreed, divergence.details
        assert scratch.vfs.exists("/base/f0")


class TestTrafficRemote:
    def test_tiered_campaign_zero_lost_acks(self):
        result = run_traffic_campaign(
            TrafficConfig(
                system="rio_prot",
                clients=3,
                crashes=1,
                seed=21,
                load=LoadSpec(ops_per_client=10),
                backend="tiered",
            )
        )
        assert result.ok and result.remote_ok
        assert result.remote_reconciles == 1
        assert result.remote_audit["ok"]
        assert result.remote_stats["uploads"] > 0
        data = result.to_json_dict()
        assert data["backend"] == "tiered" and data["remote_ok"]

    def test_backendless_campaign_serializes_as_before(self):
        result = run_traffic_campaign(
            TrafficConfig(
                system="rio_prot",
                clients=2,
                crashes=0,
                seed=21,
                load=LoadSpec(ops_per_client=6),
            )
        )
        data = result.to_json_dict()
        assert "backend" not in data and "remote_audit" not in data
        assert result.remote_ok  # vacuously true without a backend

    def test_local_backend_changes_nothing(self):
        def digests(backend):
            result = run_traffic_campaign(
                TrafficConfig(
                    system="rio_prot",
                    clients=2,
                    crashes=1,
                    seed=33,
                    load=LoadSpec(ops_per_client=8),
                    backend=backend,
                )
            )
            return result.ack_digest, result.state_digest

        assert digests(None) == digests("local")

    def test_tiered_campaign_engine_pure(self, monkeypatch):
        def run(fast_path):
            monkeypatch.setenv("RIO_FAST_PATH", "1" if fast_path else "0")
            return run_traffic_campaign(
                TrafficConfig(
                    system="rio_prot",
                    clients=2,
                    crashes=1,
                    seed=33,
                    load=LoadSpec(ops_per_client=8),
                    backend="tiered",
                )
            )

        hot, ref = run(True), run(False)
        assert hot.ack_digest == ref.ack_digest
        assert hot.state_digest == ref.state_digest
        assert (
            hot.remote_audit["image_sha256"] == ref.remote_audit["image_sha256"]
        )

    def test_audit_remote_raises_on_outage(self):
        """With the store unreachable the remote audit defers (never
        ``ok``); the raw mount underneath it raises."""
        system = _tiered_system()
        store = system.backing
        _churn(system, "/a", count=4)
        store.drain_uploads()
        from repro.server.journal import AckJournal

        store.remote.set_down(True)
        check = remote_recovery_audit(system, AckJournal())
        assert check.deferred and not check.ok and check.lost == []
        with pytest.raises(BackendOutage):
            mount_materialized(store)


class TestTierCost:
    """The tier's design claims, priced where the tier *is* on the
    request path: the ``disk`` policy flushes (and so uploads) as it
    goes; ``rio_prot`` never flushes before the final drain."""

    def test_flavour_cost_shape(self):
        def run(backend):
            result = run_traffic_campaign(
                TrafficConfig(
                    system="disk",
                    clients=4,
                    crashes=0,
                    seed=9,
                    load=LoadSpec(ops_per_client=15),
                    backend=backend,
                )
            )
            assert result.ok, result.to_json_dict()
            return result

        grid = {b: run(b) for b in (None, "local", "objectstore", "tiered")}
        virt = {b: r.load.wall_virtual_ns for b, r in grid.items()}
        # The local tier is free, to the nanosecond.
        assert virt["local"] == virt[None]
        # Write-back beats write-through: posted uploads overlap
        # execution, so the tiered store sits nearer to no backend at
        # all than to the store that waits for every round trip.
        assert virt[None] <= virt["tiered"] < virt["objectstore"]
        assert virt["tiered"] - virt[None] < virt["objectstore"] - virt["tiered"]
        for backend in ("objectstore", "tiered"):
            assert grid[backend].remote_stats["uploads"] > 0
        link = grid["tiered"].remote_stats["link"]
        assert link["posted_writes"] > 0
        assert link["waited_ns"] < link["service_ns"]
        link = grid["objectstore"].remote_stats["link"]
        assert link["posted_writes"] == 0
        assert link["waited_ns"] == link["service_ns"]

    def test_identical_files_share_one_object(self):
        system = _tiered_system(system="disk")
        store = system.backing
        body = b"same bytes in every file" * 300
        for i in range(24):
            fd = system.vfs.open(f"/dup{i}", create=True)
            system.vfs.write(fd, body)
            system.vfs.close(fd)
        _flush(system)
        store.drain_uploads()
        objects = len(store.remote.list("obj/"))
        assert store.stats.dedup_hits > 0
        assert objects < len(store.mapped_blocks())


class TestExploreBackend:
    def test_every_upload_boundary_survives(self):
        """The acceptance criterion: crash at every backend/upload and
        backend/commit boundary; the spec (including the remote-tier
        clause) holds at each."""
        from repro.explore.explorer import run_boundary_trial, run_enumeration
        from repro.explore.workloads import ExploreConfig

        config = ExploreConfig(
            workload="basic",
            system="rio_prot",
            seed=3,
            ops=1,
            fs_blocks=96,
            backend="tiered",
        )
        enumeration = run_enumeration(config)
        targets = [
            b for b in enumeration.boundaries if b.kind == "backend"
        ]
        assert {b.op for b in targets} == {"upload", "commit"}
        for boundary in targets:
            verdict = run_boundary_trial(config, boundary)
            assert verdict.fired
            assert not verdict.violations, [
                v.to_json_dict() for v in verdict.violations
            ]

    def test_sweep_digest_jobs_pure(self):
        from repro.explore.explorer import explore
        from repro.explore.workloads import ExploreConfig

        config = ExploreConfig(
            workload="basic",
            system="disk",
            seed=3,
            ops=2,
            fs_blocks=96,
            backend="tiered",
        )
        serial = explore(config, jobs=1)
        fanned = explore(config, jobs=2)
        assert serial.to_json_dict()["report_digest"] == (
            fanned.to_json_dict()["report_digest"]
        )
        # The disk system legitimately loses unflushed acks at crash
        # points (the paper's thesis) — but the remote tier must stay
        # consistent with the surviving local disk at every boundary.
        remote = [
            v for v in serial.violations if v.clause == "remote-tier-consistent"
        ]
        assert not remote, [v.to_json_dict() for v in remote]
