"""The multi-kernel cluster: routing, crash transparency, determinism.

The contracts under test, in the order the module docstring states
them: the router is a pure function of the path (and balances), a
shard's kernel crash is invisible to clients (zero lost acks, storm
acked == calm acked), the cluster digest is bit-identical across
``jobs`` and across execution engines, and the cross-shard rename —
the one operation no single shard journal covers — moves the bytes,
settles its intent record, and survives crashes landed inside its
two-phase window.
"""

import multiprocessing
import os
import signal
from dataclasses import replace

import pytest

from repro.obs.events import FlightRecorder
from repro.server import (
    ClusterConfig,
    ClusterError,
    ClusterService,
    FileService,
    LoadClient,
    LoadSpec,
    Request,
    Router,
    run_load,
)
from repro.reliability import (
    TrafficConfig,
    rolling_crash_points,
    run_traffic_campaign,
)
from repro.system import build_system, system_spec_for

LIGHT = LoadSpec(ops_per_client=15, files_per_client=2)


def _drive(cluster, client_ids, requests):
    """Submit raw requests, drain, and index responses by req id."""
    for client_id in client_ids:
        cluster.open_session(client_id)
    responses = {}
    for request in requests:
        rejection = cluster.submit(request)
        assert rejection is None, rejection
    for response in cluster.drain():
        responses[(response.client_id, response.req_id)] = response
    return responses


# -- router ------------------------------------------------------------


def test_router_is_deterministic_and_pure():
    a = Router(4, mode="hash")
    b = Router(4, mode="hash")
    paths = [f"/srv/c{c:03d}/f{i}" for c in range(32) for i in range(4)]
    assert [a.shard_for(p) for p in paths] == [b.shard_for(p) for p in paths]
    for p in paths:
        assert 0 <= a.shard_for(p) < 4


def test_router_dir_mode_colocates_directories():
    router = Router(8, mode="dir")
    for c in range(64):
        home = f"/srv/c{c:03d}"
        shards = {router.shard_for(f"{home}/f{i}") for i in range(8)}
        assert len(shards) == 1, f"{home} split across {shards}"


def test_router_hash_mode_scatters_and_balances():
    router = Router(4, mode="hash")
    paths = [f"/srv/c{c:03d}/f{i}" for c in range(64) for i in range(8)]
    counts = router.spread(paths)
    assert all(count > 0 for count in counts)
    # Consistent hashing with 64 vnodes/shard: no shard owns more than
    # half of 512 well-mixed keys.
    assert max(counts) < len(paths) // 2
    # And one directory's files really do scatter.
    assert len({router.shard_for(f"/srv/c000/f{i}") for i in range(8)}) > 1


def test_router_rejects_bad_config():
    with pytest.raises(ValueError):
        Router(0)
    with pytest.raises(ValueError):
        Router(2, vnodes=0)
    with pytest.raises(ValueError):
        Router(2, mode="range")


# -- basic service behaviour ------------------------------------------


def test_cluster_serves_load_with_zero_failures():
    with ClusterService(ClusterConfig(shards=2, router_mode="dir")) as cluster:
        clients = [LoadClient(c, seed=11, spec=LIGHT) for c in range(6)]
        report = run_load(cluster, clients)
        assert report.failed == 0
        assert report.acked > 0
        audits = cluster.audits()
        assert all(audit["ok"] for audit in audits)
        assert cluster.audit_intents()["ok"]


def test_cluster_matches_single_service_ack_count():
    """One driver, any target: ``run_load`` drives a bare FileService
    and clusters of 1, 2 and 3 shards to completion, and sharding
    changes placement, never outcomes — the same seeded load acks the
    same number of operations everywhere."""

    def drive(target):
        clients = [LoadClient(c, seed=5, spec=LIGHT) for c in range(4)]
        report = run_load(target, clients)
        assert all(client.done for client in clients)
        assert report.failed == 0
        assert report.wall_virtual_ns > 0
        return report

    single = drive(FileService(build_system(system_spec_for("rio_prot", fs_blocks=2048))))
    assert set(single.digests) == {"ack_digest", "state_digest"}
    counts = [single.acked]
    for shards in (1, 2, 3):
        with ClusterService(
            ClusterConfig(shards=shards, router_mode="hash")
        ) as cluster:
            report = drive(cluster)
            assert set(report.digests) == {"cluster_digest", "intent_digest"}
            assert report.digests["cluster_digest"] == cluster.cluster_digest()
            counts.append(report.acked)
    assert len(set(counts)) == 1, counts


def test_readdir_fans_out_and_merges_sorted_union():
    cluster = ClusterService(ClusterConfig(shards=3, router_mode="hash"))
    with cluster:
        reqs = [
            Request(client_id=0, req_id=1, op="open", path="alpha", create=True),
            Request(client_id=0, req_id=2, op="open", path="beta", create=True),
            Request(client_id=0, req_id=3, op="open", path="gamma", create=True),
        ]
        responses = _drive(cluster, [0], reqs)
        for r in range(1, 4):
            assert responses[(0, r)].ok
        # The three files scatter in hash mode; readdir must still see
        # one coherent, sorted directory.
        spread = {
            cluster.router.shard_for(f"/srv/c000/{n}")
            for n in ("alpha", "beta", "gamma")
        }
        assert len(spread) > 1
        listing = _drive(
            cluster, [0], [Request(client_id=0, req_id=9, op="readdir", path=".")]
        )[(0, 9)]
        assert listing.ok
        assert listing.value == ["alpha", "beta", "gamma"]


# -- directories: rmdir, chdir, rename ----------------------------------

ROUTER_MODES = pytest.mark.parametrize("mode", Router.MODES)


def _shells(cluster, path):
    """Which shards hold ``path`` (asked of each kernel directly)."""
    probes = cluster._fanout_step("stat", path)
    return [probe.value["exists"] for probe in probes]


@ROUTER_MODES
def test_rmdir_probes_every_shard_before_it_removes_any_shell(mode):
    with ClusterService(ClusterConfig(shards=3, router_mode=mode)) as cluster:
        setup = _drive(
            cluster,
            [0],
            [
                Request(client_id=0, req_id=1, op="mkdir", path="d"),
                Request(client_id=0, req_id=2, op="open", path="d/f", create=True),
                Request(client_id=0, req_id=3, op="rmdir", path="d"),
            ],
        )
        assert setup[(0, 1)].ok and setup[(0, 2)].ok
        refused = setup[(0, 3)]
        assert not refused.ok and refused.error == "ENOTEMPTY"
        # One shard holds the file; the shells on the other two survive.
        assert _shells(cluster, "/srv/c000/d") == [True, True, True]

        emptied = _drive(
            cluster,
            [0],
            [
                Request(client_id=0, req_id=4, op="close", fd=setup[(0, 2)].value),
                Request(client_id=0, req_id=5, op="unlink", path="d/f"),
                Request(client_id=0, req_id=6, op="rmdir", path="d"),
                Request(client_id=0, req_id=7, op="rmdir", path="d"),
            ],
        )
        assert emptied[(0, 6)].ok
        assert _shells(cluster, "/srv/c000/d") == [False, False, False]
        assert emptied[(0, 7)].error == "ENOENT"
        assert all(audit["ok"] for audit in cluster.audits())


@ROUTER_MODES
def test_chdir_is_front_end_state_checked_against_the_owning_shard(mode):
    with ClusterService(ClusterConfig(shards=3, router_mode=mode)) as cluster:
        responses = _drive(
            cluster,
            [0],
            [
                Request(client_id=0, req_id=1, op="mkdir", path="d"),
                Request(client_id=0, req_id=2, op="chdir", path="d"),
                Request(client_id=0, req_id=3, op="open", path="f", create=True),
                Request(client_id=0, req_id=4, op="chdir", path="nowhere"),
                Request(client_id=0, req_id=5, op="stat", path="f"),
            ],
        )
        assert responses[(0, 2)].ok and responses[(0, 2)].value == "/srv/c000/d"
        assert responses[(0, 3)].ok
        assert responses[(0, 4)].error == "ENOENT"
        assert cluster.sessions[0].cwd == "/srv/c000/d"
        assert responses[(0, 5)].value == {"exists": True, "size": 0}
        owner = cluster.router.shard_for("/srv/c000/d/f")
        assert _shells(cluster, "/srv/c000/d/f") == [s == owner for s in range(3)]


def test_front_end_admission_rejects_strangers_and_full_queues():
    with ClusterService(ClusterConfig(shards=2)) as cluster:
        stranger = cluster.submit(Request(client_id=9, req_id=1, op="stat", path="x"))
        assert stranger.error == "EBADSESSION" and not stranger.retryable
        cluster.open_session(0)
        depth = cluster.scheduler.queue_depth
        for n in range(depth):
            assert cluster.submit(Request(client_id=0, req_id=n, op="stat", path="x")) is None
        full = cluster.submit(Request(client_id=0, req_id=depth, op="stat", path="x"))
        assert full.error == "EAGAIN" and full.retryable
        assert cluster.stats.rejected == 2 and cluster.stats.submitted == depth
        assert len(cluster.drain()) == depth
        assert cluster.submit(Request(client_id=0, req_id=depth + 1, op="stat", path="x")) is None


@ROUTER_MODES
def test_directory_rename_moves_empty_shells_in_lock_step_and_refuses_populated_ones(mode):
    """Entries are placed by their path, so renaming a populated
    directory's shells would strand them on shards the new name does not
    route to: the front-end refuses (``EXDEV``) instead of acknowledging."""
    with ClusterService(ClusterConfig(shards=2, router_mode=mode)) as cluster:
        setup = _drive(
            cluster,
            [1],
            [
                Request(client_id=1, req_id=1, op="mkdir", path="d"),
                Request(client_id=1, req_id=2, op="open", path="d/f", create=True),
            ],
        )
        fd = setup[(1, 2)].value
        responses = _drive(
            cluster,
            [1],
            [
                Request(client_id=1, req_id=3, op="write", fd=fd, offset=0, data=b"stays"),
                Request(client_id=1, req_id=4, op="rename", path="d", new_path="e"),
                Request(client_id=1, req_id=5, op="read", fd=fd, offset=0, length=5),
                Request(client_id=1, req_id=6, op="mkdir", path="g"),
                Request(client_id=1, req_id=7, op="rename", path="g", new_path="h"),
                Request(client_id=1, req_id=8, op="open", path="h/x", create=True),
                Request(client_id=1, req_id=9, op="readdir", path="."),
                Request(client_id=1, req_id=10, op="rename", path="h", new_path="i"),
            ],
        )
        assert responses[(1, 4)].error == "EXDEV"
        assert responses[(1, 5)].value == b"stays"
        assert _shells(cluster, "/srv/c001/d") == [True, True]
        assert _shells(cluster, "/srv/c001/e") == [False, False]

        assert responses[(1, 7)].ok
        assert _shells(cluster, "/srv/c001/g") == [False, False]
        assert _shells(cluster, "/srv/c001/h") == [True, True]
        assert responses[(1, 8)].ok  # the renamed shell takes files on its owner
        assert responses[(1, 9)].value == ["d", "h"]
        assert responses[(1, 10)].error == "EXDEV"  # ... and is a directory still

        audits = cluster.audits()
        assert all(audit["ok"] and audit["lost"] == [] for audit in audits), audits
        assert cluster.audit_intents()["ok"]


# -- determinism -------------------------------------------------------


def _campaign(jobs=1, crashes=0):
    return run_traffic_campaign(
        TrafficConfig(
            shards=2,
            clients=6,
            crashes=crashes,
            seed=11,
            router_mode="hash",
            jobs=jobs,
            load=LIGHT,
        )
    )


def test_digest_identical_across_jobs():
    inline = _campaign(jobs=1, crashes=1)
    processes = _campaign(jobs=2, crashes=1)
    assert inline.cluster_digest == processes.cluster_digest
    assert inline.to_json_dict()["acked"] == processes.to_json_dict()["acked"]
    assert inline.ok and processes.ok


def test_digest_identical_across_engines(monkeypatch):
    monkeypatch.setenv("RIO_FAST_PATH", "0")
    reference = _campaign(crashes=1)
    monkeypatch.setenv("RIO_FAST_PATH", "1")
    hot = _campaign(crashes=1)
    assert reference.cluster_digest == hot.cluster_digest
    assert reference.ok and hot.ok


# -- crash transparency ------------------------------------------------


def test_rolling_storm_loses_nothing_and_acks_match_calm():
    calm = _campaign(crashes=0)
    storm = _campaign(crashes=2)
    assert storm.ok, storm.to_json_dict()
    assert storm.lost_acks == 0
    assert storm.recoveries >= 2
    assert storm.load.acked == calm.load.acked
    # Crash transparency means the acknowledged history is identical —
    # digest and all — not merely the same size.
    assert storm.cluster_digest == calm.cluster_digest


def test_virtual_throughput_grows_with_the_shard_count():
    """N shards each execute ~1/N of the requests, so the slowest
    shard's virtual clock — the cluster's elapsed time — advances ~1/N
    as far.  The floors sit well below linear: 64 directory keys over
    the ring leave keys-to-bins imbalance (measured 1.77x / 2.75x /
    4.10x)."""
    throughput = {}
    for shards in (1, 2, 4, 8):
        result = run_traffic_campaign(
            TrafficConfig(
                shards=shards,
                clients=64,
                crashes=0,
                seed=7,
                fs_blocks=4096,
                load=LoadSpec(
                    ops_per_client=6,
                    files_per_client=2,
                    max_file_bytes=4096,
                    write_bytes=(64, 512),
                ),
            )
        )
        assert result.ok, result.to_json_dict()
        throughput[shards] = result.load.throughput_ops_per_vsec
    for shards, floor in {2: 1.3, 4: 2.0, 8: 2.5}.items():
        assert throughput[shards] > floor * throughput[1], throughput


def test_rolling_crash_points_stagger_one_shard_at_a_time():
    config = TrafficConfig(shards=4, clients=32, crashes=2, load=LIGHT)
    points = rolling_crash_points(config)
    assert set(points) == {0, 1, 2, 3}
    # Interleaved: sorting every (point, shard) pair by point must
    # alternate shards, never the same shard twice in a row.
    flat = sorted(
        (point, shard) for shard, shard_points in points.items()
        for point in shard_points
    )
    shards_in_order = [shard for _, shard in flat]
    assert shards_in_order == [0, 1, 2, 3, 0, 1, 2, 3]


# -- cross-shard rename ------------------------------------------------


def _cross_shard_pair(cluster, client_id=0):
    """Find two names in the client's home that route to different
    shards under the hash router."""
    home = f"/srv/c{client_id:03d}"
    src = f"{home}/src"
    src_shard = cluster.router.shard_for(src)
    for n in range(1000):
        dst = f"{home}/dst{n}"
        if cluster.router.shard_for(dst) != src_shard:
            return "src", f"dst{n}", src_shard, cluster.router.shard_for(dst)
    raise AssertionError("no cross-shard pair found in 1000 candidates")


def test_cross_shard_rename_moves_bytes_and_settles_intent():
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, _, _ = _cross_shard_pair(cluster)
        payload = b"rio pages survive the warm reboot" * 100
        responses = _drive(
            cluster,
            [0],
            [
                Request(client_id=0, req_id=1, op="open", path=src, create=True),
            ],
        )
        fd = responses[(0, 1)].value
        responses = _drive(
            cluster,
            [0],
            [
                Request(client_id=0, req_id=2, op="write", fd=fd, offset=0,
                        data=payload),
                Request(client_id=0, req_id=3, op="close", fd=fd),
                Request(client_id=0, req_id=4, op="rename", path=src,
                        new_path=dst),
                Request(client_id=0, req_id=5, op="stat", path=src),
                Request(client_id=0, req_id=6, op="stat", path=dst),
                Request(client_id=0, req_id=7, op="open", path=dst),
            ],
        )
        assert responses[(0, 4)].ok, responses[(0, 4)]
        assert responses[(0, 5)].value == {"exists": False}
        assert responses[(0, 6)].value["size"] == len(payload)
        new_fd = responses[(0, 7)].value
        got = _drive(
            cluster,
            [0],
            [
                Request(client_id=0, req_id=8, op="read", fd=new_fd, offset=0,
                        length=len(payload)),
            ],
        )[(0, 8)]
        assert got.value == payload
        assert cluster.stats.cross_renames == 1
        assert [i.state for i in cluster.intents.records] == ["done"]
        assert cluster.audit_intents()["ok"]
        assert all(audit["ok"] for audit in cluster.audits())


def _fill_shard(cluster, shard, first_req_id):
    """Write filler files routed to ``shard`` until it answers ENOSPC."""
    names = (f"fill{n}" for n in range(1000))
    req_id = first_req_id
    while True:
        name = next(n for n in names if cluster.router.shard_for(f"/srv/c000/{n}") == shard)
        opened = _drive(
            cluster, [0], [Request(client_id=0, req_id=req_id, op="open", path=name, create=True)]
        )[(0, req_id)]
        req_id += 1
        offset = 0
        while opened.ok:
            wrote = _drive(
                cluster, [0],
                [Request(client_id=0, req_id=req_id, op="write", fd=opened.value,
                         offset=offset, data=b"\xaa" * 65536)],
            )[(0, req_id)]
            req_id += 1
            if not wrote.ok:
                assert wrote.error == "ENOSPC"
                break
            offset += 65536
        if offset == 0:
            return req_id


@pytest.mark.parametrize(
    "config, error, retryable",
    [
        pytest.param(dict(fs_blocks=192), "ENOSPC", False, id="destination-full"),
        pytest.param(
            dict(chaos=(dict(name="fail_nth_syscall", routine="read", nth=2, times=1),)),
            "ECHAOS", True, id="source-read-denied",
        ),
    ],
)
def test_failed_cross_shard_copy_leaves_the_source_intact(config, error, retryable):
    """A copy step that fails before ``copied`` — the destination's write
    hitting a full disk, the second of four source reads denied by chaos
    — used to be ignored: the rename answered ``ok``, unlinked the source
    and left an empty (or 64 KiB) destination, every audit clean."""
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash", **config))
    with cluster:
        cluster.open_session(0)
        src, dst, _, dst_shard = _cross_shard_pair(cluster)
        payload = bytes(range(256)) * 1024
        fd = _drive(
            cluster, [0], [Request(client_id=0, req_id=1, op="open", path=src, create=True)]
        )[(0, 1)].value
        wrote = _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=2, op="write", fd=fd, offset=0, data=payload),
                Request(client_id=0, req_id=3, op="close", fd=fd),
            ],
        )
        assert wrote[(0, 2)].ok
        req_id = _fill_shard(cluster, dst_shard, 10) if error == "ENOSPC" else 10
        rename = Request(client_id=0, req_id=req_id, op="rename", path=src, new_path=dst)
        refused = _drive(cluster, [0], [rename])[(0, req_id)]
        assert (refused.ok, refused.error, refused.retryable) == (False, error, retryable)
        assert [i.state for i in cluster.intents.records] == ["aborted"]
        assert cluster.stats.cross_rename_failures == 1
        checks = _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=req_id + 1, op="stat", path=dst),
                Request(client_id=0, req_id=req_id + 2, op="open", path=src),
            ],
        )
        assert checks[(0, req_id + 1)].value == {"exists": False}
        read = Request(
            client_id=0, req_id=req_id + 3, op="read", offset=0, length=len(payload),
            fd=checks[(0, req_id + 2)].value,
        )
        assert _drive(cluster, [0], [read])[(0, req_id + 3)].value == payload
        assert cluster.audit_intents()["ok"]
        assert all(audit["ok"] for audit in cluster.audits())
        if retryable:
            again = replace(rename, req_id=req_id + 4)
            assert _drive(cluster, [0], [again])[(0, req_id + 4)].ok
            moved = Request(client_id=0, req_id=req_id + 5, op="stat", path=dst)
            assert _drive(cluster, [0], [moved])[(0, req_id + 5)].value["size"] == len(payload)
            assert cluster.audit_intents()["ok"]


def test_cross_shard_rename_stales_open_descriptors():
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, _, _ = _cross_shard_pair(cluster)
        responses = _drive(
            cluster, [0],
            [Request(client_id=0, req_id=1, op="open", path=src, create=True)],
        )
        fd = responses[(0, 1)].value
        _drive(
            cluster, [0],
            [Request(client_id=0, req_id=2, op="rename", path=src, new_path=dst)],
        )
        # The bytes moved to another kernel; the old descriptor cannot
        # follow (documented: like an NFS handle after a migration).
        stale = _drive(
            cluster, [0],
            [Request(client_id=0, req_id=3, op="write", fd=fd, offset=0,
                     data=b"x")],
        )[(0, 3)]
        assert not stale.ok
        assert stale.error == "EBADSESSION"


def test_cross_shard_rename_survives_crash_in_two_phase_window():
    """A source-shard kernel crash between copy and unlink: the shard
    recovers in line, the unlink re-executes, the intent settles."""
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, src_shard, _ = _cross_shard_pair(cluster)
        fired = []

        def crash_in_window(phase, intent):
            if phase == "pre-unlink" and not fired:
                fired.append(intent)
                cluster.hosts[src_shard].shard.system.machine.crash(
                    "test: crash inside the rename window", kind="forced"
                )

        cluster.rename_hook = crash_in_window
        responses = _drive(
            cluster, [0],
            [Request(client_id=0, req_id=1, op="open", path=src, create=True)],
        )
        fd = responses[(0, 1)].value
        responses = _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=2, op="write", fd=fd, offset=0,
                        data=b"crossing kernels"),
                Request(client_id=0, req_id=3, op="close", fd=fd),
                Request(client_id=0, req_id=4, op="rename", path=src,
                        new_path=dst),
                Request(client_id=0, req_id=5, op="stat", path=src),
                Request(client_id=0, req_id=6, op="stat", path=dst),
            ],
        )
        assert fired, "crash hook never fired"
        assert responses[(0, 4)].ok
        assert responses[(0, 5)].value == {"exists": False}
        assert responses[(0, 6)].value["size"] == len(b"crossing kernels")
        assert [i.state for i in cluster.intents.records] == ["done"]
        snaps = cluster.snapshots()
        assert snaps[src_shard]["recoveries"] == 1
        assert sum(s["lost_acks"] for s in snaps) == 0
        assert cluster.audit_intents()["ok"]


def _rename_across_shards(cluster, client_id=0):
    """Create a file, move it across shards; returns the two absolute
    paths and their shards with the intent settled ``done``."""
    src, dst, src_shard, dst_shard = _cross_shard_pair(cluster, client_id)
    responses = _drive(
        cluster,
        [client_id],
        [Request(client_id=client_id, req_id=1, op="open", path=src, create=True)],
    )
    responses = _drive(
        cluster,
        [client_id],
        [
            Request(client_id=client_id, req_id=2, op="close", fd=responses[(client_id, 1)].value),
            Request(client_id=client_id, req_id=3, op="rename", path=src, new_path=dst),
        ],
    )
    assert responses[(client_id, 3)].ok
    assert [i.state for i in cluster.intents.records] == ["done"]
    home = f"/srv/c{client_id:03d}"
    return f"{home}/{src}", f"{home}/{dst}", src_shard, dst_shard


@pytest.mark.parametrize(
    "later",
    [
        pytest.param(lambda src, dst: [dict(op="unlink", path=dst)], id="unlink-destination"),
        pytest.param(
            lambda src, dst: [dict(op="rename", path=dst, new_path=dst + "-again")],
            id="rename-destination-away",
        ),
        pytest.param(
            lambda src, dst: [dict(op="open", path=src, create=True)], id="recreate-source"
        ),
        pytest.param(
            lambda src, dst: [dict(op="rename", path=dst, new_path=src)], id="rename-back"
        ),
        pytest.param(lambda src, dst: [dict(op="mkdir", path=src)], id="mkdir-at-source"),
    ],
)
def test_done_intent_is_not_audited_past_a_later_acknowledged_change(later):
    """The hash-router false alarm: a ``done`` rename's post-condition
    describes the namespace at completion, not for ever.  Once the
    front-end acknowledges an operation that removes the destination or
    re-creates the source, the final namespace no longer owes it."""
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, _, _ = _rename_across_shards(cluster)
        assert cluster.audit_intents()["ok"]  # binds while nothing touched it
        requests = [
            Request(client_id=0, req_id=10 + n, **fields)
            for n, fields in enumerate(later(src, dst))
        ]
        responses = _drive(cluster, [0], requests)
        assert all(r.ok for r in responses.values()), responses
        audit = cluster.audit_intents()
        assert audit["ok"], audit["violations"]
        assert all(shard_audit["ok"] for shard_audit in cluster.audits())


def test_change_behind_the_front_ends_back_is_still_a_violation():
    """Only what the front-end acknowledged lifts a post-condition."""
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, src_shard, dst_shard = _rename_across_shards(cluster)
        # Straight on the shards, bypassing pump() and its finishers.
        assert cluster._internal_step(
            dst_shard, cluster._internal_request("unlink", path=dst)
        ).ok
        assert cluster._internal_step(
            src_shard, cluster._internal_request("open", path=src, create=True)
        ).ok
        audit = cluster.audit_intents()
        assert not audit["ok"]
        assert audit["violations"] == [
            f"intent 0: destination {dst} missing after completion",
            f"intent 0: source {src} resurrected after completion",
        ]


def test_failed_later_operation_lifts_nothing():
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, _, dst_shard = _rename_across_shards(cluster)
        refused = _drive(
            cluster, [0], [Request(client_id=0, req_id=10, op="unlink", path=src)]
        )[(0, 10)]
        assert not refused.ok  # the source is gone: ENOENT, nothing acknowledged
        cluster._internal_step(dst_shard, cluster._internal_request("unlink", path=dst))
        assert not cluster.audit_intents()["ok"]


def test_hash_router_clean_run_reports_zero_lost_acks():
    """`repro cluster --shards 4 --clients 64 --ops 16 --router hash
    --jobs 1 --seed 7`: client 11 renames f0 -> r1_0 across shards and
    later r1_0 -> r2_0; that used to end `ACKS LOST` with 0 lost acks."""
    from repro.reliability import format_traffic_report

    result = run_traffic_campaign(
        TrafficConfig(
            shards=4,
            clients=64,
            crashes=0,
            seed=7,
            router_mode="hash",
            jobs=1,
            load=LoadSpec(ops_per_client=16),
        )
    )
    assert result.crashes_observed == 0 and result.lost_acks == 0
    assert result.intent_audit["intents"] == 20
    assert result.intent_audit["ok"], result.intent_audit["violations"]
    assert result.ok and result.failed_checks == []
    assert "ZERO LOST ACKS" in format_traffic_report(result)


def test_verdict_names_the_audit_that_failed():
    from repro.reliability import format_traffic_report
    from repro.reliability.traffic import TrafficResult

    result = TrafficResult(
        config=TrafficConfig(shards=2, clients=2, router_mode="hash"),
        final_audit_ok=True,
        intent_audit={
            "intents": 1,
            "ok": False,
            "violations": ["intent 0: destination /srv/c000/x missing after completion"],
        },
    )
    assert not result.ok and result.failed_checks == ["intent audit"]
    report = format_traffic_report(result)
    assert "verdict         FAILED: intent audit" in report
    assert "intent 0: destination /srv/c000/x missing after completion" in report
    assert "ACKS LOST" not in report
    result.lost_acks = 2
    assert result.failed_checks == ["lost acks", "intent audit"]


def test_intent_audit_rolls_forward_interrupted_rename():
    """The front-end dies after the copy but before the unlink: the
    intent is stuck at "copied" and the audit finishes the job."""
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, _, _ = _cross_shard_pair(cluster)

        class FrontEndDied(Exception):
            pass

        def die(phase, intent):
            if phase == "pre-unlink":
                raise FrontEndDied

        cluster.rename_hook = die
        responses = _drive(
            cluster, [0],
            [Request(client_id=0, req_id=1, op="open", path=src, create=True)],
        )
        fd = responses[(0, 1)].value
        _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=2, op="write", fd=fd, offset=0,
                        data=b"halfway"),
                Request(client_id=0, req_id=3, op="close", fd=fd),
            ],
        )
        cluster.submit(
            Request(client_id=0, req_id=4, op="rename", path=src, new_path=dst)
        )
        with pytest.raises(FrontEndDied):
            cluster.drain()
        cluster.rename_hook = None
        assert [i.state for i in cluster.intents.records] == ["copied"]
        audit = cluster.audit_intents()
        assert audit["rolled_forward"] == 1
        assert audit["ok"], audit
        # The destination holds the bytes, the source is gone.
        check = _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=5, op="stat", path=src),
                Request(client_id=0, req_id=6, op="stat", path=dst),
            ],
        )
        assert check[(0, 5)].value == {"exists": False}
        assert check[(0, 6)].value["size"] == len(b"halfway")


def test_intent_audit_rolls_back_unstarted_rename():
    """The front-end dies before the copy: the audit aborts the intent
    and the source file is untouched."""
    cluster = ClusterService(ClusterConfig(shards=2, router_mode="hash"))
    with cluster:
        cluster.open_session(0)
        src, dst, _, _ = _cross_shard_pair(cluster)

        class FrontEndDied(Exception):
            pass

        def die(phase, intent):
            if phase == "pre-copy":
                raise FrontEndDied

        cluster.rename_hook = die
        responses = _drive(
            cluster, [0],
            [Request(client_id=0, req_id=1, op="open", path=src, create=True)],
        )
        fd = responses[(0, 1)].value
        _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=2, op="write", fd=fd, offset=0,
                        data=b"never moved"),
                Request(client_id=0, req_id=3, op="close", fd=fd),
            ],
        )
        cluster.submit(
            Request(client_id=0, req_id=4, op="rename", path=src, new_path=dst)
        )
        with pytest.raises(FrontEndDied):
            cluster.drain()
        cluster.rename_hook = None
        audit = cluster.audit_intents()
        assert audit["rolled_back"] == 1
        assert audit["ok"], audit
        check = _drive(
            cluster, [0],
            [
                Request(client_id=0, req_id=5, op="stat", path=src),
                Request(client_id=0, req_id=6, op="stat", path=dst),
            ],
        )
        assert check[(0, 5)].value["size"] == len(b"never moved")
        assert check[(0, 6)].value == {"exists": False}


# -- worker death ------------------------------------------------------


def test_dead_shard_worker_is_a_typed_error():
    """Process death is a power failure, which Rio does not survive — but
    it reaches the caller as a ClusterError naming the shard, not as a
    raw BrokenPipeError/EOFError, and nothing is left running."""
    cluster = ClusterService(ClusterConfig(shards=2), jobs=2)
    try:
        victim = cluster.hosts[1]._process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        with pytest.raises(ClusterError, match="shard 1 worker died"):
            cluster.snapshots()
    finally:
        cluster.close()
        cluster.close()  # idempotent, dead worker or not
    # A worker that cannot even build its shard: the constructor fails
    # typed and reaps the workers it had already started.
    with pytest.raises(ClusterError, match="worker died"):
        ClusterService(ClusterConfig(shards=2, system="no-such-system"), jobs=2)
    assert multiprocessing.active_children() == []


# -- observability -----------------------------------------------------


def test_flight_recorder_static_tags_merge_into_payloads():
    recorder = FlightRecorder()
    recorder.static_tags["shard"] = 3
    recorder.start()
    recorder.emit("server", "ack", client=1)
    recorder.emit("server", "crash-detected")
    events = recorder.events()
    assert all(event.payload["shard"] == 3 for event in events)
    assert events[0].payload["client"] == 1
    # Explicit payload keys win over static tags.
    recorder.emit("server", "ack", shard=9)
    assert recorder.events()[-1].payload["shard"] == 9


def test_cluster_events_carry_shard_tags():
    cluster = ClusterService(
        ClusterConfig(shards=2, router_mode="dir", trace_events=True)
    )
    with cluster:
        clients = [LoadClient(c, seed=3, spec=LIGHT) for c in range(2)]
        run_load(cluster, clients)
        for shard, events in enumerate(cluster._gather("events")):
            assert events, f"shard {shard} recorded nothing"
            assert all(
                event["payload"].get("shard") == shard for event in events
            )
