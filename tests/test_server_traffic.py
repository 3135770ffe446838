"""Traffic-under-faults: crash storms against the file service.

The service-scale restatement of the paper's claim: N clients, M
mid-traffic kernel crashes, and not one acknowledged operation lost —
with the whole run a pure function of its seed on either execution
engine.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import ChaosSpec, FaultType
from repro.reliability import (
    TrafficConfig,
    TrafficResult,
    format_traffic_report,
    run_traffic_campaign,
)
from repro.server import FileService, LoadClient, LoadSpec, Shard, ShardSpec, run_load
from repro.system import build_system, system_spec_for


def small_load(ops=12):
    return LoadSpec(ops_per_client=ops)


def digest_tuple(result):
    return (
        result.ack_digest,
        result.state_digest,
        result.load.acked,
        result.load.rounds,
        result.load.wall_virtual_ns,
        result.verdict["crashes_observed"],
    )


def test_sixteen_clients_three_crashes_zero_lost_acks():
    result = run_traffic_campaign(
        TrafficConfig(system="rio_prot", clients=16, crashes=3, seed=1, load=small_load())
    )
    assert result.verdict["crashes_observed"] == 3
    assert result.verdict["recoveries"] == 3
    assert result.verdict["lost_acks"] == 0
    assert result.verdict["final_audit_ok"]
    assert result.ok
    assert result.load.acked > 16 * 12
    assert result.verdict["rebind_failures"] == 0
    report = format_traffic_report(result)
    assert "ZERO LOST ACKS" in report
    # The storm's cost is tail latency, not lost work.
    calm = run_traffic_campaign(
        TrafficConfig(system="rio_prot", clients=16, crashes=0, seed=1, load=small_load())
    )
    assert result.load.acked == calm.load.acked
    assert result.load.latency_percentile(0.99) >= calm.load.latency_percentile(0.99)


def test_storm_is_deterministic_across_runs():
    config = dict(system="rio_prot", clients=6, crashes=2, seed=21, load=small_load())
    first = run_traffic_campaign(TrafficConfig(**config))
    second = run_traffic_campaign(TrafficConfig(**config))
    assert digest_tuple(first) == digest_tuple(second)
    assert first.ok and second.ok


def test_storm_digests_are_engine_independent(monkeypatch):
    # The PR3 guarantee, load-bearing at service scale: the reference
    # and hot-path engines must produce the same acks, the same crash
    # points, the same recoveries — down to the virtual clock.
    config = dict(system="rio_prot", clients=5, crashes=2, seed=33, load=small_load(10))
    monkeypatch.setenv("RIO_FAST_PATH", "0")
    reference = run_traffic_campaign(TrafficConfig(**config))
    monkeypatch.setenv("RIO_FAST_PATH", "1")
    hot = run_traffic_campaign(TrafficConfig(**config))
    assert digest_tuple(reference) == digest_tuple(hot)
    assert reference.ok


def test_seed_changes_the_run():
    base = dict(system="rio_prot", clients=4, crashes=1, load=small_load(8))
    a = run_traffic_campaign(TrafficConfig(seed=1, **base))
    b = run_traffic_campaign(TrafficConfig(seed=2, **base))
    assert a.ack_digest != b.ack_digest


def test_fault_storm_recovers_cleanly():
    result = run_traffic_campaign(
        TrafficConfig(
            system="rio_prot",
            clients=6,
            crashes=2,
            seed=9,
            storm="faults",
            fault_type=FaultType.KERNEL_STACK,
            watchdog_budget=60,
            load=small_load(15),
        )
    )
    assert result.verdict["faults_injected"] >= 1
    # Every crash that happened was recovered with nothing lost.
    assert result.verdict["recoveries"] == result.verdict["crashes_observed"]
    assert result.verdict["lost_acks"] == 0 and result.verdict["final_audit_ok"]


def test_disk_system_loses_acks_and_repair_heals():
    # The contrast that motivates Rio: the same storm against a
    # delayed-write disk system loses acknowledged work; with
    # repair=True the service re-applies the journal and owns up to it.
    config = dict(
        system="disk", clients=6, crashes=2, seed=4, load=small_load(15)
    )
    lossy = run_traffic_campaign(TrafficConfig(repair=False, **config))
    rio = run_traffic_campaign(
        TrafficConfig(repair=False, system="rio_prot", **{k: v for k, v in config.items() if k != "system"})
    )
    assert rio.verdict["lost_acks"] == 0 and rio.ok
    assert lossy.verdict["lost_acks"] > 0 and not lossy.ok

    repaired = run_traffic_campaign(TrafficConfig(repair=True, **config))
    assert repaired.verdict["repaired_acks"] > 0
    # Repair reports the loss (honesty) but heals the state: the final
    # audit runs against the repaired file system and comes back clean.
    assert repaired.verdict["lost_acks"] > 0
    assert repaired.verdict["final_audit_ok"]


def test_unknown_storm_rejected():
    with pytest.raises(ValueError):
        run_traffic_campaign(TrafficConfig(storm="hurricane"))


def test_sixty_four_clients_stay_within_ten_x_of_sixteen():
    # The 64-client cliff stays dead: the seed repo collapsed ~158x here
    # (a fixed 48-page buffer cache plus one synchronous disk flush per
    # eviction); clustered LRU eviction and the auto-sized cache hold
    # calm throughput at 64 clients within 10x of 16 clients.
    def calm(clients):
        result = run_traffic_campaign(
            TrafficConfig(
                system="rio_prot", clients=clients, crashes=0, seed=7, load=small_load(10)
            )
        )
        assert result.ok, result.to_json_dict()
        return result.load

    load_1, load_16, load_64 = calm(1), calm(16), calm(64)
    thr_1, thr_16, thr_64 = (
        load.throughput_ops_per_vsec for load in (load_1, load_16, load_64)
    )
    assert thr_64 * 10.0 > thr_16, (thr_16, thr_64)
    # Batching amortizes the syscall prologue: an op at 16 clients costs
    # less than twice the virtual time it costs one client alone, and
    # aggregate acked work scales with the client count.
    assert thr_16 * 2.0 > thr_1, (thr_1, thr_16)
    assert load_64.acked > 10 * load_1.acked


def test_full_inode_table_fails_opens_instead_of_livelocking():
    # 14 clients want 14 homes + 56 files out of one inode block (64
    # inodes).  A client whose open hits ENOSPC used to re-plan the
    # same doomed open forever; now the slot stays closed, the failure
    # is counted, and the run terminates with every ack intact.
    system = build_system(system_spec_for("rio_prot", fs_blocks=512, inode_blocks=1))
    service = FileService(system)
    clients = [LoadClient(c, seed=3, spec=small_load(12)) for c in range(14)]
    report = run_load(service, clients, max_rounds=200)
    assert all(client.done for client in clients), report.rounds
    assert report.failed > 0
    assert report.acked > 0
    audit = service.audit()
    assert audit.ok and not audit.lost
    assert service.stats.lost_acks == 0


@pytest.mark.parametrize(
    "axis, took_effect",
    [
        (dict(chaos=(ChaosSpec("slow_io"),)), lambda kernel: kernel["chaos_fires"] > 0),
        (
            dict(backend="tiered"),
            lambda kernel: kernel["remote_audit"]["ok"]
            and kernel["remote_reconciles"] == kernel["recoveries"]
            and kernel["remote_stats"]["uploads"] > 0,
        ),
        (
            dict(system="disk", repair=True),
            lambda kernel: kernel["repaired_acks"] > 0 and kernel["final_audit_ok"],
        ),
        (
            dict(storm="faults", watchdog_budget=20),
            lambda kernel: kernel["faults_injected"] >= 1,
        ),
    ],
    ids=["chaos", "backend", "repair", "faults"],
)
def test_cluster_axis_takes_effect_on_every_shard(axis, took_effect):
    # A shard is where a kernel is built, so what a single service can
    # be armed with, every shard of a cluster is armed with.
    result = run_traffic_campaign(
        TrafficConfig(shards=2, clients=6, crashes=2, seed=4, load=small_load(15), **axis)
    )
    assert len(result.kernels) == 2
    assert all(took_effect(kernel) for kernel in result.kernels), result.kernels
    assert result.verdict["recoveries"] == result.verdict["crashes_observed"] >= 2
    assert result.verdict["final_audit_ok"]
    # Only the disk policy loses acknowledged work (and owns up to it).
    assert (result.verdict["lost_acks"] > 0) == (result.config.system == "disk")
    assert result.verdict["repaired_acks"] == result.verdict["lost_acks"]


def test_two_kernels_fold_by_the_rules():
    """A two-shard run's verdict is its kernels' verdicts folded: ints
    summed, bools ``all()``-ed, lists concatenated in shard order; a
    string or dict is one kernel's fact and reads empty in the fold."""
    result = run_traffic_campaign(
        TrafficConfig(
            shards=2, clients=6, crashes=1, seed=4, load=small_load(10), backend="tiered",
            chaos=(ChaosSpec("slow_io", interval=6, times=20),),
        )
    )
    first, second = result.kernels
    verdict = result.verdict
    assert verdict.keys() == first.keys() == second.keys()
    assert verdict["recoveries"] == first["recoveries"] + second["recoveries"] == 2
    assert verdict["chaos_fires"] == first["chaos_fires"] + second["chaos_fires"] > 0
    assert verdict["final_audit_ok"] and verdict["final_dissect_clean"]
    assert verdict["chaos_snapshot"] == first["chaos_snapshot"] + second["chaos_snapshot"]
    assert len(verdict["chaos_snapshot"]) == 2
    for key in ("final_image_sha256", "remote_audit", "remote_stats"):
        assert first[key] and second[key] and first[key] != second[key]
    assert verdict["final_image_sha256"] == ""
    assert verdict["remote_audit"] is None and verdict["remote_stats"] is None
    for key, value in verdict.items():
        a, b = first[key], second[key]
        if isinstance(a, bool):
            assert value == (a and b), key
        elif isinstance(a, (int, list)):
            assert value == a + b, key
        else:
            assert value == ("" if isinstance(a, str) else None), key
    # One kernel that fails a check fails the fold.
    second["final_dissect_clean"] = False
    assert not result.verdict["final_dissect_clean"]
    second["final_audit_ok"] = False
    assert result.failed_checks == ["final audit", "dissect"]


def test_the_independent_verifier_can_fail_the_run():
    shard = Shard(ShardSpec(fs_blocks=512))
    clients = [LoadClient(c, seed=3, spec=small_load(6)) for c in range(2)]
    load = run_load(shard.service, clients)
    result = TrafficResult(TrafficConfig(clients=2, crashes=0), kernels=[shard.verdict()], load=load)
    assert result.ok, result.failed_checks
    kernel = result.kernels[0]
    # One post-recovery scan that disagreed with fsck ...
    kernel["dissect_divergences"] = 1
    assert result.failed_checks == ["dissect"]
    # ... or a final flushed image that does not dissect clean.
    kernel["dissect_divergences"] = 0
    kernel["final_dissect_clean"] = False
    assert result.failed_checks == ["dissect"]
    assert "FAILED: dissect" in format_traffic_report(result)


def test_a_load_that_never_finishes_fails_the_run():
    # ``pipeline=0`` used to spin a run through ``run_load``'s round cap
    # with nothing acked and report success.
    with pytest.raises(ConfigurationError, match="pipeline"):
        LoadSpec(pipeline=0)
    shard = Shard(ShardSpec(fs_blocks=512))
    clients = [LoadClient(c, seed=3, spec=small_load(12)) for c in range(2)]
    load = run_load(shard.service, clients, max_rounds=3)
    assert load.unfinished == 2
    result = TrafficResult(TrafficConfig(clients=2, crashes=0), kernels=[shard.verdict()], load=load)
    assert not result.ok and result.failed_checks == ["clients unfinished"]
    assert "FAILED: clients unfinished" in format_traffic_report(result)
