"""Traffic-under-faults: crash storms against the file service.

The service-scale restatement of the paper's claim: N clients, M
mid-traffic kernel crashes, and not one acknowledged operation lost —
with the whole run a pure function of its seed on either execution
engine.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultType
from repro.reliability import TrafficConfig, format_traffic_report, run_traffic_campaign
from repro.server import FileService, LoadClient, LoadSpec, run_load
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
        result.crashes_observed,
    )


def test_sixteen_clients_three_crashes_zero_lost_acks():
    result = run_traffic_campaign(
        TrafficConfig(system="rio_prot", clients=16, crashes=3, seed=1, load=small_load())
    )
    assert result.crashes_observed == 3
    assert result.recoveries == 3
    assert result.lost_acks == 0
    assert result.final_audit_ok
    assert result.ok
    assert result.load.acked > 16 * 12
    assert result.rebind_failures == 0
    report = format_traffic_report(result)
    assert "ZERO LOST ACKS" in report


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
    assert result.faults_injected >= 1
    # Every crash that happened was recovered with nothing lost.
    assert result.recoveries == result.crashes_observed
    assert result.lost_acks == 0 and result.final_audit_ok


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
    assert rio.lost_acks == 0 and rio.ok
    assert lossy.lost_acks > 0 and not lossy.ok

    repaired = run_traffic_campaign(TrafficConfig(repair=True, **config))
    assert repaired.repaired_acks > 0
    # Repair reports the loss (honesty) but heals the state: the final
    # audit runs against the repaired file system and comes back clean.
    assert repaired.lost_acks > 0
    assert repaired.final_audit_ok


def test_unknown_storm_rejected():
    with pytest.raises(ValueError):
        run_traffic_campaign(TrafficConfig(storm="hurricane"))


def test_sixty_four_clients_stay_within_ten_x_of_sixteen():
    # The 64-client cliff stays dead: the seed repo collapsed ~158x here
    # (a fixed 48-page buffer cache plus one synchronous disk flush per
    # eviction); clustered LRU eviction and the auto-sized cache hold
    # calm throughput at 64 clients within 10x of 16 clients.
    def calm_throughput(clients):
        result = run_traffic_campaign(
            TrafficConfig(
                system="rio_prot", clients=clients, crashes=0, seed=7, load=small_load(10)
            )
        )
        assert result.ok, result.to_json_dict()
        return result.load.throughput_ops_per_vsec

    thr_16, thr_64 = calm_throughput(16), calm_throughput(64)
    assert thr_64 * 10.0 > thr_16, (thr_16, thr_64)


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
    "axis",
    [
        dict(chaos=({"name": "slow_io"},)),
        dict(backend="tiered"),
        dict(repair=True),
        dict(storm="faults"),
    ],
    ids=["chaos", "backend", "repair", "faults"],
)
def test_cluster_rejects_axes_not_wired_through_shards(axis, monkeypatch):
    # Expressible, not implemented: a typed error naming the
    # combination, raised before any system is built.
    def no_systems(*_args, **_kwargs):
        raise AssertionError("a system was built before the rejection")

    monkeypatch.setattr("repro.server.cluster.build_system", no_systems)
    monkeypatch.setattr("repro.reliability.traffic.build_system", no_systems)
    with pytest.raises(ConfigurationError, match=next(iter(axis))):
        run_traffic_campaign(TrafficConfig(shards=2, **axis))
