"""Cluster scaling: acked throughput from 1 to 8 kernel shards.

Drives the same seeded client population against clusters of 1, 2, 4
and 8 shards, once calm and once through a rolling crash storm (one
forced kernel crash per shard, staggered so at most one shard is down
at a time).  Cluster throughput is acked operations over the *slowest
shard's* elapsed virtual time — shards run concurrently, so the
cluster is done when its last shard is — which is exactly why the
curve scales: N shards each execute ~1/N of the requests, so each
virtual clock advances ~1/N as far.

Shape assertions are the cluster's design claims: the calm curve grows
roughly linearly with the shard count (floors well below perfect
scaling absorb router imbalance), a rolling storm never loses an
acknowledged operation and never changes *what* was acked — its cost
is recovery latency on the shard that crashed, not correctness.

``RIO_BENCH_CLUSTER_CLIENTS`` sets the population (default 64 keeps
``make bench`` quick; ``make bench-cluster`` records the checked-in
artifact at 1024).
"""

import os

import pytest

from repro.reliability import TrafficConfig, run_traffic_campaign
from repro.server import LoadSpec

SHARD_COUNTS = (1, 2, 4, 8)
CLIENTS = int(os.environ.get("RIO_BENCH_CLUSTER_CLIENTS", "64"))
OPS = int(os.environ.get("RIO_BENCH_CLUSTER_OPS", "6"))

#: Per-shard machine memory: 128 MB auto-sizes the buffer cache to
#: 2048 pages (see KernelLayout.resolve_buffer_cache_pages), enough
#: that even the 1-shard run at the 1024-client artifact scale holds
#: every home directory and inode block — the baseline is measured on
#: cache behaviour, not metadata thrash, so the scaling ratios are
#: honest.
MEMORY_BYTES = 128 * 1024 * 1024

#: Light per-client load: the scaling story is the shard count, so each
#: client carries a small working set (2 files, 4 KB cap) and the
#: population carries the scale.
LOAD = LoadSpec(
    ops_per_client=OPS,
    files_per_client=2,
    max_file_bytes=4096,
    write_bytes=(64, 512),
)


def _run(shards: int, crashes_per_shard: int):
    return run_traffic_campaign(
        TrafficConfig(
            shards=shards,
            system="rio_prot",
            clients=CLIENTS,
            crashes=crashes_per_shard,
            seed=7,
            router_mode="dir",
            jobs=1 if shards == 1 else min(shards, os.cpu_count() or 1),
            fs_blocks=4096,
            memory_bytes=MEMORY_BYTES,
            batch_size=max(32, 8 * shards),
            load=LOAD,
        )
    )


@pytest.fixture(scope="module")
def grid():
    return {
        (shards, crashes): _run(shards, crashes)
        for shards in SHARD_COUNTS
        for crashes in (0, 1)
    }


def test_cluster_scaling(benchmark, grid, record_result):
    benchmark.pedantic(lambda: _run(2, 0), rounds=1, iterations=1)
    lines = [
        f"Cluster scaling (rio_prot, {CLIENTS} clients x {OPS} programs, "
        "dir router, virtual time, seed 7):",
        "  shards  storm    acked   ops/vsec      p50 ms      p99 ms  lost",
    ]
    for shards in SHARD_COUNTS:
        for crashes in (0, 1):
            result = grid[(shards, crashes)]
            load = result.load
            lines.append(
                f"  {shards:6d}  {'rolling' if crashes else 'calm   '}"
                f"  {load.acked:6d}  {load.throughput_ops_per_vsec:9.1f}"
                f"  {load.latency_percentile(0.50) / 1e6:10.2f}"
                f"  {load.latency_percentile(0.99) / 1e6:10.2f}"
                f"  {result.lost_acks:4d}"
            )
    record_result("cluster_throughput", "\n".join(lines))

    calm = {s: grid[(s, 0)] for s in SHARD_COUNTS}
    stormy = {s: grid[(s, 1)] for s in SHARD_COUNTS}
    # Nobody — calm or mid-storm — may lose an acknowledged op, and
    # every shard audit and intent audit must come back clean.
    for result in grid.values():
        assert result.ok, result.to_json_dict()
    # The calm curve is roughly linear in the shard count.  The floors
    # sit below perfect scaling to absorb consistent-hash imbalance,
    # but far above "flat": 8 shards must deliver >= 4x one shard at
    # the artifact scale (measured 4.68x at 1024 clients).  Small
    # populations (the quick `make bench` default of 64) spread only
    # 64 directory keys over the ring, so keys-to-bins variance alone
    # caps the tail — the floors relax below 512 clients.
    thr = {s: calm[s].load.throughput_ops_per_vsec for s in SHARD_COUNTS}
    floors = {2: 1.4, 4: 2.4, 8: 4.0} if CLIENTS >= 512 else {2: 1.3, 4: 2.0, 8: 2.5}
    for shards, floor in floors.items():
        assert thr[shards] > floor * thr[1], (thr, floors)
    # A rolling storm changes *when* work finishes, never *what* was
    # acknowledged: the acked count matches the calm run exactly.
    for shards in SHARD_COUNTS:
        assert stormy[shards].load.acked == calm[shards].load.acked, shards
        assert stormy[shards].recoveries >= shards
