"""Backing-store tier cost: the price of surviving without the disk.

Drives the file service once per backend flavour — no backend, the
free local tier, the raw object store (one upload per flush), and the
write-back tiered store (batched drains + dedup) — and records acked
throughput, tail latency and the upload counters, all in virtual time.
A second section measures content-hash dedup directly: many files
holding the same bytes must upload one blob.

The shape assertions are the tier's design claims: the local backend
is free (no throughput regression vs. no backend at all), the remote
tiers pay their latency in the tail but never in correctness, the
write-back tier never does worse than the drain-per-flush object
store, and dedup stores one object per distinct content.
"""

import os

import pytest

from repro.reliability import TrafficConfig, run_traffic_campaign
from repro.server import LoadSpec

BACKENDS = (None, "local", "objectstore", "tiered")
OPS = int(os.environ.get("RIO_BENCH_BACKEND_OPS", "15"))


def _run(backend):
    return run_traffic_campaign(
        TrafficConfig(
            system="rio_prot",
            clients=4,
            crashes=0,
            seed=9,
            load=LoadSpec(ops_per_client=OPS),
            backend=backend,
        )
    )


def _dedup_rate():
    """Upload 24 blocks of identical content; count distinct objects."""
    from repro.system import build_system, system_spec_for

    spec = system_spec_for("rio_prot", fs_blocks=256, backend="tiered")
    system = build_system(spec)
    body = b"same bytes in every file" * 300
    for i in range(24):
        fd = system.vfs.open(f"/dup{i}", create=True)
        system.vfs.write(fd, body)
        system.vfs.close(fd)
    system.fs.flush_data(sync=True)
    system.fs.flush_metadata(sync=True)
    system.drain_disks()
    system.backing.drain_uploads()
    return system.backing


@pytest.fixture(scope="module")
def grid():
    return {backend: _run(backend) for backend in BACKENDS}


def test_backend_throughput(benchmark, grid, record_result):
    benchmark.pedantic(lambda: _run("tiered"), rounds=1, iterations=1)
    lines = [
        "Backing-store tier cost (rio_prot, 4 clients, virtual time, "
        f"{OPS} programs/client, seed 9):",
        "  backend      acked   ops/vsec      p99 ms  uploads  dedup  lost",
    ]
    for backend in BACKENDS:
        result = grid[backend]
        load = result.load
        stats = result.remote_stats or {}
        lines.append(
            f"  {backend or 'none':11s}  {load.acked:5d}"
            f"  {load.throughput_ops_per_vsec:9.1f}"
            f"  {load.latency_percentile(0.99) / 1e6:10.2f}"
            f"  {stats.get('uploads', 0):7d}  {stats.get('dedup_hits', 0):5d}"
            f"  {result.lost_acks:4d}"
        )

    store = _dedup_rate()
    mapped = len(store._map)
    objects = len(store.remote.list("obj/"))
    lines += [
        "",
        "Dedup (24 files, identical content, tiered):",
        f"  mapped blocks {mapped}, distinct objects {objects}, "
        f"dedup hits {store.stats.dedup_hits}",
    ]
    record_result("backend_throughput", "\n".join(lines))

    # Correctness is backend-independent: every flavour keeps every ack.
    for result in grid.values():
        assert result.ok, result.to_json_dict()
    # The local tier is free: within 1% of running with no backend.
    none_tp = grid[None].load.throughput_ops_per_vsec
    local_tp = grid["local"].load.throughput_ops_per_vsec
    assert local_tp > 0.99 * none_tp, (none_tp, local_tp)
    # Both remote flavours actually uploaded, and the write-back tier's
    # batching never loses to drain-per-flush.
    for backend in ("objectstore", "tiered"):
        assert grid[backend].remote_stats["uploads"] > 0
    tiered_tp = grid["tiered"].load.throughput_ops_per_vsec
    object_tp = grid["objectstore"].load.throughput_ops_per_vsec
    assert tiered_tp >= object_tp, (object_tp, tiered_tp)
    # One blob per distinct content: identical files share one object.
    assert store.stats.dedup_hits > 0
    assert objects < mapped, (objects, mapped)
