#!/usr/bin/env python
"""Where does the remote tier's link time go, flavour by flavour?

Drives the ``tiered_disk`` benchmark load (``disk`` policy, 16 clients x
150 programs, exactly as ``bench/workloads.py:_serve`` does) once per
backend flavour — none, ``local``, ``objectstore``, ``tiered`` — and
prints one row each for the timed region: virtual seconds, acks per
virtual second, p50 / p99 latency, uploads, link busy time, machine time
spent *waiting* on the link, disk busy time, and how much of the link's
busy time overlapped the disk's (the part of the upload cost a
disk-bound workload does not pay).

    python scripts/remote_tier_table.py [--seed 7]

Everything is virtual time, so the table is deterministic; EXPERIMENTS.md
"Remote tier off the request path" quotes it.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def overlap_ns(a, b) -> int:
    """Total length of the intersection of two sorted interval lists."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        total += max(0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def clip(intervals, lo: int, hi: int):
    """The parts of ``intervals`` inside ``[lo, hi]``."""
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def measure(backend, seed: int) -> dict:
    """One round of the load on ``backend``; the row as a dict."""
    import repro.system
    from bench.hostclock import HostClock
    from bench.workloads import Env, _serve, derive_seed
    from repro.server.loadgen import percentile

    seen = {}
    build = repro.system.build_system

    def build_and_tap(spec):
        system = build(spec)
        if seen:
            return system  # the audit's scratch machine
        seen.update(system=system, disk=[], link=[])
        disk, write, read = system.disk, system.disk.write, system.disk.read

        def tapped_write(*args, **kwargs):
            request = write(*args, **kwargs)
            seen["disk"].append((request.start_ns, request.completion_ns))
            return request

        def tapped_read(sector, count):
            start = max(system.clock.now_ns, disk.busy_until_ns)
            data = read(sector, count)
            seen["disk"].append((start, disk.busy_until_ns))
            return data

        disk.write, disk.read = tapped_write, tapped_read
        if system.backing is not None:
            remote = system.backing.remote
            request = remote._request

            def tapped_request(*args):
                busy = remote.stats.service_ns
                request(*args)
                done = remote.link_free_ns
                seen["link"].append((done - (remote.stats.service_ns - busy), done))

            remote._request = tapped_request
        return system

    class Laps(HostClock):
        """Notes the virtual clock and the link counters at each lap."""

        def lap(self, bucket: str) -> None:
            system = seen["system"]
            stats = system.backing.remote.stats if system.backing else None
            seen[bucket] = (
                system.clock.now_ns,
                stats.waited_ns if stats else 0,
                stats.posted_writes if stats else 0,
            )
            super().lap(bucket)

    repro.system.build_system = build_and_tap
    try:
        out = _serve(
            "tiered_disk", "disk", backend,
            derive_seed(seed, "tiered_disk"), Env(Laps()),
        )
    finally:
        repro.system.build_system = build
    if out.failed:
        raise SystemExit(f"{backend}: {out.failed} failed, checks {out.checks}")
    (lo, waited_lo, posted_lo), (hi, waited_hi, posted_hi) = seen["setup"], seen["timed"]
    assert hi - lo == out.virt_ns
    link, disk = clip(seen["link"], lo, hi), clip(seen["disk"], lo, hi)
    return {
        "backend": backend or "none",
        "virt_s": out.virt_ns / 1e9,
        "acks_per_vs": out.ops / (out.virt_ns / 1e9),
        "p50_ms": percentile(out.latencies_ns, 0.50) / 1e6,
        "p99_ms": percentile(out.latencies_ns, 0.99) / 1e6,
        "uploads": out.counts.get("backend.uploads", 0),
        "posted": posted_hi - posted_lo,
        "link_busy_s": out.counts.get("backend.service_virt_s", 0.0),
        "link_waited_s": (waited_hi - waited_lo) / 1e9,
        "disk_busy_s": out.counts["disk.busy_virt_s"],
        "overlap_s": overlap_ns(link, disk) / 1e9,
    }


def main(argv=None) -> int:
    """Print the flavour table for ``--seed``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path[:0] = [REPO, os.path.join(REPO, "src")]
    print(
        "| backend | virt_s | acks / vs | p50 / p99 ms | uploads | posted writes "
        "| link busy s | link waited s | disk busy s | link ∥ disk s |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    for backend in (None, "local", "objectstore", "tiered"):
        row = measure(backend, args.seed)
        print(
            "| {backend} | {virt_s:.3f} | {acks_per_vs:.1f} | {p50_ms:.1f} / "
            "{p99_ms:.1f} | {uploads} | {posted} | {link_busy_s:.2f} | "
            "{link_waited_s:.2f} | {disk_busy_s:.2f} | {overlap_s:.2f} |".format(**row)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
