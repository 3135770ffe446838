#!/usr/bin/env python3
"""Eight clients, two mid-traffic kernel crashes, one durability audit.

The service-scale restatement of the paper's claim, end to end: a
deterministic multi-client load drives the file service while a crash
storm brings the kernel down twice mid-batch.  On Rio with protection
the warm reboot hands every acknowledged operation back — the audit
finds nothing lost.  The same storm against a delayed-write disk system
loses acknowledged work, which is exactly why the write-through cache
was considered mandatory before Rio.

Run:  python examples/load_and_crash.py
"""

from repro.reliability import TrafficConfig, format_traffic_report, run_traffic_campaign
from repro.server import LoadSpec

CLIENTS = 8
CRASHES = 2
SEED = 1996


def storm(system: str) -> "TrafficConfig":
    return TrafficConfig(
        system=system,
        clients=CLIENTS,
        crashes=CRASHES,
        seed=SEED,
        load=LoadSpec(ops_per_client=20),
    )


def main() -> None:
    print(f"== {CLIENTS} clients, {CRASHES} kernel crashes mid-traffic ==")
    print()

    rio = run_traffic_campaign(storm("rio_prot"))
    print(format_traffic_report(rio))
    assert rio.verdict["crashes_observed"] == CRASHES
    assert rio.verdict["lost_acks"] == 0 and rio.ok

    print()
    disk = run_traffic_campaign(storm("disk"))
    print(format_traffic_report(disk))

    print()
    print("the contrast:")
    print(f"  rio_prot : {rio.load.acked} acks, {rio.verdict['lost_acks']} lost")
    print(f"  disk     : {disk.load.acked} acks, {disk.verdict['lost_acks']} lost")
    if disk.verdict["lost_acks"] > 0:
        print("  the disk system broke its durability promises; Rio kept every one")


if __name__ == "__main__":
    main()
