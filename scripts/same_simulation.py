#!/usr/bin/env python
"""Do two benchmark result files describe the same simulation?

    python scripts/same_simulation.py OLD.json NEW.json

``python3 -m bench --compare`` applies the bounds table: host time may
move within its bound.  The simulation itself may not move at all — the
virtual clock and every simulated count are deterministic for a seed —
so this script demands exact agreement, workload by workload, on:

* ``digest`` and ``failed``;
* ``virt_s``, ``virt_p50_ms`` and ``virt_p99_ms``;
* ``info`` (the Table 2 cells, the explore seed);
* every per-layer metric that is not measured on the host clock (the
  host-timed ones are named by :data:`HOST_MEASURED`).

It prints each disagreement and exits 1 if there is one, or if the two
files do not cover the same workloads.  It reads the two JSON files
only; it does not import the benchmark.
"""

from __future__ import annotations

import json
import re
import sys

VIRTUAL = ("virt_s", "virt_p50_ms", "virt_p99_ms")
#: Per-layer metrics timed on the host: they differ from run to run.
HOST_MEASURED = re.compile(r"host|probe_|overhead_ratio|fanout_efficiency")


def simulated(workload: dict) -> dict:
    """``{name: value}`` of everything in one workload's record that the
    simulation, not the host, decides."""
    facts = {key: workload.get(key) for key in ("digest", "failed", "info")}
    end_to_end = workload.get("end_to_end", {})
    facts.update((key, end_to_end.get(key)) for key in VIRTUAL)
    facts.update(
        (f"per_layer {name}", value)
        for name, value in workload.get("per_layer", {}).items()
        if not HOST_MEASURED.search(name)
    )
    return facts


def differences(old: dict, new: dict) -> list[str]:
    """One line per simulated fact the two result documents disagree on."""
    lines = []
    old_workloads, new_workloads = old["workloads"], new["workloads"]
    for name in sorted(old_workloads.keys() ^ new_workloads.keys()):
        lines.append(f"{name}: only in {'OLD' if name in old_workloads else 'NEW'}")
    for name in sorted(old_workloads.keys() & new_workloads.keys()):
        before, after = simulated(old_workloads[name]), simulated(new_workloads[name])
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                lines.append(f"{name}: {key} {before.get(key)!r} -> {after.get(key)!r}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with open(args[0]) as old_file, open(args[1]) as new_file:
        old, new = json.load(old_file), json.load(new_file)
    lines = differences(old, new)
    for line in lines:
        print(line)
    count = len(old["workloads"])
    print(f"{'DIFFERENT' if lines else 'same'} simulation over {count} workloads")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
