#!/usr/bin/env python3
"""A miniature fault-injection campaign (Table 1 in the small).

Injects three fault types into the three systems of the paper's
reliability study, a few crashes per cell, and prints the corruption
counts the way Table 1 does.  Scale ``CRASHES_PER_CELL`` up (the paper
used 50) for tighter statistics; the full-scale run is
``python -m repro table1 --scale 50 --jobs N --resume table1.jsonl``.

Run:  python examples/fault_injection.py
"""

from repro.faults import FaultType
from repro.reliability import format_table1, run_table1_campaign

CRASHES_PER_CELL = 3
FAULTS = (FaultType.KERNEL_TEXT, FaultType.COPY_OVERRUN, FaultType.SYNCHRONIZATION)


def main() -> None:
    print("== Miniature Table 1 campaign ==")
    print(f"({CRASHES_PER_CELL} counted crashes per cell, 3 systems, {len(FAULTS)} fault types)\n")
    table = run_table1_campaign(
        crashes_per_cell=CRASHES_PER_CELL,
        fault_types=FAULTS,
        progress=lambda line: print("  " + line),
    )
    print()
    print(format_table1(table))
    print()
    for system in ("disk", "rio_noprot", "rio_prot"):
        crashes = table.total_crashes(system)
        corruptions = table.total_corruptions(system)
        print(
            f"{system:11s}: {corruptions} of {crashes} crashes corrupted file data"
            + (
                f"; protection prevented {table.trap_saves(system)}"
                if system == "rio_prot"
                else ""
            )
        )
    print(f"\ndistinct crash messages observed: {table.unique_crash_messages()}")


if __name__ == "__main__":
    main()
