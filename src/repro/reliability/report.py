"""Table 1 assembly: run campaigns and format the results.

"We conducted 50 tests for each fault category for each of the three
systems (disk, Rio without protection, Rio with protection); this
represents 6 machine-months of testing."  Here a *test* is a counted
crash; runs that survive the budget are discarded and retried, exactly as
in the paper ("this happens about half the time").
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.types import ALL_FAULT_TYPES, FaultType
from repro.reliability.campaign import CrashTestResult, SYSTEM_NAMES

SYSTEM_LABELS = {
    "disk": "Disk-Based",
    "rio_noprot": "Rio without Protection",
    "rio_prot": "Rio with Protection",
}


@dataclass
class CampaignCell:
    """One (system, fault type) cell of Table 1."""

    system: str
    fault_type: FaultType
    crashes: int = 0
    corruptions: int = 0
    discarded: int = 0
    protection_trap_saves: int = 0
    #: Trials where fsck and the independent dissect verifier disagreed
    #: about the post-recovery image (see ``repro.fs.dissect``).
    divergences: int = 0
    crash_kinds: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    #: Ordering keys parallel to ``results`` (``record``'s ``order``);
    #: plain appends sort after every keyed insert.
    _order_keys: list = field(default_factory=list, repr=False)

    def record(self, result: CrashTestResult, order: Optional[int] = None) -> None:
        """Count one finished trial.

        ``order`` is the trial's position in the campaign's seed
        schedule (the attempt index).  The engine records results as
        workers deliver them — possibly out of order — and the key keeps
        ``results`` in attempt order, so formatted tables and digests
        match bit-for-bit at every job count.  The counters are
        order-independent sums.
        """
        if order is None:
            self.results.append(result)
            self._order_keys.append(float("inf"))
        else:
            at = bisect.bisect_right(self._order_keys, order)
            self.results.insert(at, result)
            self._order_keys.insert(at, order)
        if result.discarded:
            self.discarded += 1
            return
        self.crashes += 1
        self.crash_kinds[result.crash_kind] = self.crash_kinds.get(result.crash_kind, 0) + 1
        if result.corrupted:
            self.corruptions += 1
        if result.protection_trap:
            self.protection_trap_saves += 1
        if result.diverged:
            self.divergences += 1

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "fault_type": self.fault_type.value,
            "crashes": self.crashes,
            "corruptions": self.corruptions,
            "discarded": self.discarded,
            "protection_trap_saves": self.protection_trap_saves,
            "divergences": self.divergences,
            "crash_kinds": dict(sorted(self.crash_kinds.items())),
            "results": [r.to_json_dict() for r in self.results],
        }


@dataclass
class Table1:
    """The full campaign result."""

    crashes_per_cell: int
    cells: dict = field(default_factory=dict)  # (system, fault) -> CampaignCell

    def cell(self, system: str, fault_type: FaultType) -> CampaignCell:
        key = (system, fault_type)
        if key not in self.cells:
            self.cells[key] = CampaignCell(system, fault_type)
        return self.cells[key]

    def total_crashes(self, system: str) -> int:
        return sum(c.crashes for (s, _), c in self.cells.items() if s == system)

    def total_corruptions(self, system: str) -> int:
        return sum(c.corruptions for (s, _), c in self.cells.items() if s == system)

    def corruption_rate(self, system: str) -> float:
        crashes = self.total_crashes(system)
        return self.total_corruptions(system) / crashes if crashes else 0.0

    def trap_saves(self, system: str) -> int:
        return sum(
            c.protection_trap_saves for (s, _), c in self.cells.items() if s == system
        )

    def total_divergences(self, system: str) -> int:
        """fsck-vs-dissect divergences across the system's cells."""
        return sum(c.divergences for (s, _), c in self.cells.items() if s == system)

    def unique_crash_messages(self) -> int:
        reasons = set()
        for cell in self.cells.values():
            for result in cell.results:
                if result.crashed:
                    reasons.add(result.crash_reason)
        return len(reasons)

    def to_json_dict(self) -> dict:
        """Canonical JSON form: cells sorted by (system, fault value)."""
        return {
            "crashes_per_cell": self.crashes_per_cell,
            "cells": [
                cell.to_json_dict()
                for (system, fault), cell in sorted(
                    self.cells.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
                )
            ],
        }


def table1_digest(table: Table1) -> str:
    """SHA-256 over the canonical JSON form.

    Two campaigns over the same seed schedule are equivalent iff their
    digests match — the acceptance check across job counts.
    """
    canon = json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def seed_for(base_seed: int, system: str, fault_type: FaultType, attempt: int) -> int:
    """The campaign's deterministic seed schedule.

    One seed per (cell, attempt): a trial's seed never depends on
    which worker runs it or when.
    """
    return base_seed + hash_cell(system, fault_type) * 10_000 + attempt


def run_table1_campaign(
    crashes_per_cell: int = 10,
    systems: tuple = SYSTEM_NAMES,
    fault_types: tuple = ALL_FAULT_TYPES,
    base_seed: int = 1000,
    max_attempts_factor: int = 5,
    config_overrides: Optional[dict] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Table1:
    """Run the full campaign in process: the engine at ``jobs=1``.

    ``crashes_per_cell`` is the number of *counted* crashes per cell (the
    paper used 50); discarded runs do not count but do consume attempts,
    bounded by ``crashes_per_cell * max_attempts_factor``.
    """
    from repro.reliability.engine import CampaignEngine  # engine imports this module

    return CampaignEngine(
        crashes_per_cell=crashes_per_cell,
        systems=systems,
        fault_types=fault_types,
        base_seed=base_seed,
        max_attempts_factor=max_attempts_factor,
        config_overrides=config_overrides,
        progress=progress,
    ).run()


def hash_cell(system: str, fault_type: FaultType) -> int:
    """Stable small integer per cell (no built-in hash: PYTHONHASHSEED)."""
    text = f"{system}:{fault_type.value}"
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) & 0xFFFF
    return value


def format_table1(table: Table1, systems: tuple = SYSTEM_NAMES) -> str:
    """Render the campaign in the layout of the paper's Table 1."""
    width = 22
    header = "Fault Type".ljust(width) + "".join(
        SYSTEM_LABELS[s].ljust(width + 4) for s in systems
    )
    lines = [header, "-" * len(header)]
    fault_types = sorted(
        {fault for (_, fault) in table.cells}, key=lambda f: list(FaultType).index(f)
    )
    for fault_type in fault_types:
        row = fault_type.value.ljust(width)
        for system in systems:
            cell = table.cells.get((system, fault_type))
            if cell is None:
                row += "-".ljust(width + 4)
                continue
            text = f"{cell.corruptions or ''}"
            if cell.protection_trap_saves:
                text += f" [{cell.protection_trap_saves} trapped]"
            row += (text or " ").ljust(width + 4)
        lines.append(row)
    lines.append("-" * len(header))
    totals = "Total".ljust(width)
    for system in systems:
        crashes = table.total_crashes(system)
        corruptions = table.total_corruptions(system)
        rate = 100.0 * table.corruption_rate(system)
        totals += f"{corruptions} of {crashes} ({rate:.1f}%)".ljust(width + 4)
    lines.append(totals)
    # Second-opinion footer: only when the independent verifier disagreed
    # with fsck somewhere (so tables without divergences are unchanged).
    diverged = {s: table.total_divergences(s) for s in systems}
    if any(diverged.values()):
        parts = ", ".join(f"{s}: {n}" for s, n in diverged.items() if n)
        lines.append(f"fsck/dissect divergences  {parts}")
    return "\n".join(lines)
