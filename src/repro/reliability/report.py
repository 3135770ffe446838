"""Table 1 assembly: tally campaign trials and format the results.

"We conducted 50 tests for each fault category for each of the three
systems (disk, Rio without protection, Rio with protection); this
represents 6 machine-months of testing."  Here a *test* is a counted
crash; runs that survive the budget are discarded and retried, exactly as
in the paper ("this happens about half the time").
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from repro.faults.types import FaultType
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
    results: list = field(default_factory=list)  #: in attempt order

    def record(self, result: CrashTestResult) -> None:
        """Count one finished trial; trials arrive in attempt order."""
        self.results.append(result)
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
        """The cell's counts; its trials enter only :func:`table1_digest`."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "results"}
        data["fault_type"] = self.fault_type.value
        data["crash_kinds"] = dict(sorted(self.crash_kinds.items()))
        return data


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

    def sorted_cells(self) -> list:
        """The cells ordered by (system, fault value): the canonical order."""
        return [
            cell
            for _, cell in sorted(self.cells.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
        ]

    def short_cells(self) -> list:
        """``(system, fault value, crashes, attempts)`` for each cell below
        its target — on a finished campaign, one that used every attempt."""
        return [
            (cell.system, cell.fault_type.value, cell.crashes, len(cell.results))
            for cell in self.sorted_cells()
            if cell.crashes < self.crashes_per_cell
        ]

    @property
    def ok(self) -> bool:
        """Every cell reached its target."""
        return not self.short_cells()

    def to_json_dict(self) -> dict:
        """The run's summary — what ``repro table1 --json`` prints and
        ``RESULTS_table1.json`` holds: the cells' counts, per-system totals
        with a 95 % Wilson interval and section 3.3's MTTF beside the
        paper's, each fsck/dissect divergence by the config that reproduces
        it, the short cells, and the digest of every trial."""
        systems = [s for s in SYSTEM_NAMES if any(s == system for system, _ in self.cells)]
        return {
            "scale": self.crashes_per_cell,
            "cells": [cell.to_json_dict() for cell in self.sorted_cells()],
            "systems": {system: self._system_totals(system) for system in systems},
            "divergences": [
                {"system": cell.system, "fault_type": cell.fault_type.value,
                 "seed": result.config.seed}
                for cell in self.sorted_cells()
                for result in cell.results
                if result.diverged
            ],
            "short_cells": [
                {"system": system, "fault_type": fault, "crashes": crashes, "attempts": attempts}
                for system, fault, crashes, attempts in self.short_cells()
            ],
            "table1_digest": table1_digest(self),
        }

    def _system_totals(self, system: str) -> dict:
        def years(corruptions: int, crashes: int):  # null: no corruption, no finite MTTF
            return round(mttf_years(corruptions, crashes), 2) if corruptions else None

        crashes, corruptions = self.total_crashes(system), self.total_corruptions(system)
        paper_corruptions, paper_crashes = PAPER_RATES[system]
        return {
            "crashes": crashes,
            "corruptions": corruptions,
            "rate": round(self.corruption_rate(system), 4),
            "rate_ci95": [round(bound, 4) for bound in wilson_interval(corruptions, crashes)],
            "trap_saves": self.trap_saves(system),
            "mttf_years": years(corruptions, crashes),
            "paper": {
                "crashes": paper_crashes,
                "corruptions": paper_corruptions,
                "mttf_years": years(paper_corruptions, paper_crashes),
            },
        }


def table1_digest(table: Table1) -> str:
    """SHA-256 over the canonical JSON form: every cell with its trials
    in attempt order.

    Two campaigns over the same seed schedule are equivalent iff their
    digests match — the acceptance check across job counts.
    """
    canonical = {
        "crashes_per_cell": table.crashes_per_cell,
        "cells": [
            {**cell.to_json_dict(), "results": [r.to_json_dict() for r in cell.results]}
            for cell in table.sorted_cells()
        ],
    }
    canon = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def seed_for(base_seed: int, system: str, fault_type: FaultType, attempt: int) -> int:
    """The campaign's deterministic seed schedule.

    One seed per (cell, attempt): a trial's seed never depends on
    which worker runs it or when.
    """
    return base_seed + hash_cell(system, fault_type) * 10_000 + attempt


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


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """The Wilson score interval for ``successes`` of ``trials`` (95 % at
    the default ``z``); ``(0, 1)`` when there are no trials."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denominator = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denominator
    return (max(0.0, centre - half), min(1.0, centre + half))


# -- section 3.3: MTTF ----------------------------------------------------------
#
# "To illustrate, consider a system that crashes once every two months ...
# If these crashes were the sole cause of data corruption, the MTTF of a
# disk-based system would be 15 years, and the MTTF of Rio without
# protection would be 11 years."  MTTF = (time between crashes) /
# (probability a crash corrupts data).

#: The paper's Table 1 totals: ``{system: (corruptions, crashes)}``.
PAPER_RATES = {
    "disk": (7, 650),
    "rio_noprot": (10, 650),
    "rio_prot": (4, 650),
}


def mttf_years(corruptions: int, crashes: int, months_between_crashes: float = 2.0) -> float:
    """Expected years until a crash corrupts file data."""
    if crashes <= 0:
        raise ValueError("crashes must be positive")
    if corruptions <= 0:
        return float("inf")
    return months_between_crashes / (corruptions / crashes) / 12.0


def format_mttf(table: Table1, systems: tuple = SYSTEM_NAMES) -> str:
    """Section 3.3's line: the MTTF each measured rate gives, beside the paper's."""
    def years(corruptions: int, crashes: int) -> str:
        return f"{mttf_years(corruptions, crashes):.1f} years" if corruptions else "no corruption"

    return "MTTF at one crash per two months: " + ", ".join(
        f"{system} {years(table.total_corruptions(system), table.total_crashes(system))} "
        f"(paper {years(*PAPER_RATES[system])})"
        for system in systems
    )
