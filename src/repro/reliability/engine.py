"""The Table 1 fault-injection campaign engine.

The paper crashed a live system 1,950 times for Table 1 ("6
machine-months").  This engine is the one runner of that campaign — at
``jobs=1`` in process, at ``jobs=N`` sharded across a pool of worker
processes — and its output is **bit-identical** at every job count
(:func:`repro.reliability.report.table1_digest`).

How equivalence survives parallelism
------------------------------------

Every trial is a pure function of its :class:`CrashTestConfig`, and the
campaign's seed schedule (:func:`repro.reliability.report.seed_for`) is
a pure function of ``(base_seed, cell, attempt)``.  The only sequential
coupling is the *stopping rule*: a cell stops once it has counted
``crashes_per_cell`` crashes or used ``crashes_per_cell *
max_attempts_factor`` attempts.  The engine therefore runs each cell in
**batches**: a cell submits one attempt per crash it still needs (capped
by the attempts it has left), starting at its first unconsumed attempt,
and forms its next batch only once every attempt of this one has landed
and been consumed in attempt order.  A trial counts at most one crash,
so a batch reaches the stopping point only on its last attempt: no trial
past a cell's stopping point is ever run, at any job count, and the
merged :class:`Table1` is the one a one-at-a-time loop builds.  The
cells' batches share the pool, so the workers stay busy while any cell
has trials in flight.  ``jobs=1`` takes the same schedule on the pool's
in-process mode, so configs and results still round-trip through JSON
and exercise the identical wire format.

Checkpoint / resume
-------------------

With a ``checkpoint`` path, every finished trial is journaled to JSONL
(:mod:`repro.reliability.journal`).  On the next run with the same
campaign parameters, journaled trials complete instantly from the cache
and only the remainder executes.  Corrupt journal lines are skipped with
a warning and their trials re-run.

Worker death
------------

Trials run on the package's one worker pool
(:class:`repro.reliability.pool.WorkerPool`), which retries a trial
whose worker died once and then **quarantines** it.  For a quarantined
trial a synthetic discarded result (``crash_kind="worker_crashed"``)
takes its slot so the campaign can finish, and the key is listed in
``stats.quarantined``.  (Quarantine is the one case where output can
differ between runs — the trial genuinely could not be run.)
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.types import ALL_FAULT_TYPES, FaultType
from repro.reliability.campaign import (
    CrashTestConfig,
    CrashTestResult,
    SYSTEM_NAMES,
    run_crash_test,
)
from repro.reliability.journal import CampaignJournal, JournalWarning, TrialKey
# ParallelMap is re-exported: bench/workloads.py imports it from here.
from repro.reliability.pool import ParallelMap, PoolStats, WorkerPool  # noqa: F401
from repro.reliability.report import CampaignCell, Table1, seed_for


@dataclass
class EngineStats(PoolStats):
    """What one engine invocation did (host-side bookkeeping only —
    nothing here feeds back into trial outcomes).  ``executed``,
    ``worker_crashes`` and ``quarantined`` are counted by the pool."""

    from_checkpoint: int = 0  #: trials satisfied from the journal
    checkpoint_lines_skipped: int = 0  #: corrupt journal lines skipped
    wall_seconds: float = 0.0


@dataclass
class _CellState:
    """Scheduler-side view of one Table 1 cell."""

    system: str
    fault_type: FaultType
    cell: CampaignCell
    target: int
    max_attempts: int
    batch_end: int = 0  #: one past the last attempt of the current batch
    buffer: dict = field(default_factory=dict)  #: attempt -> result landed ahead of its turn

    @property
    def consumed(self) -> int:
        return len(self.cell.results)

    @property
    def done(self) -> bool:
        """The stopping rule has fired."""
        return self.cell.crashes >= self.target or self.consumed >= self.max_attempts

    def key(self, attempt: int) -> TrialKey:
        return (self.system, self.fault_type.value, attempt)


def run_trial_json(config_dict: dict) -> dict:
    """The pool task: one Table 1 trial, JSON in, JSON out."""
    return run_crash_test(CrashTestConfig.from_json_dict(config_dict)).to_json_dict()


# -- the engine --------------------------------------------------------------


class CampaignEngine:
    """One campaign invocation; see the module docstring for design."""

    def __init__(
        self,
        crashes_per_cell: int = 10,
        systems: tuple = SYSTEM_NAMES,
        fault_types: tuple = ALL_FAULT_TYPES,
        base_seed: int = 1000,
        max_attempts_factor: int = 5,
        max_ops_after_injection: int = CrashTestConfig.max_ops_after_injection,
        trace_events: bool = False,
        jobs: int = 1,
        checkpoint: Optional[str] = None,
        max_trials: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        progress_interval_s: float = 5.0,
    ):
        self.crashes_per_cell = crashes_per_cell
        self.systems = tuple(systems)
        self.fault_types = tuple(fault_types)
        self.base_seed = base_seed
        self.max_attempts_factor = max_attempts_factor
        self.max_ops_after_injection = max_ops_after_injection
        self.trace_events = trace_events
        self.jobs = max(1, jobs)
        self.checkpoint = checkpoint
        self.max_trials = max_trials
        self.progress = progress
        self.progress_interval_s = progress_interval_s

        self.stats = EngineStats()
        self.complete = False
        self.table = Table1(crashes_per_cell=crashes_per_cell)
        self._cells = {
            (system, fault.value): _CellState(
                system=system,
                fault_type=fault,
                cell=self.table.cell(system, fault),
                target=crashes_per_cell,
                max_attempts=crashes_per_cell * max_attempts_factor,
            )
            for system in self.systems
            for fault in self.fault_types
        }
        self._cache: dict = {}
        self._journal: Optional[CampaignJournal] = None
        self._pool: Optional[WorkerPool] = None
        self._submitted = 0  #: trials handed to the pool (the max_trials budget)
        self._t0 = 0.0
        self._last_progress = 0.0

    # -- public entry point ------------------------------------------------

    def run(self) -> Table1:
        self._t0 = self._last_progress = time.monotonic()
        if self.checkpoint:
            self._journal = CampaignJournal(self.checkpoint, self._fingerprint())
            self._cache = self._journal.load()  # raises on fingerprint mismatch
            self.stats.checkpoint_lines_skipped = self._journal.skipped_lines
            self._journal.open_for_append()
        self._pool = WorkerPool(
            "repro.reliability.engine:run_trial_json", self.jobs, self._say, self.stats
        )
        try:
            for cs in self._cells.values():
                self._advance(cs)
            while self._pool.pending:
                for event in self._pool.next_events():
                    self._land(*event)
                self._emit_progress()
        finally:
            self._pool.close()
            if self._journal is not None:
                self._journal.close()
        self.stats.wall_seconds = time.monotonic() - self._t0
        self.complete = all(cs.done for cs in self._cells.values())
        self._emit_progress(force=True)
        return self.table

    # -- trials: identity, cache, landing ----------------------------------

    def _fingerprint(self) -> dict:
        return {
            "crashes_per_cell": self.crashes_per_cell,
            "systems": list(self.systems),
            "fault_types": [f.value for f in self.fault_types],
            "base_seed": self.base_seed,
            "max_attempts_factor": self.max_attempts_factor,
            "max_ops_after_injection": self.max_ops_after_injection,
            "trace_events": self.trace_events,
        }

    def _config_json(self, cs: _CellState, attempt: int) -> dict:
        seed = seed_for(self.base_seed, cs.system, cs.fault_type, attempt)
        config = CrashTestConfig(
            system=cs.system,
            fault_type=cs.fault_type,
            seed=seed,
            max_ops_after_injection=self.max_ops_after_injection,
            trace_events=self.trace_events,
        )
        return config.to_json_dict()

    def _take_cached(self, cs: _CellState, attempt: int) -> Optional[CrashTestResult]:
        """Pop and validate a journaled result for this trial, if any."""
        entry = self._cache.pop(cs.key(attempt), None)
        if entry is None:
            return None
        seed, result_dict = entry
        expected = seed_for(self.base_seed, cs.system, cs.fault_type, attempt)
        if seed != expected:
            warnings.warn(
                f"checkpoint entry for {cs.key(attempt)} has seed {seed}, "
                f"campaign expects {expected}; re-running the trial",
                JournalWarning,
                stacklevel=3,
            )
            return None
        try:
            return CrashTestResult.from_json_dict(result_dict)
        except Exception as exc:
            warnings.warn(
                f"checkpoint entry for {cs.key(attempt)} does not decode "
                f"({type(exc).__name__}: {exc}); re-running the trial",
                JournalWarning,
                stacklevel=3,
            )
            return None

    def _land(self, kind: str, key: TrialKey, payload: Optional[dict]) -> None:
        """One pool event: journal the trial's result and hand it to its
        cell."""
        cs, attempt = self._cells[key[:2]], key[2]
        if kind == "quarantined":
            # The trial killed every worker that tried it: record a
            # synthetic discarded outcome so the campaign can finish
            # instead of relaunching a worker-killer forever.
            result = CrashTestResult(
                config=CrashTestConfig.from_json_dict(self._config_json(cs, attempt)),
                discarded=True,
                crash_kind="worker_crashed",
                crash_reason=f"trial killed {WorkerPool.retry_limit + 1} workers; quarantined",
            )
        else:
            result = CrashTestResult.from_json_dict(payload)
        if self._journal is not None:
            self._journal.append_trial(key, result.config.seed, result.to_json_dict())
        cs.buffer[attempt] = result
        self._advance(cs)

    # -- the schedule -----------------------------------------------------

    def _advance(self, cs: _CellState) -> None:
        """Consume the cell's landed attempts in attempt order and, once
        its batch is all in, form the next one: one attempt per crash
        still needed, capped by the attempts left, so only the batch's
        last attempt can reach the stopping point.  A journaled attempt
        is taken instead of run, so a batch may complete at once."""
        while True:
            while cs.consumed in cs.buffer:
                cs.cell.record(cs.buffer.pop(cs.consumed))
            if cs.consumed < cs.batch_end:
                return  # waiting on the pool, or on a spent max_trials budget
            if cs.done:
                self._emit_cell_line(cs)
                return
            start = cs.batch_end
            cs.batch_end += min(cs.target - cs.cell.crashes, cs.max_attempts - start)
            for attempt in range(start, cs.batch_end):
                cached = self._take_cached(cs, attempt)
                if cached is not None:
                    self.stats.from_checkpoint += 1
                    cs.buffer[attempt] = cached
                elif self.max_trials is None or self._submitted < self.max_trials:
                    self._submitted += 1
                    self._pool.submit(cs.key(attempt), self._config_json(cs, attempt))

    # -- progress ----------------------------------------------------------

    def _say(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def _emit_cell_line(self, cs: _CellState) -> None:
        cell = cs.cell
        line = (
            f"{cs.system}/{cs.fault_type.value}: {cell.crashes} crashes, "
            f"{cell.corruptions} corruptions, {cell.discarded} discarded"
        )
        if cell.divergences:
            line += f", {cell.divergences} fsck/dissect divergences"
        self._say(line)

    def _emit_progress(self, force: bool = False) -> None:
        if self.progress is None:
            return
        now = time.monotonic()
        if not force and now - self._last_progress < self.progress_interval_s:
            return
        self._last_progress = now
        cells = self._cells.values()
        crashes = sum(cs.cell.crashes for cs in cells)
        target = sum(cs.target for cs in cells)
        discarded = sum(cs.cell.discarded for cs in cells)
        diverged = sum(cs.cell.divergences for cs in cells)
        self._say(
            f"[engine] {crashes}/{target} crashes counted, {discarded} discarded, "
            + (f"{diverged} fsck/dissect divergences, " if diverged else "")
            + f"{self.stats.worker_crashes} worker-crashed "
            f"({self.stats.executed} trials run, "
            f"{self.stats.from_checkpoint} from checkpoint); eta {self._eta()}"
        )

    def _eta(self) -> str:
        elapsed = time.monotonic() - self._t0
        if self.stats.executed == 0 or elapsed <= 0:
            return "?"
        throughput = self.stats.executed / elapsed  # trials/s, all workers
        remaining = 0.0
        for cs in self._cells.values():
            if cs.done:
                continue
            needed = cs.target - cs.cell.crashes
            rate = (
                cs.cell.crashes / cs.consumed if cs.consumed else 0.5
            )  # paper: "about half the time" a run survives and is discarded
            remaining += min(needed / max(rate, 0.1), cs.max_attempts - cs.consumed)
        return f"~{remaining / throughput:.0f}s"
