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
``crashes_per_cell`` crashes, so whether attempt ``k`` counts depends on
the outcomes of attempts ``0..k-1``.  The engine therefore:

1. runs attempts **speculatively** out of order across workers (bounded
   per cell by a speculation window sized to the crashes still needed);
2. buffers finished results per ``(cell, attempt)``;
3. **merges** each cell's buffer in attempt order, re-evaluating the
   stopping rule before consuming each attempt;
4. discards (as "wasted speculation") any buffered attempt past the
   point where the cell stopped.

The merged :class:`Table1` is then identical for any job count and any
completion order; ``results`` lists stay in attempt order via
``CampaignCell.record(..., order=attempt)``.  ``jobs=1`` takes the same
schedule on the pool's in-process mode, so configs and results still
round-trip through JSON and exercise the identical wire format.

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

import dataclasses
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.types import ALL_FAULT_TYPES, FaultType
from repro.reliability.campaign import (
    CrashTestConfig,
    CrashTestResult,
    SYSTEM_NAMES,
    _params_to_json,
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
    wasted_speculation: int = 0  #: run (or in flight) past the cell's stopping point
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
    next_attempt: int = 0  #: next attempt index not yet scheduled
    merged_upto: int = 0  #: attempts consumed by the attempt-order merge
    done: bool = False  #: the stopping rule has fired
    buffer: dict = field(default_factory=dict)  #: attempt -> CrashTestResult

    def key(self, attempt: int) -> TrialKey:
        return (self.system, self.fault_type.value, attempt)


def run_trial_json(config_dict: dict) -> dict:
    """The pool task: one Table 1 trial, JSON in, JSON out."""
    return run_crash_test(CrashTestConfig.from_json_dict(config_dict)).to_json_dict()


# -- the engine --------------------------------------------------------------


class CampaignEngine:
    """One campaign invocation; see the module docstring for design."""

    #: Speculative attempts scheduled per crash still needed (the paper
    #: discards "about half" of runs, so 2x is the natural oversubscription).
    speculation = 2

    def __init__(
        self,
        crashes_per_cell: int = 10,
        systems: tuple = SYSTEM_NAMES,
        fault_types: tuple = ALL_FAULT_TYPES,
        base_seed: int = 1000,
        max_attempts_factor: int = 5,
        config_overrides: Optional[dict] = None,
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
        self.config_overrides = dict(config_overrides or {})
        self.jobs = max(1, jobs)
        self.checkpoint = checkpoint
        self.max_trials = max_trials
        self.progress = progress
        self.progress_interval_s = progress_interval_s

        self.stats = EngineStats()
        self.complete = False
        self.table = Table1(crashes_per_cell=crashes_per_cell)
        self._cells = [
            _CellState(
                system=system,
                fault_type=fault,
                cell=self.table.cell(system, fault),
                target=crashes_per_cell,
                max_attempts=crashes_per_cell * max_attempts_factor,
            )
            for system in self.systems
            for fault in self.fault_types
        ]
        self._cache: dict = {}
        self._journal: Optional[CampaignJournal] = None
        self._pool: Optional[WorkerPool] = None
        self._outstanding: dict = {}  # key -> (cell state, attempt)
        self._scheduled_exec = 0
        self._rr = 0
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
            while not all(cs.done for cs in self._cells):
                self._dispatch()
                if not self._outstanding:
                    if not self._may_execute():
                        break  # the max_trials budget is spent
                    # nothing in flight and nothing dispatchable: the
                    # remaining cells completed from cache in _dispatch
                    continue
                for event in self._pool.next_events():
                    self._merge(self._land(*event))
                self._emit_progress()
        finally:
            self._pool.close()
            if self._journal is not None:
                self._journal.close()
        self.stats.wall_seconds = time.monotonic() - self._t0
        self.complete = all(cs.done for cs in self._cells)
        self._emit_progress(force=True)
        return self.table

    # -- trials: identity, cache, merge ------------------------------------

    def _fingerprint(self) -> dict:
        overrides = {}
        for key, value in sorted(self.config_overrides.items()):
            if dataclasses.is_dataclass(value):
                value = _params_to_json(value)
            elif isinstance(value, tuple):
                value = list(value)
            overrides[key] = value
        return {
            "crashes_per_cell": self.crashes_per_cell,
            "systems": list(self.systems),
            "fault_types": [f.value for f in self.fault_types],
            "base_seed": self.base_seed,
            "max_attempts_factor": self.max_attempts_factor,
            "config_overrides": overrides,
        }

    def _config_json(self, cs: _CellState, attempt: int) -> dict:
        seed = seed_for(self.base_seed, cs.system, cs.fault_type, attempt)
        config = CrashTestConfig(
            system=cs.system,
            fault_type=cs.fault_type,
            seed=seed,
            **self.config_overrides,
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

    def _may_execute(self) -> bool:
        return self.max_trials is None or self._scheduled_exec < self.max_trials

    def _merge(self, cs: _CellState) -> None:
        """Consume buffered attempts in attempt order.

        The stopping rule — ``cell.crashes < N and attempt < N * factor``
        — is checked before consuming each attempt, so the cutoff lands
        on the same attempt index whatever order results arrived in.
        """
        was_done = cs.done
        while True:
            if not (cs.cell.crashes < cs.target and cs.merged_upto < cs.max_attempts):
                cs.done = True
                break
            result = cs.buffer.pop(cs.merged_upto, None)
            if result is None:
                break
            self._write_trace_artifact(cs, cs.merged_upto, result)
            cs.cell.record(result, order=cs.merged_upto)
            cs.merged_upto += 1
        if cs.done and not was_done:
            self.stats.wasted_speculation += len(cs.buffer)
            cs.buffer.clear()
            for key, (other, _attempt) in list(self._outstanding.items()):
                if other is cs:
                    del self._outstanding[key]
                    self._pool.cancel(key)
                    self.stats.wasted_speculation += 1
            self._emit_cell_line(cs)

    def _write_trace_artifact(
        self, cs: _CellState, attempt: int, result: CrashTestResult
    ) -> None:
        """Drop a per-corrupting-trial JSONL trace next to the journal.

        Written only for consumed (attempt-order-merged) trials that were
        traced, crashed, *and* corrupted — one ``<checkpoint>.traces/
        <system>__<fault>__<attempt>.jsonl`` each, a header line followed
        by one serialized event per line.  ``repro forensics`` reads
        these back to build per-trial reports.
        """
        if (
            self.checkpoint is None
            or result.trace_events is None
            or not result.crashed
            or not result.corrupted
        ):
            return
        outdir = self.checkpoint + ".traces"
        os.makedirs(outdir, exist_ok=True)
        fault = cs.fault_type.value.replace(" ", "_").replace("/", "_")
        path = os.path.join(outdir, f"{cs.system}__{fault}__{attempt}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "kind": "trace-header",
                "system": cs.system,
                "fault": cs.fault_type.value,
                "attempt": attempt,
                "seed": result.config.seed,
                "event_digest": result.event_digest,
            }
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            for ev in result.trace_events:
                fh.write(json.dumps(ev, sort_keys=True, separators=(",", ":")) + "\n")

    def _land(self, kind: str, key: TrialKey, payload: Optional[dict]) -> _CellState:
        """One pool event: journal the trial's result and hand it to its
        cell's buffer; returns the cell."""
        cs, attempt = self._outstanding.pop(key)
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
        return cs

    def _submit(self, cs: _CellState, attempt: int) -> None:
        self._scheduled_exec += 1
        self._outstanding[cs.key(attempt)] = (cs, attempt)
        self._pool.submit(cs.key(attempt), self._config_json(cs, attempt))

    # -- the schedule -----------------------------------------------------

    def _next_task(self) -> Optional[tuple]:
        """Round-robin over incomplete cells, bounded by each cell's
        speculation window."""
        n = len(self._cells)
        for i in range(n):
            cs = self._cells[(self._rr + i) % n]
            if cs.done or cs.next_attempt >= cs.max_attempts:
                continue
            window = max(self.speculation * (cs.target - cs.cell.crashes), 1)
            if cs.next_attempt - cs.merged_upto >= window:
                continue
            attempt = cs.next_attempt
            cs.next_attempt += 1
            self._rr = (self._rr + i + 1) % n
            return cs, attempt
        return None

    def _dispatch(self) -> None:
        while len(self._outstanding) < self.jobs + 2:
            task = self._next_task()
            if task is None:
                return
            cs, attempt = task
            cached = self._take_cached(cs, attempt)
            if cached is not None:
                self.stats.from_checkpoint += 1
                cs.buffer[attempt] = cached
                self._merge(cs)
                continue
            if not self._may_execute():
                return
            self._submit(cs, attempt)

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
        crashes = sum(cs.cell.crashes for cs in self._cells)
        target = sum(cs.target for cs in self._cells)
        discarded = sum(cs.cell.discarded for cs in self._cells)
        diverged = sum(cs.cell.divergences for cs in self._cells)
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
        for cs in self._cells:
            if cs.done:
                continue
            needed = cs.target - cs.cell.crashes
            rate = (
                cs.cell.crashes / cs.merged_upto if cs.merged_upto else 0.5
            )  # paper: "about half the time" a run survives and is discarded
            remaining += min(needed / max(rate, 0.1), cs.max_attempts - cs.merged_upto)
        return f"~{remaining / throughput:.0f}s"
