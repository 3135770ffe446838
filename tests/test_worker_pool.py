"""The one worker pool, exercised from both of its clients.

``tests/test_parallel_campaign.py::TestWorkerDeath`` covers worker
death under the batching Table 1 scheduler.  This module covers the
other client — :class:`ParallelMap`, the path the crash-point explorer,
the chaos matrix and the ``explore_traffic`` benchmark run — plus the
pool-level contracts both share: a task that *raises* aborts with the
key named, results stream as they land (so an interrupted explorer
sweep keeps what finished), a worker's death is seen at once, and no
worker outlives its pool.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import multiprocessing
import signal

import pytest

import repro.explore.explorer as explorer
import repro.reliability.engine as engine
from repro.__main__ import main
from repro.explore import ExploreConfig, explore
from repro.faults import FaultType
from repro.reliability import CampaignEngine, CampaignWorkerError, ParallelMap, WorkerPool
from repro.reliability.journal import read_trials

BASIC = ExploreConfig("basic", ops=0)


def _square_or_raise(payload: dict) -> dict:
    if payload.get("boom"):
        raise ValueError(f"boom {payload['n']}")
    return {"n": payload["n"], "sq": payload["n"] ** 2}


TASK = f"{__name__}:_square_or_raise"


def _count_then_litter(payload: dict) -> dict:
    """Report what the collector tracks in this worker as the task
    starts -- what the tasks before it left behind -- then leave a ring
    of ``n`` lists behind: cyclic garbage that lives long enough to be
    promoted out of the youngest generation, as a trial's object graph is."""
    tracked = len(gc.get_objects())
    ring = [[] for _ in range(payload["n"])]
    for node, successor in zip(ring, ring[1:] + ring[:1]):
        node.append(successor)
    return {"pid": os.getpid(), "tracked": tracked}


LITTER = f"{__name__}:_count_then_litter"


@pytest.fixture(scope="module")
def clean_sweep():
    """The un-killed, uninterrupted sweep every variant must reproduce."""
    report = explore(BASIC, jobs=2)
    assert report.complete and report.violations == []
    return report


def victim_of(report) -> int:
    """The sweep's first task."""
    return report.verdicts[0].boundary.index


@contextlib.contextmanager
def finishes_within(seconds: float):
    """Fail, rather than hang, a block that runs longer than ``seconds``."""

    def overrun(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestParallelMap:
    @pytest.mark.parametrize("jobs", [1, 4])  # 4 > the CI box's 2 cores
    def test_keyed_results_are_jobs_independent(self, jobs):
        tasks = [(("t", n), {"n": n}) for n in range(200)]
        pmap = ParallelMap(TASK, jobs=jobs)
        landed = list(pmap.stream(tasks))
        assert dict(landed) == {("t", n): {"n": n, "sq": n * n} for n in range(200)}
        assert len(landed) == 200 and pmap.stats.executed == 200
        assert pmap.stats.worker_crashes == 0 and pmap.stats.quarantined == []
        if jobs == 1:
            assert [key for key, _ in landed] == [key for key, _ in tasks]
        assert multiprocessing.active_children() == []

    def test_no_tasks_starts_no_workers(self):
        assert ParallelMap(TASK, jobs=2).run([]) == {}

    def test_abandoned_stream_tears_the_pool_down(self):
        stream = ParallelMap(TASK, jobs=2).stream([(n, {"n": n}) for n in range(50)])
        next(stream)
        stream.close()
        assert multiprocessing.active_children() == []


class TestWorkerHeap:
    def test_a_worker_keeps_only_live_data(self):
        """After its first task a worker's tracked objects stay flat:
        each task's cyclic garbage is collected before the next task,
        rather than piling up until a full collection."""
        pool = WorkerPool(LITTER, jobs=2)
        try:
            for n in range(16):
                pool.submit(n, {"n": 20_000})
            by_worker: dict = {}
            while pool.pending:
                for _kind, key, result in pool.next_events():
                    by_worker.setdefault(result["pid"], []).append((key, result["tracked"]))
        finally:
            pool.close()
        assert max(len(counts) for counts in by_worker.values()) >= 3
        for counts in by_worker.values():
            after_tasks = [tracked for _key, tracked in sorted(counts)[1:]]
            assert len(set(after_tasks)) <= 1, after_tasks


class TestWorkerDeath:
    def test_a_kill_right_after_a_shipped_result_never_stalls_the_pool(
        self, tmp_path, monkeypatch
    ):
        """Fifty runs, each killing the worker that takes task 5 -- by
        then that worker has shipped a result -- must each finish in a
        few seconds with every result in: a dead worker holds no lock
        another needs, and its death is seen as soon as it happens."""
        tasks = [(("t", "x", n), {"n": n}) for n in range(8)]
        for run in range(50):
            monkeypatch.setenv("RIO_ENGINE_TEST_KILL", f"t|x|5|1|{tmp_path / str(run)}")
            pool, landed = WorkerPool(TASK, jobs=2), {}
            try:
                with finishes_within(3.0):
                    for key, payload in tasks:
                        pool.submit(key, payload)
                    while pool.pending:
                        for kind, key, result in pool.next_events():
                            landed[key] = (kind, result)
            finally:
                pool.close()
            assert landed == {key: ("done", {"n": p["n"], "sq": p["n"] ** 2}) for key, p in tasks}
            assert pool.stats.worker_crashes == 1 and pool.stats.quarantined == []
        assert multiprocessing.active_children() == []


class TestTaskThatRaises:
    """A raise is a deterministic bug, not a death: no retry, loud abort."""

    def test_parallel_map_names_the_key(self):
        pmap = ParallelMap(TASK, jobs=2)
        tasks = [(("t", 0), {"n": 0}), (("t", 1), {"n": 1, "boom": True})]
        with pytest.raises(CampaignWorkerError, match=r"\('t', 1\): ValueError: boom 1"):
            pmap.run(tasks)
        assert pmap.stats.worker_crashes == 0
        assert multiprocessing.active_children() == []

    def test_campaign_engine_names_the_key(self, monkeypatch):
        def broken(config):
            raise RuntimeError("simulator bug")

        monkeypatch.setattr(engine, "run_crash_test", broken)  # forked workers inherit it
        campaign = CampaignEngine(
            crashes_per_cell=1,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT,),
            max_ops_after_injection=80,
            jobs=2,
        )
        with pytest.raises(
            CampaignWorkerError,
            match=r"\('rio_prot', 'kernel text', \d\): RuntimeError: simulator bug",
        ):
            campaign.run()
        assert multiprocessing.active_children() == []


@pytest.mark.slow
class TestWorkerDeathOnTheMapPath:
    def test_one_kill_is_retried_and_the_report_is_unchanged(
        self, clean_sweep, tmp_path, monkeypatch
    ):
        victim = victim_of(clean_sweep)
        monkeypatch.setenv(
            "RIO_ENGINE_TEST_KILL", f"basic|boundary|{victim}|1|{tmp_path / 'kills'}"
        )
        lines = []
        report = explore(BASIC, jobs=2, progress=lines.append)
        assert report.report_digest() == clean_sweep.report_digest()
        assert report.complete and report.quarantined == []
        assert report.executed == report.boundaries_total
        # The pool says one line per worker death: exactly one happened.
        assert [line for line in lines if "worker" in line] == [
            f"worker died on basic/boundary/{victim} (worker_crashed); retrying once"
        ]

    def test_two_kills_quarantine_the_boundary(
        self, clean_sweep, tmp_path, monkeypatch, capsys
    ):
        victim = victim_of(clean_sweep)
        monkeypatch.setenv(
            "RIO_ENGINE_TEST_KILL", f"basic|boundary|{victim}|2|{tmp_path / 'kills'}"
        )
        code = main(["explore", "basic", "--ops", "0", "--jobs", "2", "--json"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 2, "an incomplete sweep must not exit 0 or 1"
        assert out["quarantined"] == [["basic", "boundary", victim]]
        assert not out["complete"] and out["coverage_percent"] < 100.0
        assert out["executed"] == out["boundaries_total"] - 1
        assert captured.err.count("worker died") == 2
        # Every other verdict is the clean sweep's.
        assert out["verdicts"] == [
            v.to_json_dict() for v in clean_sweep.verdicts if v.boundary.index != victim
        ]


@pytest.mark.slow
def test_interrupted_sweep_keeps_every_finished_trial(clean_sweep, tmp_path, monkeypatch):
    """``explore --resume``: verdicts are journaled as they land, so a
    sweep that dies at its k-th trial resumes with k-1 of them done."""
    k = 40
    checkpoint = str(tmp_path / "explore.jsonl")
    real, calls = explorer.run_trial_task, []

    def dies_at_k(payload):
        calls.append(payload["boundary"]["index"])
        if len(calls) == k:
            raise MemoryError("host ran out of memory")
        return real(payload)

    monkeypatch.setattr(explorer, "run_trial_task", dies_at_k)
    with pytest.raises(MemoryError):
        explore(BASIC, jobs=1, checkpoint=checkpoint)
    assert [key[2] for key in read_trials(checkpoint)] == calls[: k - 1]

    monkeypatch.setattr(explorer, "run_trial_task", real)
    resumed = explore(BASIC, jobs=1, checkpoint=checkpoint)
    assert resumed.from_checkpoint == k - 1
    assert resumed.executed == resumed.boundaries_total - (k - 1)
    assert resumed.complete
    assert resumed.report_digest() == clean_sweep.report_digest()
