"""Checkpoint journal robustness and CrashTestResult serializability.

The journal contract: a damaged checkpoint can cost re-run time, never
correctness — truncated or garbled lines are skipped with a
JournalWarning and their trials re-run; nothing corrupt is ever counted.
"""

import json

import pytest

from repro.faults import FaultType
from repro.reliability import (
    CampaignEngine,
    CampaignResumeError,
    CrashTestConfig,
    CrashTestResult,
    JournalWarning,
    run_crash_test,
    run_table1_campaign,
    table1_digest,
)
from repro.workloads.memtest import MemTestParams

FAST = dict(
    max_ops_after_injection=80,
    sim_budget_s=30.0,
    andrew_copies=1,
    inject_after_ops=(5, 15),
    memtest=MemTestParams(
        max_files=8, max_dirs=2, max_file_bytes=16 * 1024, max_io_bytes=4 * 1024
    ),
)

ONE_CELL = dict(
    crashes_per_cell=2,
    systems=("rio_prot",),
    fault_types=(FaultType.KERNEL_TEXT,),
    base_seed=7100,
    max_attempts_factor=3,
    config_overrides=FAST,
)


@pytest.fixture(scope="module")
def crash_result():
    """One real crashed-and-recovered trial, with the live system kept."""
    result = run_crash_test(
        CrashTestConfig(
            system="rio_prot",
            fault_type=FaultType.KERNEL_TEXT,
            seed=3,
            keep_system=True,
            **FAST,
        )
    )
    assert result.crashed
    assert result._system is not None
    return result


class TestResultSerialization:
    def test_json_round_trip(self, crash_result):
        wire = json.loads(json.dumps(crash_result.to_json_dict()))
        clone = CrashTestResult.from_json_dict(wire)
        assert clone.to_json_dict() == crash_result.to_json_dict()
        # Tuples inside params are restored (JSON has only lists).
        assert isinstance(clone.config.inject_after_ops, tuple)
        assert isinstance(clone.config.memtest.weights, tuple)
        assert isinstance(clone.config.faults.kmalloc_interval, tuple)
        assert clone.config.fault_type is FaultType.KERNEL_TEXT
        assert clone.corrupted == crash_result.corrupted

    def test_detach_is_explicit_and_returns_self(self, crash_result):
        wire = crash_result.to_json_dict()
        clone = CrashTestResult.from_json_dict(wire)
        assert clone.detach() is clone and clone._system is None

    def test_without_keep_system_no_backreference(self):
        result = run_crash_test(
            CrashTestConfig(
                system="rio_prot", fault_type=FaultType.KERNEL_TEXT, seed=3, **FAST
            )
        )
        assert result._system is None


class TestJournalCorruption:
    @pytest.fixture()
    def finished_journal(self, tmp_path):
        """A completed one-cell campaign and its checkpoint."""
        journal = str(tmp_path / "ckpt.jsonl")
        engine = CampaignEngine(**ONE_CELL, jobs=1, checkpoint=journal)
        table = engine.run()
        assert engine.complete and engine.stats.executed >= 2
        return journal, table1_digest(table), engine.stats.executed

    def resume(self, journal):
        engine = CampaignEngine(**ONE_CELL, jobs=1, checkpoint=journal)
        table = engine.run()
        return engine, table

    def test_clean_resume_runs_nothing(self, finished_journal):
        journal, want, _ = finished_journal
        engine, table = self.resume(journal)
        assert engine.stats.executed == 0
        assert table1_digest(table) == want

    def test_truncated_line_skipped_and_rerun(self, finished_journal):
        journal, want, _ = finished_journal
        lines = open(journal).read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn mid-write
        open(journal, "w").write("\n".join(lines) + "\n")
        with pytest.warns(JournalWarning, match="unparseable JSON"):
            engine, table = self.resume(journal)
        assert engine.stats.checkpoint_lines_skipped == 1
        assert engine.stats.executed == 1, "exactly the damaged trial re-runs"
        assert table1_digest(table) == want

    def test_bad_checksum_skipped_and_rerun(self, finished_journal):
        journal, want, _ = finished_journal
        lines = open(journal).read().splitlines()
        record = json.loads(lines[2])
        record["result"]["crashed"] = not record["result"]["crashed"]  # garbled
        lines[2] = json.dumps(record)
        open(journal, "w").write("\n".join(lines) + "\n")
        with pytest.warns(JournalWarning, match="checksum mismatch"):
            engine, table = self.resume(journal)
        assert engine.stats.executed == 1
        assert table1_digest(table) == want, "a garbled result must never be counted"

    def test_garbage_line_skipped(self, finished_journal):
        journal, want, _ = finished_journal
        with open(journal, "a") as fh:
            fh.write("}}not json at all{{\n")
        with pytest.warns(JournalWarning):
            engine, table = self.resume(journal)
        assert engine.stats.executed == 0
        assert table1_digest(table) == want

    def test_wrong_seed_entry_rerun(self, finished_journal):
        journal, want, _ = finished_journal
        from repro.reliability.journal import _crc

        lines = open(journal).read().splitlines()
        record = json.loads(lines[1])
        record["seed"] += 1  # valid line, wrong schedule position
        record["crc"] = _crc(record)
        lines[1] = json.dumps(record)
        open(journal, "w").write("\n".join(lines) + "\n")
        with pytest.warns(JournalWarning, match="seed"):
            engine, table = self.resume(journal)
        assert engine.stats.executed == 1
        assert table1_digest(table) == want

    def test_repaired_journal_resumes_free_after_rerun(self, finished_journal):
        # A re-run appends a fresh line that supersedes the damaged one
        # (last valid wins), so the *next* resume is free again.
        journal, want, _ = finished_journal
        lines = open(journal).read().splitlines()
        lines[1] = lines[1][:30]
        open(journal, "w").write("\n".join(lines) + "\n")
        with pytest.warns(JournalWarning):
            engine, _ = self.resume(journal)
        assert engine.stats.executed == 1
        # The damaged line stays in the file (append-only journal), so it
        # still warns — but the superseding line makes the resume free.
        with pytest.warns(JournalWarning):
            engine2, table2 = self.resume(journal)
        assert engine2.stats.executed == 0
        assert table1_digest(table2) == want

    def test_mismatched_campaign_refuses_to_resume(self, finished_journal):
        journal, _, _ = finished_journal
        other = dict(ONE_CELL, base_seed=9999)
        engine = CampaignEngine(**other, jobs=1, checkpoint=journal)
        with pytest.raises(CampaignResumeError, match="different campaign"):
            engine.run()
