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
    table1_digest,
)

FAST = dict(max_ops_after_injection=80)

ONE_CELL = dict(
    crashes_per_cell=2,
    systems=("rio_prot",),
    fault_types=(FaultType.KERNEL_TEXT,),
    base_seed=7100,
    max_attempts_factor=3,
    **FAST,
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

    def test_torn_multibyte_tail_skipped_and_rerun(self, finished_journal):
        """A write cut short inside a UTF-8 character is a torn line like
        any other, not a ``UnicodeDecodeError``."""
        journal, want, _ = finished_journal
        lines = open(journal, "rb").read().splitlines()
        record = json.loads(lines[-1])
        record["note"] = "café"
        raw = json.dumps(record, ensure_ascii=False).encode()
        torn = raw[: raw.index("é".encode()) + 1]  # first byte of two
        open(journal, "wb").write(b"\n".join(lines[:-1] + [torn]))
        with pytest.warns(JournalWarning, match="not UTF-8"):
            engine, table = self.resume(journal)
        assert engine.stats.executed == 1, "exactly the torn trial re-runs"
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

    def test_other_op_budget_refuses_to_resume(self, finished_journal):
        """Trials run under another post-injection budget are other trials."""
        journal, _, _ = finished_journal
        other = dict(ONE_CELL, max_ops_after_injection=81)
        engine = CampaignEngine(**other, jobs=1, checkpoint=journal)
        with pytest.raises(CampaignResumeError, match="different campaign"):
            engine.run()

    def test_damaged_header_refuses_every_campaign(self, finished_journal):
        """Trial lines with no valid header cannot be vouched for: a
        resume refuses them — by this campaign, another one, or the
        explorer — instead of merging them and writing on headerless."""
        journal, _, _ = finished_journal
        lines = open(journal).read().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        damaged = "\n".join(lines) + "\n"
        open(journal, "w").write(damaged)
        for campaign in (ONE_CELL, dict(ONE_CELL, base_seed=9999)):
            engine = CampaignEngine(**campaign, jobs=1, checkpoint=journal)
            with pytest.warns(JournalWarning), pytest.raises(
                CampaignResumeError, match="no valid header"
            ):
                engine.run()
        from repro.explore import ExploreConfig, explore

        with pytest.warns(JournalWarning), pytest.raises(
            CampaignResumeError, match="no valid header"
        ):
            explore(ExploreConfig("basic", ops=0), checkpoint=journal)
        assert open(journal).read() == damaged, "nothing was appended"

    def test_journal_with_no_valid_record_starts_afresh_header_first(self, tmp_path):
        journal = tmp_path / "ckpt.jsonl"
        journal.write_text("}}not json{{\n{\"kind\": \"trial\", \"torn")
        with pytest.warns(JournalWarning):
            engine = CampaignEngine(**ONE_CELL, jobs=1, checkpoint=str(journal))
            want = table1_digest(engine.run())
        assert engine.stats.executed >= 2
        records = journal.read_text().splitlines()[2:]
        assert json.loads(records[0])["kind"] == "header"
        assert all(json.loads(line)["kind"] == "trial" for line in records[1:])
        with pytest.warns(JournalWarning):
            engine, table = self.resume(str(journal))
        assert engine.stats.executed == 0
        assert table1_digest(table) == want
