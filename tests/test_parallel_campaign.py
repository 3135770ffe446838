"""One table at every job count: the campaign engine's defining property.

A 3-system × 3-fault mini-campaign is run once through
``run_table1_campaign`` (the engine in process; the absolute oracle is
the digest pinned in ``test_golden_digests.py``) and then through the
engine at ``jobs=1``, ``jobs=4``, and with a forced mid-campaign
interruption and resume.  Every variant must produce a ``Table1`` whose
canonical digest — every cell's crashes, corruptions, trap saves,
discards, and per-trial results, in attempt order — is the same.

The trial configs are shrunk (small memTest, tight post-injection
budget) so the whole module stays in tier-1 time; equivalence does not
depend on trial size.
"""

import os

import pytest

from repro.__main__ import main
from repro.faults import FaultType
from repro.reliability import (
    CampaignEngine,
    run_table1_campaign,
    table1_digest,
)
from repro.reliability.journal import read_trials
from repro.workloads.memtest import MemTestParams

MINI_CAMPAIGN = dict(
    crashes_per_cell=1,
    systems=("disk", "rio_noprot", "rio_prot"),
    fault_types=(FaultType.KERNEL_TEXT, FaultType.KERNEL_STACK, FaultType.POINTER),
    base_seed=4200,
    max_attempts_factor=3,
    config_overrides=dict(
        max_ops_after_injection=80,
        sim_budget_s=30.0,
        andrew_copies=1,
        inject_after_ops=(5, 15),
        memtest=MemTestParams(
            max_files=8, max_dirs=2, max_file_bytes=16 * 1024, max_io_bytes=4 * 1024
        ),
    ),
)

#: One cheap single-cell campaign for the worker-death tests.
ONE_CELL = dict(
    crashes_per_cell=1,
    systems=("rio_prot",),
    fault_types=(FaultType.KERNEL_TEXT,),
    base_seed=4200,
    max_attempts_factor=3,
    config_overrides=MINI_CAMPAIGN["config_overrides"],
)


@pytest.fixture(scope="module")
def serial_oracle():
    table = run_table1_campaign(**MINI_CAMPAIGN)
    return table, table1_digest(table)


class TestEquivalence:
    def test_jobs_1_matches_serial(self, serial_oracle):
        _, want = serial_oracle
        table = CampaignEngine(**MINI_CAMPAIGN, jobs=1).run()
        assert table1_digest(table) == want

    def test_jobs_4_matches_serial(self, serial_oracle):
        _, want = serial_oracle
        engine = CampaignEngine(**MINI_CAMPAIGN, jobs=4)
        table = engine.run()
        assert table1_digest(table) == want
        assert engine.complete
        # Speculation may run extra trials but never changes the table:
        # at least one executed trial per counted crash, possibly more.
        assert engine.stats.executed >= table.total_crashes("disk") + table.total_crashes(
            "rio_noprot"
        ) + table.total_crashes("rio_prot")

    def test_cell_counters_match_serial_cell_by_cell(self, serial_oracle):
        oracle, _ = serial_oracle
        table = CampaignEngine(**MINI_CAMPAIGN, jobs=4).run()
        for key, cell in oracle.cells.items():
            other = table.cells[key]
            assert (
                cell.crashes,
                cell.corruptions,
                cell.discarded,
                cell.protection_trap_saves,
                cell.crash_kinds,
            ) == (
                other.crashes,
                other.corruptions,
                other.discarded,
                other.protection_trap_saves,
                other.crash_kinds,
            ), key

    def test_interrupt_and_resume_matches_serial(self, serial_oracle, tmp_path):
        _, want = serial_oracle
        journal = str(tmp_path / "checkpoint.jsonl")

        first = CampaignEngine(**MINI_CAMPAIGN, jobs=1, checkpoint=journal, max_trials=4)
        first.run()
        assert not first.complete, "interruption budget was not reached"
        assert first.stats.executed == 4

        resumed = CampaignEngine(**MINI_CAMPAIGN, jobs=4, checkpoint=journal)
        table = resumed.run()
        assert resumed.complete
        assert table1_digest(table) == want
        assert resumed.stats.from_checkpoint == 4, "journaled trials must not re-run"

        resumed_again = CampaignEngine(**MINI_CAMPAIGN, jobs=1, checkpoint=journal)
        table3 = resumed_again.run()
        assert table1_digest(table3) == want
        assert resumed_again.stats.executed == 0, "a finished campaign must resume for free"


    def test_journals_agree_on_every_consumed_trial(self, tmp_path):
        """Line order and speculation past a cell's stopping point are
        free; the trials the table consumed are not."""
        entries = {}
        for jobs in (1, 4):
            journal = str(tmp_path / f"jobs{jobs}.jsonl")
            table = CampaignEngine(**MINI_CAMPAIGN, jobs=jobs, checkpoint=journal).run()
            consumed = {
                (system, fault.value, attempt)
                for (system, fault), cell in table.cells.items()
                for attempt in range(len(cell.results))
            }
            trials = read_trials(journal)
            assert consumed <= set(trials)
            entries[jobs] = {key: trials[key] for key in consumed}
        assert entries[1] == entries[4]


class TestCli:
    def test_one_path_whatever_the_flags(self, tmp_path, capsys):
        """``repro table1`` prints the same table in process and through
        two checkpointing workers, and resuming a finished journal runs
        nothing."""
        journal = str(tmp_path / "table1.jsonl")
        argv = ["table1", "--scale", "1", "--systems", "rio_prot", "--faults", "kernel text"]

        def table(out: str) -> str:
            return out[out.index("Fault Type"):]

        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--jobs", "2", "--resume", journal]) == 0
        parallel = capsys.readouterr()
        assert table(plain.out) == table(parallel.out)
        assert "0 from checkpoint" in plain.err

        assert main(argv + ["--jobs", "2", "--resume", journal]) == 0
        resumed = capsys.readouterr()
        assert table(resumed.out) == table(plain.out)
        assert "(0 trials run, " in resumed.err


class TestWorkerDeath:
    @pytest.fixture()
    def oracle_one_cell(self):
        table = run_table1_campaign(**ONE_CELL)
        return table1_digest(table)

    def test_killed_worker_retries_and_output_is_unchanged(
        self, oracle_one_cell, tmp_path, monkeypatch
    ):
        fault = FaultType.KERNEL_TEXT.value
        monkeypatch.setenv(
            "RIO_ENGINE_TEST_KILL", f"rio_prot|{fault}|0|1|{tmp_path / 'kills'}"
        )
        engine = CampaignEngine(**ONE_CELL, jobs=2)
        table = engine.run()
        assert engine.stats.worker_crashes == 1
        assert engine.stats.quarantined == []
        assert table1_digest(table) == oracle_one_cell

    def test_repeat_killer_is_quarantined(self, tmp_path, monkeypatch):
        fault = FaultType.KERNEL_TEXT.value
        monkeypatch.setenv(
            "RIO_ENGINE_TEST_KILL", f"rio_prot|{fault}|0|2|{tmp_path / 'kills'}"
        )
        engine = CampaignEngine(**ONE_CELL, jobs=2)
        table = engine.run()
        assert engine.complete, "quarantine must let the campaign finish"
        assert engine.stats.worker_crashes == 2
        assert engine.stats.quarantined == [("rio_prot", fault, 0)]
        cell = table.cell("rio_prot", FaultType.KERNEL_TEXT)
        quarantined = [r for r in cell.results if r.crash_kind == "worker_crashed"]
        assert len(quarantined) == 1
        assert quarantined[0].discarded and not quarantined[0].crashed
        # The campaign still collected its counted crash from a later attempt.
        assert cell.crashes == 1


class TestEngineSurface:
    def test_progress_lines_emitted(self):
        lines = []
        CampaignEngine(
            **ONE_CELL, jobs=1, progress=lines.append, progress_interval_s=0.0
        ).run()
        assert any("crashes counted" in line for line in lines)
        assert any("rio_prot/kernel text:" in line for line in lines)

    def test_max_trials_zero_runs_nothing(self):
        engine = CampaignEngine(**ONE_CELL, jobs=1, max_trials=0)
        table = engine.run()
        assert engine.stats.executed == 0
        assert not engine.complete
        assert table.total_crashes("rio_prot") == 0

    def test_worker_env_flag_absent_is_inert(self, monkeypatch):
        monkeypatch.delenv("RIO_ENGINE_TEST_KILL", raising=False)
        engine = CampaignEngine(**ONE_CELL, jobs=2)
        engine.run()
        assert engine.stats.worker_crashes == 0
