"""The explorer finds the planted ordering bug — and only the bug.

``ServiceConfig(ack_before_execute=True)`` is a deliberately planted
durability bug: the file service journals, answers, and **acks a write
before executing it**.  The ack-to-execute window is invisible to every
clean run and to any test that only samples crash timing; the
exhaustive sweep hits it by construction, because ``server/ack`` is an
enumerated boundary kind.

The contract under test:

* the explorer names the exact ``(seed, event_index)`` of the lost ack;
* replaying that pair reproduces the identical violation and dumps a
  byte-identical post-recovery image (``RIOIMG1``, read back and
  digest-checked here);
* a sweep's trial, whose recorder stops at the crash, writes the same
  artifact bytes as a fully recorded trial of the same boundary;
* the identical sweep **without** the planted bug is violation-free —
  the counterexample is the bug's, not the harness's.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from repro.explore import (
    ExploreConfig,
    replay,
    replay_command,
    run_boundary_trial,
    run_enumeration,
)
from repro.explore.explorer import _dump_counterexample, _trial
from repro.fs.dissect import load_image

BUGGED = ExploreConfig(
    workload="traffic", clients=1, ops_per_client=3, plant_ack_bug=True
)
CONTROL = ExploreConfig(
    workload="traffic", clients=1, ops_per_client=3, plant_ack_bug=False
)


def ack_boundaries(config):
    boundaries = [
        b for b in run_enumeration(config).boundaries if b.key() == "server/ack"
    ]
    assert boundaries, "the traffic workload stopped emitting server/ack events"
    return boundaries


@pytest.fixture(scope="module")
def bug_verdicts():
    """Crash the bugged service at every acknowledgement boundary."""
    return [(b, run_boundary_trial(BUGGED, b)) for b in ack_boundaries(BUGGED)]


class TestPlantedBugIsFound:
    def test_sweep_finds_lost_acks(self, bug_verdicts):
        lost = [v for _, v in bug_verdicts if v.violations]
        assert lost, "the sweep missed the planted ack-before-execute bug"
        clauses = {vi.clause for _, v in bug_verdicts for vi in v.violations}
        assert clauses == {"acked-data-durable"}

    def test_counterexample_names_the_exact_event(self, bug_verdicts):
        for boundary, verdict in bug_verdicts:
            for violation in verdict.violations:
                assert violation.event_index == boundary.index
                assert violation.seed == BUGGED.seed
                assert violation.workload == "traffic"
                assert "lost acknowledgement" in violation.detail

    def test_replay_reproduces_the_violation(self, bug_verdicts, tmp_path):
        boundary, sweep_verdict = next(
            (b, v) for b, v in bug_verdicts if v.violations
        )
        replayed = replay(BUGGED, boundary.index, artifact_dir=str(tmp_path))
        assert not replayed.ok
        assert [v.to_json_dict() for v in replayed.violations] == [
            v.to_json_dict() for v in sweep_verdict.violations
        ]
        # Identical recovered reality, not merely an identical verdict.
        assert replayed.image_sha256 == sweep_verdict.image_sha256

    def test_dumped_image_replays_to_the_same_state(self, bug_verdicts, tmp_path):
        boundary, _ = next((b, v) for b, v in bug_verdicts if v.violations)
        replayed = replay(BUGGED, boundary.index, artifact_dir=str(tmp_path))
        assert replayed.artifact_image and replayed.artifact_report
        payload, meta = load_image(replayed.artifact_image)
        assert hashlib.sha256(payload).hexdigest() == replayed.image_sha256
        assert meta["event_index"] == boundary.index
        assert meta["boundary"] == "server/ack"
        report_text = open(replayed.artifact_report, encoding="utf-8").read()
        assert "acked-data-durable" in report_text
        assert replay_command(BUGGED, boundary.index) in report_text
        assert "--plant-ack-bug" in report_text  # the hint must reproduce

    def test_artifacts_match_a_fully_recorded_trial(self, bug_verdicts, tmp_path):
        """The forensic report reads the whole event stream, which a
        sweep's trial no longer records past the crash: a violating trial
        re-runs fully recorded before it writes, so its image and report
        are byte for byte those of a trial recorded end to end."""
        boundary = next(b for b, v in bug_verdicts if v.violations)
        swept = run_boundary_trial(BUGGED, boundary, artifact_dir=str(tmp_path / "sweep"))
        recorded, run = _trial(BUGGED, boundary, record_all=True)
        _dump_counterexample(BUGGED, boundary, run, recorded, str(tmp_path / "recorded"))
        assert swept.canonical_json_dict() == recorded.canonical_json_dict()
        for path, oracle in (
            (swept.artifact_image, recorded.artifact_image),
            (swept.artifact_report, recorded.artifact_report),
        ):
            assert open(path, "rb").read() == open(oracle, "rb").read()

    def test_replay_command_rebuilds_the_config_it_names(self):
        """The printed line parsed by the real CLI gives back the config:
        ``--backend`` used to be dropped, so a counterexample found under
        a tiered backend replayed a different run.  Every config field
        is a ``repro explore`` argument, so every config has a line."""
        from repro.__main__ import build_parser

        config = ExploreConfig("basic", backend="tiered", ops=3)
        line = replay_command(config, 17)
        assert line == "basic --system rio_prot --seed 1 --ops 3 --backend tiered --replay 17"
        args = build_parser().parse_args(["explore", *line.split()])
        assert all(hasattr(args, f.name) for f in fields(config))
        flagged = {f.name: getattr(args, f.name) for f in fields(config)}
        assert ExploreConfig(**flagged) == config and args.replay == 17

    def test_replay_rejects_a_non_boundary_index(self):
        from repro.explore import ExploreError

        with pytest.raises(ExploreError, match="not a boundary"):
            replay(BUGGED, 0)


class TestControlStaysClean:
    def test_unplanted_service_survives_every_ack_boundary(self):
        """The same sweep over the correct service: every ack boundary
        recovers with zero violations, so the counterexamples above are
        attributable to the planted ordering bug alone."""
        for boundary in ack_boundaries(CONTROL):
            verdict = run_boundary_trial(CONTROL, boundary)
            assert verdict.fired
            assert verdict.ok, [v.detail for v in verdict.violations]
