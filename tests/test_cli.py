"""Every ``repro`` subcommand, driven in process through ``main(argv)``.

This is the one gate for the command line: each registered subcommand
runs here with the arguments (and the output checks) its retired
``make`` / CI smoke step used — plus ``--json`` on ``chaos`` and
``fsck-remote`` so the reports' wire forms run too — and the last test
holds the set of commands exercised equal to the set ``main`` registers:
a new subcommand without a scenario fails tier-1.  Host paths a command
cannot use and journals of another campaign must end in a message, never
a traceback.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random

import pytest

from repro.__main__ import COMMANDS, build_parser, main
from repro.reliability import JournalWarning
from repro.reliability.journal import _crc

REPO = pathlib.Path(__file__).parent.parent
EXPLORE = ["explore", "basic", "--ops", "0", "--jobs", "2", "--resume", "{tmp}/explore.jsonl"]

#: scenario -> steps ``(argv, exit status, substrings of stdout)``, run in
#: order sharing one scratch directory (``{tmp}``).
SCENARIOS = {
    # The numbers EXPERIMENTS.md quotes for footnote 1, AdvFS recovery,
    # section 2.2, section 2.3 and section 6: virtual time, so exact.
    "demo": [
        (
            ["demo"],
            0,
            [
                "recovered: b'memory, surviving a crash'",
                "reliability writes on recovered b'memory, surviving a crash'; "
                "without them FileNotFound",
                "journal replay applied 4 records, 0 fsck fixes",
                "34.2 s = 30 s reset + 3.21 s dump + 1.0 s restore; a 48 B registry entry",
            ],
        )
    ],
    "table2": [
        (
            ["table2"],
            0,
            [
                "Rio with protection",
                "Headline ratios",
                "Section 2.1, 64 x 8 KB",
                "1693-page UBC on Rio with protection: 211 disk writes from 1 overflow sweep, "
                "107 evictions",
                "Rio 6044.7 tps, write-through 23.2 tps (260x); protection +0.0 %",
            ],
        )
    ],
    "analyze": [
        (
            ["analyze", "bcopy"],
            0,
            ["=== bcopy (18 words) ===\n    bis a2, zero, v0", "patch: 2 stores checked; +14 words"],
        ),
        (["analyze", "no_such_routine"], 2, ["unknown routine"]),
    ],
    # A traced 2-job campaign (disk/pointer corrupts within its first
    # attempts under the default seed schedule), then forensics over it.
    "forensics": [
        (
            ["table1", "--scale", "2", "--jobs", "2", "--systems", "disk", "--faults", "pointer",
             "--resume", "{tmp}/campaign.jsonl", "--trace-corruptions"],
            0,
            ["table1 digest: "],
        ),
        (["forensics", "{tmp}/campaign.jsonl"], 0, ["first divergent store"]),
    ],
    "serve": [(["serve", "--clients", "16", "--crashes", "3"], 0, ["ZERO LOST ACKS"])],
    # The second step's 96 clients need more than the default eight inode
    # blocks: a lone kernel is sized for its clients as a shard is, so no
    # request fails.
    "loadgen": [
        (["loadgen", "--clients", "4", "--ops", "6"], 0, ["ZERO LOST ACKS"]),
        (
            ["loadgen", "--clients", "96", "--ops", "12", "--system", "disk"],
            0,
            ["0 observed / 0 requested", "(failed 0,", "lost acks       0\n", "ZERO LOST ACKS"],
        ),
    ],
    # A fault storm on a tiered backend, through worker processes.
    "cluster": [
        (
            ["cluster", "--shards", "2", "--clients", "8", "--ops", "10", "--router", "hash",
             "--jobs", "2", "--storm", "faults", "--crashes", "1", "--backend", "tiered"],
            0,
            ["ZERO LOST ACKS"],
        )
    ],
    "chaos": [
        (
            ["chaos", "--clients", "8", "--ops", "12", "--crashes", "1", "--jobs", "2",
             "--trials", "baseline,slow_io,fail_nth_syscall", "--json"],
            0,
            ['"ok": true'],
        )
    ],
    # Every boundary of a small workload crashed at --jobs 2: full
    # coverage, no violation; resuming the finished sweep re-runs nothing.
    "explore": [
        (EXPLORE, 0, ["(100.0%)", "violations: none"]),
        (EXPLORE, 0, ["(100.0%)", "trials: 0 run, "]),
    ],
    "images": [
        (["dump-disk", "{tmp}/aged.img", "--age", "20"], 0, ["sha256"]),
        (["dissect", "{tmp}/aged.img"], 0, []),
        (["load-disk", "{tmp}/aged.img"], 0, ["fsck and dissect agree"]),
    ],
    # The worked outage drill: reconcile defers while the store is down,
    # one batch pass after the heal, dissect second opinion.
    "fsck-remote": [(["fsck-remote", "--batch", "--outage", "--json"], 0, ["verdicts AGREE"])],
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario(scenario, tmp_path, capsys):
    for argv, status, expected in SCENARIOS[scenario]:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == status, argv
        out = capsys.readouterr().out
        for text in expected:
            assert text in out, (argv, text)


def test_explore_prints_a_counterexample_whose_replay_line_reproduces_it(tmp_path, capsys):
    """What a user sees when a sweep finds a bug: the clause, the event,
    the dumped artifacts and a ``replay:`` line that — fed back through
    ``main`` verbatim — violates the spec again."""
    sweep = ["explore", "traffic", "--plant-ack-bug", "--clients", "1", "--ops-per-client", "3",
             "--jobs", "1", "--artifacts", str(tmp_path)]
    assert main(sweep) == 1
    out = capsys.readouterr().out
    assert "violations: none" not in out and "[acked-data-durable] lost acknowledgement" in out
    assert f"image:  {tmp_path}" in out and f"report: {tmp_path}" in out and "more" in out
    (line,) = [text for text in out.splitlines() if "replay the first counterexample" in text]
    replay = ["explore", *line.split("repro explore ", 1)[1].split()]
    assert "--plant-ack-bug" in replay and "--replay" in replay
    event = replay[-1]
    assert f"event #{event} (server/ack)" in out

    assert main(replay + ["--artifacts", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"event {event} (server/ack): SPEC VIOLATED" in out
    assert "[acked-data-durable] lost acknowledgement" in out
    assert f"image: {tmp_path}" in out and f"forensics: {tmp_path}" in out

    assert main(replay + ["--json"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["boundary"] == {"index": int(event), "kind": "server", "op": "ack"}
    assert {v["clause"] for v in verdict["violations"]} == {"acked-data-durable"}

    with pytest.raises(SystemExit, match="event 0 is not a boundary"):
        main(replay[:-1] + ["0"])


TABLE1 = ["table1", "--systems", "rio_prot", "--faults", "kernel text"]

#: Every command that takes a host path, with that path as ``{path}``.
PATH_COMMANDS = [
    ["dissect", "{path}"],
    ["load-disk", "{path}"],
    ["forensics", "{path}"],
    ["dump-disk", "{path}"],
    [*TABLE1, "--scale", "1", "--resume", "{path}"],
    ["explore", "basic", "--ops", "0", "--resume", "{path}"],
]


def refused(argv) -> str:
    """``main(argv)`` must end in ``SystemExit`` with a message (exit
    status 1) — any other exception is a traceback — and return it."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert isinstance(exit_info.value.code, str), argv
    return exit_info.value.code


@pytest.mark.parametrize("argv", PATH_COMMANDS, ids=[argv[0] for argv in PATH_COMMANDS])
def test_unusable_path_exits_with_a_message(argv, tmp_path):
    """A directory, and a path that does not exist (for a file to be
    created: one in a directory that does not exist)."""
    missing = tmp_path / "no" / "such"
    for path, why in ((tmp_path, "Is a directory"), (missing, "No such file or directory")):
        assert refused([arg.format(path=path) for arg in argv]) == f"{path}: {why}"


@pytest.mark.parametrize("command", ["dissect", "load-disk"])
def test_malformed_image_metadata_exits_with_a_message(command, tmp_path):
    path = tmp_path / "bad.rio"
    path.write_bytes(b"RIOIMG1\n" + b'{"num_bytes": 1.5, "sha256": 5}\n')
    message = refused([command, str(path)])
    assert message.startswith(f"bad image container {path}:") and "\n" not in message


def test_table1_prints_propagation_and_one_digest_at_every_job_count(capsys):
    """Footnote 2's matrix for each system, section 3.3's MTTF, then the
    digest of the whole table — the same line at one job and at two, and
    in the ``--json`` summary, whose keys are those of the recorded
    ``RESULTS_table1.json``."""
    argv = ["table1", "--scale", "1", "--systems", "disk", "--faults", "pointer"]
    digests = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        out = capsys.readouterr().out
        assert "Fault propagation on disk (footnote 2):\nFault Type" in out
        assert "\nMTTF at one crash per two months: disk " in out
        digests += [line for line in out.splitlines() if line.startswith("table1 digest: ")]
    assert len(digests) == 2 and digests[0] == digests[1]

    assert main(argv + ["--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert digests[0] == f"table1 digest: {summary['table1_digest']}"

    def keys(summary):
        system = next(iter(summary["systems"].values()))
        return sorted(summary), sorted(summary["cells"][0]), sorted(system), sorted(system["paper"])

    recorded = json.loads((REPO / "RESULTS_table1.json").read_text())
    assert keys(summary) == keys(recorded)


def test_foreign_journal_exits_with_a_message(tmp_path, capsys):
    journal = str(tmp_path / "scale1.jsonl")
    assert main([*TABLE1, "--scale", "1", "--resume", journal]) == 0
    assert "different campaign" in refused([*TABLE1, "--scale", "2", "--resume", journal])
    assert "different campaign" in refused(["explore", "basic", "--ops", "0", "--resume", journal])
    lines = open(journal).read().splitlines()
    open(journal, "w").write("\n".join(["{torn"] + lines[1:]) + "\n")
    with pytest.warns(UserWarning):
        assert "no valid header" in refused([*TABLE1, "--scale", "1", "--resume", journal])


def test_a_journal_of_an_older_version_exits_with_a_message(tmp_path):
    """A journal whose trial configs carry keys this version does not
    know (version 1 had five more) is refused by ``--resume`` on its
    header and by ``forensics`` on its first trial, in one line each."""
    journal = tmp_path / "old.jsonl"
    assert main([*TABLE1, "--scale", "1", "--resume", str(journal)]) == 0
    header, *trials = [json.loads(line) for line in journal.read_text().splitlines()]
    header["version"] = 1
    for record in trials:
        record["result"]["config"]["sim_budget_s"] = 600.0
        record["crc"] = _crc(record)
    journal.write_text("".join(json.dumps(r) + "\n" for r in [header, *trials]))
    for argv in (TABLE1 + ["--scale", "1"], ["explore", "basic", "--ops", "0"]):
        message = refused([*argv, "--resume", str(journal)])
        assert message.startswith("cannot resume: ") and "journal version 1" in message
    assert refused(["forensics", str(journal)]) == (
        f"{journal}: trial rio_prot/kernel text/0 does not decode: "
        "unknown trial config key(s) ['sim_budget_s']"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--scale", "1", "--systems", "disk", "--faults", "pointer",
         "--resume", "{path}"],
        ["explore", "basic", "--ops", "0", "--resume", "{path}"],
        ["forensics", "{path}"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_journal_of_random_bytes_is_corrupt_lines(argv, tmp_path):
    """Lines that are not UTF-8 are skipped with a warning, as every
    other corrupt line is; their trials re-run."""
    path = tmp_path / "random.jsonl"
    path.write_bytes(random.Random(7).randbytes(1000))
    with pytest.warns(JournalWarning, match="not UTF-8"):
        assert main([arg.format(path=path) for arg in argv]) == 0


def test_a_cell_short_of_its_target_fails_table1(capsys):
    """A cell that used every attempt below its target is named, and the
    finished campaign exits 1 (an unfinished one still exits 3)."""
    argv = ["table1", "--scale", "1", "--systems", "rio_noprot", "--faults", "kernel stack"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "short cell rio_noprot/kernel stack: 0 of 1 crashes after 5 attempts" in err


def test_a_divergent_trial_fails_table1(capsys, monkeypatch):
    """A trial whose recovered image fsck called repaired and dissect
    still finds damaged is named by its config, and the run exits 1."""
    from repro.reliability.campaign import CrashTestResult

    argv = ["table1", "--scale", "1", "--systems", "disk", "--faults", "pointer", "--json"]
    assert main(argv) == 0
    [crashed] = [
        cell["crashes"] for cell in json.loads(capsys.readouterr().out)["cells"]
    ]
    assert crashed == 1
    monkeypatch.setattr(CrashTestResult, "diverged", property(lambda result: result.crashed))
    assert main(argv) == 1
    captured = capsys.readouterr()
    [divergence] = json.loads(captured.out)["divergences"]
    assert divergence["system"] == "disk" and divergence["fault_type"] == "pointer"
    assert (
        f"divergence disk/pointer/{divergence['seed']}: "
        "fsck repaired an image dissect finds damaged"
    ) in captured.err.splitlines()


def test_load_disk_judges_the_disk_fsck_repaired(tmp_path, capsys):
    """fsck repairs the installed image in place; the agreement check
    dissects the repaired disk, not the damaged payload."""
    from repro import SystemSpec, build_system
    from repro.fs.dissect import snapshot

    system = build_system(SystemSpec("ufs", fs_blocks=64))
    system.settle()
    image = bytearray(bytes(snapshot(system.disk)))
    image[8192:16384] = random.Random(3).randbytes(8192)
    path = tmp_path / "scrambled.img"
    path.write_bytes(bytes(image))
    assert main(["load-disk", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bitmap_disagreement" in out, "the payload's findings stay the evidence"
    assert "fsck: 1 fix(es)" in out and "fsck and dissect agree" in out


def test_outage_drill_refuses_a_store_that_cannot_go_down():
    message = refused(["fsck-remote", "--outage", "--backend", "local"])
    assert "--outage needs a store that can go down" in message and "\n" not in message


#: Storms that fire fewer crash points than asked for on some kernel:
#: too little traffic for five crashes; one client whose ops all land on
#: one of two shards.  Exit 1, never a pass over a storm that never came.
SHORT_STORMS = [
    ["serve", "--clients", "1", "--ops", "0", "--crashes", "5"],
    ["cluster", "--clients", "1", "--ops", "1", "--crashes", "2", "--shards", "2"],
]


@pytest.mark.parametrize("argv", SHORT_STORMS, ids=lambda argv: argv[0])
def test_a_short_storm_fails(argv, capsys):
    assert main(argv) == 1
    assert "FAILED: storm short" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, why",
    [
        (["serve", "--clients", "2", "--ops", "2", "--faults", "pointer"], "add --storm faults"),
        (
            ["cluster", "--clients", "2", "--ops", "2", "--crashes", "1", "--storm", "faults",
             "--faults", "kernel text,pointer"],
            "one fault type, got 2",
        ),
    ],
    ids=["faults-without-faults-storm", "two-fault-types"],
)
def test_a_storm_flag_that_would_do_nothing_is_refused(argv, why):
    message = refused(argv)
    assert why in message and "\n" not in message


def test_loadgen_takes_no_storm_flags(capsys):
    """``loadgen`` never crashes: it keeps ``--backend`` only."""
    with pytest.raises(SystemExit) as exit_info:
        main(["loadgen", "--clients", "2", "--ops", "2", "--storm", "faults", "--faults",
              "pointer", "--repair"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == "repro: error: unrecognized arguments: --storm faults --faults pointer --repair"


#: Arguments argparse itself refuses: an unknown system or workload, a
#: count out of range (``--pipeline 0`` used to spin through ``run_load``'s
#: round cap and report success with nothing acked).
BAD_ARGUMENTS = [
    *(
        [name, "--system", "bogus"]
        for name in ("serve", "loadgen", "cluster", "chaos", "explore", "fsck-remote")
    ),
    ["dump-disk", "out.img", "--system", "bogus"],
    ["explore", "bogus"],
    ["cluster", "--shards", "0"],
    ["serve", "--clients", "0"],
    ["loadgen", "--clients", "2", "--ops", "3", "--pipeline", "0"],
    # A count out of range is refused, never clamped or run as given.
    ["table1", "--scale", "0", "--jobs", "0", "--systems", "disk", "--faults", "pointer"],
    ["table1", "--scale", "1", "--jobs", "0", "--systems", "disk", "--faults", "pointer"],
    ["serve", "--clients", "2", "--ops", "2", "--crashes", "-1"],
    ["explore", "basic", "--ops", "-1"],
    ["dump-disk", "out.img", "--age", "-5"],
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_a_bad_argument_is_a_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2, argv
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith(f"repro {argv[0]}: error: argument "), error


@pytest.mark.parametrize("argv", [["dump-disk", "{tmp}/small.img"], ["fsck-remote"]])
def test_a_file_system_too_small_for_mkfs_exits_with_its_message(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--blocks", "4"]
    assert refused(argv) == "mkfs --blocks 4: file system too small for its metadata"


def test_every_registered_subcommand_is_exercised():
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    exercised = {argv[0] for steps in SCENARIOS.values() for argv, _, _ in steps}
    assert set(subparsers.choices) == exercised == {name for name, *_ in COMMANDS}
