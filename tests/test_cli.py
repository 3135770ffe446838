"""Every ``repro`` subcommand, driven in process through ``main(argv)``.

This is the one gate for the command line: each registered subcommand
runs here with the arguments (and the output checks) its retired
``make`` / CI smoke step used — plus ``--json`` on ``chaos`` and
``fsck-remote`` so the reports' wire forms run too — and the last test
holds the set of commands exercised equal to the set ``main`` registers:
a new subcommand without a scenario fails tier-1.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.__main__ import COMMANDS, build_parser, main

EXPLORE = ["explore", "basic", "--ops", "0", "--jobs", "2", "--resume", "{tmp}/explore.jsonl"]

#: scenario -> steps ``(argv, exit status, substrings of stdout)``, run in
#: order sharing one scratch directory (``{tmp}``).
SCENARIOS = {
    "demo": [(["demo"], 0, ["recovered: b'memory, surviving a crash'"])],
    "mttf": [(["mttf"], 0, ["MTTF at one crash per two months"])],
    "table2": [(["table2"], 0, ["Rio with protection", "Headline ratios"])],
    "analyze": [
        (["analyze", "bcopy"], 0, ["=== bcopy", "lint: clean", "patch:"]),
        (["analyze", "no_such_routine"], 2, ["unknown routine"]),
    ],
    # A traced 2-job campaign (disk/pointer corrupts within its first
    # attempts under the default seed schedule), then forensics over it.
    "forensics": [
        (
            ["table1", "--scale", "2", "--jobs", "2", "--systems", "disk", "--faults", "pointer",
             "--resume", "{tmp}/campaign.jsonl", "--trace-corruptions"],
            0,
            ["Table 1"],
        ),
        (["forensics", "{tmp}/campaign.jsonl"], 0, ["first divergent store"]),
        (
            ["forensics", "{tmp}/campaign.jsonl", "--trial", "disk/pointer/0", "--no-baseline"],
            0,
            ["=== disk/pointer/0 ==="],
        ),
    ],
    "serve": [(["serve", "--clients", "16", "--crashes", "3"], 0, ["ZERO LOST ACKS"])],
    "loadgen": [(["loadgen", "--clients", "4", "--ops", "6"], 0, ["ZERO LOST ACKS"])],
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


def test_every_registered_subcommand_is_exercised():
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    exercised = {argv[0] for steps in SCENARIOS.values() for argv, _, _ in steps}
    assert set(subparsers.choices) == exercised == {name for name, *_ in COMMANDS}
