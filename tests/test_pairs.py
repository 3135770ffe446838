"""``scripts/pairs.py``: alternating pairs over fresh copies, and the
per-metric summary a perf claim quotes."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("pairs", REPO / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def tree(root: pathlib.Path, name: str) -> str:
    """A directory holding a tree: the contract and some leftovers."""
    path = root / name
    (path / "__pycache__").mkdir(parents=True)
    (path / "__pycache__" / "x.pyc").write_bytes(b"stale")
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "host_ops_per_s", "better": "higher"},
        {"name": "setup_s", "better": "lower"},
    ]}))
    (path / "marker").write_text(name)
    return str(path)


def test_runs_alternate_over_fresh_copies(tmp_path, monkeypatch, capsys):
    old, new = tree(tmp_path, "a"), tree(tmp_path, "b")
    order = []

    def fake_bench(copy, workload, seed, seconds):
        side = pathlib.Path(copy, "marker").read_text()
        assert not pathlib.Path(copy, "__pycache__").exists()
        order.append(side)
        fast = side == "b"
        return {"host_ops_per_s": 110.0 + len(order) if fast else 100.0 + len(order),
                "setup_s": 1.0, "ok": True}

    monkeypatch.setattr(pairs, "run_bench", fake_bench)
    work = tmp_path / "work"
    assert pairs.main([old, new, "--workload", "w", "--pairs", "4", "--workdir", str(work)]) == 0
    assert order == ["a", "b", "b", "a", "a", "b", "b", "a"]
    out = capsys.readouterr().out
    assert "w (seed 7, 5 s): " in out and "4 of 4 pairs" in out
    ops = next(line for line in out.splitlines() if line.startswith("host_ops_per_s"))
    assert ops.split()[-2:] == ["4/4", "yes"]  # new wins every pair, past old's IQR
    setup = next(line for line in out.splitlines() if line.startswith("setup_s"))
    assert setup.split()[-2:] == ["0/4", "no"]


def test_control_and_failed_runs(tmp_path, monkeypatch, capsys):
    old = tree(tmp_path, "a")
    monkeypatch.setattr(
        pairs, "run_bench",
        lambda copy, *args: {"host_ops_per_s": 1.0, "setup_s": 1.0, "ok": not copy.endswith("control")},
    )
    work = str(tmp_path / "work")
    assert pairs.main([old, "--control", "--workload", "w", "--pairs", "2", "--workdir", work]) == 1
    out = capsys.readouterr().out
    assert "0 of 2 pairs" in out and "FAILED runs: control, control" in out


@pytest.mark.parametrize("argv", [
    ["a", "b", "--control", "--workload", "w"],  # NEW and --control
    ["a", "--workload", "w"],  # neither
    ["a", "b", "--tier1", "--workload", "w"],  # both kinds of run
    ["a", "b", "--workload", "w", "--pairs", "0"],
])
def test_refuses_contradictory_arguments(argv):
    with pytest.raises(SystemExit):
        pairs.main(argv)


def test_iqr():
    assert pairs.iqr([5.0]) == 0.0
    assert pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
