#!/usr/bin/env python
"""Compare two trees on one benchmark workload in alternating pairs.

    python scripts/pairs.py OLD NEW --workload W --pairs N [--seed S] [--seconds T]
    python scripts/pairs.py OLD --control --workload W --pairs N
    python scripts/pairs.py OLD NEW --tier1 --pairs N

``OLD`` and ``NEW`` are git revisions of this repository (``HEAD~1``, a
commit id) or directories holding a tree.  Each is copied afresh — a
revision with ``git archive``, a directory without its ``.git`` and
caches — and every run has ``PYTHONDONTWRITEBYTECODE=1``, so no run
finds byte code an earlier one compiled.  Pair ``i`` runs ``python3 -m
bench --workload W --seed S --seconds T`` in both copies, the old one
first on even pairs and the new one first on odd ones, so a host that
speeds up or slows down during the session does not favour either side.

Per end-to-end metric of ``BENCHMARK.json`` it prints both medians, both
interquartile ranges, the change of the median, in how many pairs the
new tree was better, whether the gap between the medians is wider
than the old tree's IQR — the least a change must show before it is
told apart from run-to-run spread on this host — and whether a gain may
be claimed: at least ten pairs, the new tree won nine tenths of them
(ties count for neither) and its median is better by more than that
IQR.  ``peak_rss_mb`` gets a caveat line: it differs between two fresh
copies of one tree, so its wins are no evidence of a change.
``--control`` runs the old tree against a second copy of itself: the
spread each metric has when nothing changed, measured rather than
assumed.  ``--tier1`` times the test suite (``python -m pytest -x -q``)
in pairs the same way.

Pairs from one session only: between sessions the host's speed moves
by more than most changes do.  Exits 1 if a run failed or reported
``correct: false``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Left behind by earlier runs of a directory tree: not copied.
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.pyc"
)


def fresh_copy(source: str, dest: str) -> str:
    """Copy the tree ``source`` names — a directory, else a revision of
    this repository — to ``dest``; return ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    if os.path.isdir(source):
        shutil.copytree(source, dest, ignore=SKIP)
        return dest
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", source],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def _env(tree: str | None = None) -> dict:
    """No byte code written; ``src/`` of ``tree`` on the path if given
    (``bench`` puts it there itself)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if tree is not None:
        env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One single-workload bench run in ``tree``: ``{metric: value}`` plus the
    run's ``ok`` (it exited 0, reported correct and failed nothing)."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=_env(), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"ok": False}
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    values["ok"] = proc.returncode == 0 and line["correct"] and not line["failed"]
    return values


def run_tier1(tree: str) -> dict:
    """The test suite once in ``tree``: its wall seconds and ``ok``."""
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return {"tier1_s": time.perf_counter() - began, "ok": proc.returncode == 0}


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def report(metrics: list, old_runs: list, new_runs: list, labels: tuple) -> None:
    """One line per ``(name, better)`` of ``metrics`` (module docstring)."""
    print(
        f"{'metric':16} {labels[0] + ' median':>14} {'IQR':>9} {labels[1] + ' median':>14}"
        f" {'IQR':>9} {'change':>8} {'wins':>6}  gap > {labels[0]} IQR  claim"
    )
    for name, better in metrics:
        old = [run[name] for run in old_runs]
        new = [run[name] for run in new_runs]
        old_median, new_median = statistics.median(old), statistics.median(new)
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        change = (new_median - old_median) / old_median if old_median else 0.0
        spread = iqr(old)
        wide = abs(new_median - old_median) > spread
        claim = (
            len(old) >= 10
            and 10 * wins >= 9 * len(old)
            and sign * (new_median - old_median) > spread
        )
        print(
            f"{name:16} {old_median:14.6g} {spread:9.3g} {new_median:14.6g} {iqr(new):9.3g}"
            f" {change:+8.2%} {wins:3d}/{len(old):<2d}  {'yes' if wide else 'no':14}"
            f" {'yes' if claim else 'no'}"
        )
        if name == "peak_rss_mb":
            print(f"{'':16} (--control moved it in 10/10 pairs between two copies of one"
                  " tree: its wins are no evidence of a change)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="git revision or directory")
    parser.add_argument("new", nargs="?", help="git revision or directory (not with --control)")
    parser.add_argument("--workload", help="bench workload (not with --tier1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0, help="per bench run (default 5)")
    parser.add_argument("--control", action="store_true", help="old against a copy of itself")
    parser.add_argument("--tier1", action="store_true", help="time the test suite instead")
    parser.add_argument("--workdir", help="where the copies go (default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.control == bool(args.new):
        parser.error("give NEW, or --control, not both")
    if args.tier1 == bool(args.workload):
        parser.error("give --workload, or --tier1, not both")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    workdir = args.workdir or tempfile.mkdtemp(prefix="pairs-")
    os.makedirs(workdir, exist_ok=True)
    labels = ("old", "control" if args.control else "new")
    try:
        trees = (
            fresh_copy(args.old, os.path.join(workdir, "old")),
            fresh_copy(args.old if args.control else args.new, os.path.join(workdir, labels[1])),
        )
        if args.tier1:
            metrics = [("tier1_s", "lower")]
            run = run_tier1
        else:
            with open(os.path.join(trees[1], "BENCHMARK.json"), encoding="utf-8") as fh:
                metrics = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]

            def run(tree):
                return run_bench(tree, args.workload, args.seed, args.seconds)

        runs: tuple = ([], [])
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                runs[side].append(run(trees[side]))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        failed = [label for label, side in zip(labels, runs) for r in side if not r["ok"]]
        kept = [i for i in range(args.pairs) if runs[0][i]["ok"] and runs[1][i]["ok"]]
        subject = "tier-1" if args.tier1 else f"{args.workload} (seed {args.seed}, {args.seconds:g} s)"
        print(f"{subject}: {args.old} vs {args.old if args.control else args.new}, "
              f"{len(kept)} of {args.pairs} pairs")
        if kept:
            report(metrics, [runs[0][i] for i in kept], [runs[1][i] for i in kept], labels)
        if failed:
            print(f"FAILED runs: {', '.join(failed)}")
        return 1 if failed else 0
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
