"""Checks of the benchmark harness itself.

Run with ``python -m pytest bench -q`` (outside tier-1's ``testpaths``).
The quick pass runs every workload at about 1/10 size, one untraced and
one traced round each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import REPO_ROOT, BenchError, harness, suite

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = harness.load_contract()
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def _bench(*args, cwd=REPO_ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick --repeat 1 --trace`` pass over the whole set."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    spans = tmp_path_factory.mktemp("spans")
    run = _bench("--quick", "--repeat", "1", "--trace", "--out", str(out),
                 "--out-dir", str(spans))
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    return suite.read_json(str(out)), run.stdout


def test_contract_names_and_registry_agree():
    from bench.workloads import WORKLOADS

    assert WORKLOAD_NAMES == list(WORKLOADS)
    for name in WORKLOAD_NAMES + END_TO_END + PER_LAYER:
        assert NAME.match(name), name
    assert "setup_s" in END_TO_END
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["unit"], metric


def test_quick_pass_reports_every_declared_metric(quick):
    doc, stdout = quick
    assert doc["correct"]
    assert sorted(doc["workloads"]) == sorted(WORKLOAD_NAMES)
    produced = set()
    for name, result in doc["workloads"].items():
        assert result["correct"], (name, result["checks"], result["errors"])
        for metric in END_TO_END:
            assert result["end_to_end"][metric] > 0, (name, metric)
        assert result["end_to_end"]["failed_share"] == 0
        produced |= set(result["per_layer"])
        # Every number the run printed carries its name.
        for metric in result["end_to_end"]:
            assert metric in stdout
    # Each declared per-layer metric is produced by some workload's layers.
    missing = set(PER_LAYER) - produced - {"virt_p50_ms", "virt_p99_ms"}
    assert not missing, sorted(missing)
    for name in ("serve_calm", "serve_storm", "tiered_disk", "cluster_4x"):
        assert doc["workloads"][name]["end_to_end"]["virt_p99_ms"] > 0


def test_traced_round_matches_untraced_and_accounts_for_its_wall(quick):
    doc, _stdout = quick
    for name, result in doc["workloads"].items():
        assert result["traced_rounds"] == 1, name
        assert result["checks"]["traced_equals_untraced"], name
        assert result["checks"]["rounds_repeat_exactly"], name
        assert os.path.getsize(result["trace_file"]) > 0
        with open(result["trace_file"], encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert events and events[0]["ph"] == "X"
        self_time = sum(layer["host_s"] for layer in result["layers"].values())
        assert self_time == pytest.approx(result["traced_wall_s"], rel=0.05), name
        assert result["per_layer"]["trace.overhead_ratio"] > 0
        assert result["per_layer"]["trace.spans"] == len(events)


def test_tiered_disk_shows_the_tier(quick):
    per_layer = quick[0]["workloads"]["tiered_disk"]["per_layer"]
    assert per_layer["backend.uploads"] > 0
    assert per_layer["backend.service_virt_s"] > 0


def test_driver_form_prints_exactly_the_declared_metrics():
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        run = _bench("--workload", "serve_calm", "--quick", "--seed", "11",
                     "--seconds", "0.5", "--trace", trace)
        assert run.returncode == 0, run.stderr[-2000:]
        line = json.loads(run.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == names
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))


def test_sizing_guard_rejects_64_by_100():
    from bench.workloads import check_inode_budget

    with pytest.raises(BenchError, match="sizing guard"):
        check_inode_budget(64, 100, 512)  # the default 8 inode blocks
    check_inode_budget(16, 600, 512)


def test_round_timeout_counts_as_failed_not_a_hang():
    result = harness.run_workload("explore_traffic", 7, seconds=1, timeout_s=0.2)
    assert not result["correct"]
    assert result["end_to_end"]["failed_share"] == 1.0
    assert "timed out" in result["errors"][0]


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO_ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    run = _bench("--workload", "serve_calm", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert run.returncode != 0
    assert run.stdout.strip() == ""


def _doc(**end_to_end):
    base = {"setup_s": 1.0, "host_ops_per_s": 100.0, "peak_rss_mb": 50.0,
            "virt_s": 2.0, "failed_share": 0.0}
    base.update(end_to_end)
    return {"workloads": {"w": {"end_to_end": base, "digest": "d", "correct": True}}}


def test_compare_applies_the_bounds_table():
    assert suite.compare(_doc(), _doc()) == []
    assert suite.compare(_doc(), _doc(host_ops_per_s=95.0)) == []
    assert suite.compare(_doc(), _doc(host_ops_per_s=120.0)) == []
    assert len(suite.compare(_doc(), _doc(host_ops_per_s=85.0))) == 1
    assert len(suite.compare(_doc(), _doc(virt_s=2.05))) == 1
    assert len(suite.compare(_doc(), _doc(failed_share=0.01))) == 1
    # setup_s needs +25 % *and* +0.25 s.
    assert suite.compare(_doc(setup_s=0.4), _doc(setup_s=0.6)) == []
    assert len(suite.compare(_doc(), _doc(setup_s=1.3))) == 1


def test_verify_requires_identical_virtual_time_and_digest():
    assert suite.verify(_doc(), _doc()) == []
    assert suite.verify(_doc(), _doc(virt_s=2.0000001))
    assert suite.verify(_doc(), _doc(host_ops_per_s=120.0))  # both ways
    other = _doc()
    other["workloads"]["w"]["digest"] = "e"
    assert suite.verify(_doc(), other)
