"""``scripts/same_simulation.py``: two benchmark result files agree on
everything the simulation decides, whatever the host clock read."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "same_simulation", REPO / "scripts" / "same_simulation.py"
)
same_simulation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_simulation)


@pytest.fixture
def bench(tmp_path):
    doc = json.loads((REPO / "BENCH_28.json").read_text())

    def write(name: str, edit=None) -> str:
        edited = copy.deepcopy(doc)
        if edit is not None:
            edit(edited["workloads"])
        path = tmp_path / name
        path.write_text(json.dumps(edited))
        return str(path)

    return write


def test_host_time_may_move(bench):
    def host(workloads):
        workloads["table2_rio"]["end_to_end"]["host_ops_per_s"] *= 2
        workloads["serve_calm"]["end_to_end"]["setup_s"] += 1
        workloads["serve_calm"]["per_layer"]["server.pump_host_s"] = 9.0

    assert same_simulation.main([bench("old.json"), bench("new.json", host)]) == 0


@pytest.mark.parametrize(
    "edit",
    [
        lambda w: w["table2_rio"]["end_to_end"].update(virt_s=1.0),
        lambda w: w["serve_storm"]["end_to_end"].update(virt_p99_ms=1.0),
        lambda w: w["campaign_rio"].update(digest="0" * 64),
        lambda w: w["cluster_4x"]["per_layer"].update({"cluster.routed": 1}),
        lambda w: w["table2_disk"]["info"]["cells"]["ufs"].update(sdet=1.0),
        lambda w: w.pop("explore_traffic"),
    ],
    ids=["virt_s", "p99", "digest", "count", "cell", "workload"],
)
def test_any_simulated_fact_differs(bench, edit, capsys):
    assert same_simulation.main([bench("old.json"), bench("new.json", edit)]) == 1
    assert "DIFFERENT simulation" in capsys.readouterr().out
