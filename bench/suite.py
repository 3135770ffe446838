"""The whole set at once: run every workload, print every metric by name
with its unit, cross-check Table 2's shape, compare two result files,
and verify that two run-sets of the same code agree.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Any, Dict, List

from bench import REPO_ROOT
from bench.harness import (
    DEFAULT_OUT_DIR,
    ROUND_TIMEOUT_S,
    fold_rounds,
    load_contract,
    spawn_round,
    trace_path,
)

#: Same-seed comparison bounds (``--compare`` / ``--verify``): name ->
#: (better, relative bound, absolute slack).  A metric regresses when it
#: is worse by more than the relative bound *and* the absolute slack.
#: Virtual time is a pure function of the seed, so its bound only says
#: how much drift fails; any non-zero delta is printed as ``drift``.
COMPARE_BOUNDS = {
    "setup_s": ("lower", 0.25, 0.25),
    "host_ops_per_s": ("higher", 0.10, 0.0),
    "peak_rss_mb": ("lower", 0.10, 0.0),
    "virt_s": ("lower", 0.01, 0.0),
    "virt_p50_ms": ("lower", 0.01, 0.0),
    "virt_p99_ms": ("lower", 0.01, 0.0),
    "failed_share": ("lower", 0.0, 0.0),
}
VIRTUAL = ("virt_s", "virt_p50_ms", "virt_p99_ms")


def host_info() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_suite(names: List[str], seed: int, *, repeat: int, trace: bool,
              scale: float, out_dir: str = DEFAULT_OUT_DIR, say=print) -> Dict[str, Any]:
    """Run ``repeat`` untraced rounds (plus a traced one) of every
    workload in ``names``; returns the result document.

    Rounds go round-robin over the workloads, so one workload's rounds
    lie a pass apart: a slow episode of the host (they last seconds)
    then spoils one round of several workloads, which the per-workload
    median drops, instead of every round of one.
    """
    from bench.workloads import table2_shape_checks

    doc: Dict[str, Any] = {
        "schema": 1, "seed": seed, "scale": scale, "repeat": repeat,
        "host": host_info(), "workloads": {}, "cross_checks": {},
    }
    rounds: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(repeat + (1 if trace else 0)):
        traced = index == repeat
        say(f"== pass {index + 1}" + (" (traced)" if traced else ""))
        for name in names:
            if any("error" in record for record in rounds[name]):
                continue
            trace_file = trace_path(out_dir, name) if traced else ""
            rounds[name].append(spawn_round(name, seed, scale, trace_file, ROUND_TIMEOUT_S))
    for name in names:
        say(f"== {name}")
        doc["workloads"][name] = fold_rounds(name, seed, scale, rounds[name])
        say(format_result(doc["workloads"][name]))
    rio, disk = (doc["workloads"].get(n) for n in ("table2_rio", "table2_disk"))
    if rio and disk and scale == 1.0 and rio["rounds"] and disk["rounds"]:
        doc["cross_checks"] = table2_shape_checks(rio["info"]["cells"], disk["info"]["cells"])
        say(f"== table2 shape bands: {doc['cross_checks']}")
    doc["correct"] = all(r["correct"] for r in doc["workloads"].values()) and all(
        doc["cross_checks"].values()
    )
    return doc


def _units() -> Dict[str, str]:
    contract = load_contract()
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units["failed_share"] = "fraction"
    return units


def format_result(result: Dict[str, Any]) -> str:
    """Every metric of one workload by name, with its unit."""
    units = _units()
    lines = []
    for section in ("end_to_end", "per_layer"):
        for name, value in sorted(result[section].items()):
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {section:<10} {name:<36} {shown:>14} {units.get(name, '')}")
    if "latency_samples" in result and result["latency_samples"]:
        lines.append(f"  latency samples: {result['latency_samples']}")
    if "host" in result:
        lines.append(
            f"  host speed {result['host']['speed']:.3f} of reference, "
            f"raw wall {result['host']['wall_ops_per_s']:.6g} ops/s, "
            f"{result['rounds']} round(s)"
        )
    lines.append(f"  digest {result.get('digest', '')[:16]}")
    failed = [name for name, ok in result["checks"].items() if not ok]
    lines.append(
        f"  checks: {len(result['checks']) - len(failed)}/{len(result['checks'])} ok"
        + (f", FAILED {failed}" if failed else "")
        + (f", errors {result['errors']}" if result["errors"] else "")
    )
    return "\n".join(lines)


# -- comparison ----------------------------------------------------------


def _worse_by(name: str, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    better = COMPARE_BOUNDS[name][0]
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare(old: Dict[str, Any], new: Dict[str, Any], *, both_ways: bool = False) -> List[str]:
    """Apply ``COMPARE_BOUNDS`` to two result documents; returns findings
    (empty = no regression).  ``both_ways`` also flags improvements past
    the bound — two run-sets of the *same* code must simply agree."""
    findings: List[str] = []
    for name, old_result in old["workloads"].items():
        new_result = new["workloads"].get(name)
        if new_result is None:
            findings.append(f"{name}: missing from the new results")
            continue
        for metric, (_better, bound, slack) in COMPARE_BOUNDS.items():
            a = old_result["end_to_end"].get(metric)
            b = new_result["end_to_end"].get(metric)
            if a is None and b is None:
                continue
            if a is None or b is None:
                findings.append(f"{name}.{metric}: present in only one file")
                continue
            worse = _worse_by(metric, a, b)
            if metric in VIRTUAL and a != b:
                print(f"drift {name}.{metric}: {a!r} -> {b!r}")
            off = max(worse, -worse) if both_ways else worse
            if off > bound and abs(b - a) > slack:
                findings.append(
                    f"{name}.{metric}: {a:.6g} -> {b:.6g} "
                    f"({'off' if both_ways else 'worse'} by {off:.1%}, bound {bound:.0%})"
                )
    return findings


def verify(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Two run-sets of the same code and seed: every virtual-time number,
    deterministic count and digest identical; host numbers within their
    own bounds; nothing failed."""
    findings = compare(first, second, both_ways=True)
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            continue
        if a["digest"] != b["digest"]:
            findings.append(f"{name}: digest differs between run-sets")
        for metric in VIRTUAL:
            if a["end_to_end"].get(metric) != b["end_to_end"].get(metric):
                findings.append(f"{name}.{metric}: virtual time differs between run-sets")
        for doc, label in ((a, "first"), (b, "second")):
            if not doc["correct"]:
                findings.append(f"{name}: {label} run-set failed its checks")
    return findings


def write_json(path: str, doc: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
