"""Run workloads as fresh-subprocess rounds and fold the rounds into one
result per workload.

End-to-end numbers come from untraced rounds only (median over rounds
for host time, which is noisy; taken from the first round and required
to repeat exactly for virtual time, which is a pure function of the
seed).  A traced round adds the per-layer host times, the probes and the
span file, and must reproduce the untraced rounds' digest.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from bench import REPO_ROOT, SRC_DIR, BenchError

#: A round that runs longer than this is killed and counted as failed
#: (every full-size round finishes in under 30 s on a 2-core box).
ROUND_TIMEOUT_S = 100.0

#: A back-to-back run (the driver gives one 180 s) starts no round after
#: ``MAX_ROUNDS`` or ``RUN_DEADLINE_S``, and cuts the last round's
#: timeout so the whole run ends inside ``RUN_BUDGET_S``.
MAX_ROUNDS = 8
RUN_DEADLINE_S = 60.0
RUN_BUDGET_S = 170.0

DEFAULT_OUT_DIR = ".bench_out"


def spawn_round(name: str, seed: int, scale: float, trace_file: str,
                 timeout_s: float) -> Dict[str, Any]:
    """One worker process; returns its record, or an ``error`` record."""
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
    ]
    if trace_file:
        command += ["--trace-file", trace_file]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (REPO_ROOT, SRC_DIR, env.get("PYTHONPATH")) if part
    )
    # Its own session, so a timeout can kill the pool / shard processes
    # the worker started along with it.
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
        return {"error": f"timed out after {timeout_s:.0f} s", "traced": bool(trace_file)}
    if process.returncode != 0:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"worker exited {process.returncode}: {tail}",
                "traced": bool(trace_file)}
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool = False,
    scale: float = 1.0,
    out_dir: str = DEFAULT_OUT_DIR,
    timeout_s: float = ROUND_TIMEOUT_S,
) -> Dict[str, Any]:
    """The driver form: rounds of one workload back to back, folded.

    Untraced rounds repeat until their timed regions add up to about
    ``seconds`` (the nearest whole number of rounds, at least one);
    ``trace`` adds one traced round.
    """
    started = time.monotonic()

    def remaining() -> float:
        return max(1.0, min(timeout_s, RUN_BUDGET_S - (time.monotonic() - started)))

    rounds: List[Dict[str, Any]] = []
    measured = 0.0
    while True:
        record = spawn_round(name, seed, scale, "", remaining())
        rounds.append(record)
        if "error" in record:
            break
        measured += record["timed_wall_s"]
        if (
            measured + measured / len(rounds) / 2 >= seconds
            or len(rounds) >= MAX_ROUNDS
            or time.monotonic() - started > RUN_DEADLINE_S
        ):
            break
    if trace and "error" not in rounds[-1]:
        rounds.append(spawn_round(name, seed, scale, trace_path(out_dir, name), remaining()))
    return fold_rounds(name, seed, scale, rounds)


def trace_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"trace_{name}.json")


def fold_rounds(name: str, seed: int, scale: float,
                rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One result from a workload's rounds (pure; see module docstring)."""
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale,
        "end_to_end": {}, "per_layer": {}, "checks": {}, "errors": [],
    }
    good = [r for r in rounds if "error" not in r]
    result["errors"] = [r["error"] for r in rounds if "error" in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    result["rounds"], result["traced_rounds"] = len(plain), len(traced)
    if not plain:
        # Nothing measured: a timed-out or crashed run fails whole.
        result.update(attempted=1, failed=1, correct=False, digest="")
        result["end_to_end"]["failed_share"] = 1.0
        return result

    first = plain[0]
    checks = dict(first["checks"])
    checks["rounds_repeat_exactly"] = all(r["digest"] == first["digest"] for r in plain)
    if traced:
        checks["traced_equals_untraced"] = all(r["digest"] == first["digest"] for r in traced)
    attempted = sum(r["attempted"] for r in good)
    failed = sum(r["failed"] for r in good) + len(result["errors"])
    failed += sum(1 for key in ("rounds_repeat_exactly", "traced_equals_untraced")
                  if not checks.get(key, True))
    result.update(
        attempted=attempted + len(result["errors"]), failed=failed,
        checks=checks, digest=first["digest"],
        latency_samples=first["latency_samples"], ops=first["ops"],
        info=first["info"],
    )
    result["correct"] = failed == 0 and all(checks.values())

    median = statistics.median
    end_to_end = result["end_to_end"]
    end_to_end["setup_s"] = median(r["setup_s"] for r in plain)
    end_to_end["host_ops_per_s"] = median(r["ops"] / r["timed_s"] for r in plain)
    end_to_end["peak_rss_mb"] = median(r["peak_rss_mb"] for r in plain)
    end_to_end["virt_s"] = first["virt_s"]
    for key in ("virt_p50_ms", "virt_p99_ms"):
        if key in first:
            end_to_end[key] = first[key]
    end_to_end["failed_share"] = failed / result["attempted"]
    result["host"] = {
        # Raw wall beside the reference-host numbers (see hostclock.py).
        "wall_ops_per_s": median(r["ops"] / r["timed_wall_s"] for r in plain),
        "speed": median(r["host_speed"] for r in plain),
        "timed_wall_s": [r["timed_wall_s"] for r in plain],
    }

    per_layer = result["per_layer"]
    per_layer.update(first["counts"])
    if traced:
        round_ = traced[0]
        per_layer.update(round_["traced_metrics"])
        per_layer.update(round_["probes"])
        per_layer["trace.overhead_ratio"] = round_["timed_s"] / median(
            r["timed_s"] for r in plain
        )
        result["layers"] = round_["layers"]
        result["traced_wall_s"] = round_["traced_wall_s"]
        result["trace_file"] = round_["trace_file"]
    return result


def contract_line(result: Dict[str, Any], contract: Dict[str, Any], trace: bool) -> str:
    """The driver's one-line JSON: every declared metric of the kind the
    run was asked for.  A per-layer metric a workload's layers do not
    produce (``backend.*`` without a backend, say) reads 0."""
    section, values = (
        ("per_layer", result["per_layer"]) if trace else ("end_to_end", result["end_to_end"])
    )
    metrics = {}
    for metric in contract[section]:
        value = values.get(metric["name"])
        if value is None:
            if not trace:
                raise BenchError(f"{result['workload']}: no value for {metric['name']}")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


@functools.lru_cache(maxsize=None)
def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``, read once (callers only read it)."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
