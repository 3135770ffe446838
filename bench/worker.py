"""One round of one workload in a fresh process.

The harness starts one of these per round, so import cost and peak RSS
belong to that round alone and a hang ends at the harness's timeout.
Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from bench.hostclock import HostClock


def run(name: str, seed: int, scale: float, trace_path: str) -> dict:
    clock = HostClock()
    from bench import require_src

    require_src()
    # Importing the program is part of set-up.
    from repro.server.loadgen import percentile

    from bench.tracing import NullTracer, Tracer
    from bench.workloads import Env, run_round

    clock.lap("setup")
    import_s = clock.ref_s["setup"]
    tracer = Tracer() if trace_path else NullTracer()
    result = run_round(name, seed, Env(clock=clock, tracer=tracer, scale=scale))
    speed = clock.ref_s["timed"] / clock.wall_s["timed"]

    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": bool(trace_path),
        "ops": result.ops,
        "attempted": result.attempted,
        "failed": result.failed,
        "import_s": import_s,
        "setup_s": clock.ref_s["setup"],
        "timed_s": clock.ref_s["timed"],
        "timed_wall_s": clock.wall_s["timed"],
        #: Measured host speed over the timed region, reference host = 1.
        "host_speed": speed,
        "virt_s": result.virt_ns / 1e9,
        "latency_samples": len(result.latencies_ns),
        "counts": result.counts,
        "checks": result.checks,
        "digest": result.digest,
        "info": result.info,
    }
    if result.latencies_ns:
        record["virt_p50_ms"] = percentile(result.latencies_ns, 0.50) / 1e6
        record["virt_p99_ms"] = percentile(result.latencies_ns, 0.99) / 1e6
    if trace_path:
        from bench.layers import run_probes

        layers = tracer.self_times()
        for layer in layers.values():
            layer["host_s"] *= speed
        record["layers"] = layers
        record["traced_wall_s"] = tracer.root_host_s() * speed
        record["traced_metrics"] = dict(result.traced)
        record["traced_metrics"]["trace.spans"] = len(tracer.spans)
        for layer, key in (("kernel", "kernel.vfs"), ("fs", "fs.flush"), ("loadgen", "server.loadgen")):
            if layer in layers:
                record["traced_metrics"][f"{key}_host_s"] = layers[layer]["host_s"]
        if "kernel" in layers:
            record["traced_metrics"]["kernel.vfs_virt_s"] = layers["kernel"]["virt_s"]
        os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
        tracer.write_chrome(trace_path)
        record["trace_file"] = trace_path
        record["probes"] = run_probes()
    # ru_maxrss is KiB on Linux; children are the pool / shard processes
    # this round started and waited for.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record["peak_rss_mb"] = peak_kib / 1024
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.scale, args.trace_file)
    sys.stdout.flush()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
