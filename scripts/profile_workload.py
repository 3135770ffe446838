#!/usr/bin/env python
"""Where does a benchmark workload's host time go?

The cProfile-by-module recipe of ``bench/README.md`` ("Where host time
goes") as one command: run one round of a ``bench`` workload in this
process under cProfile and print self time summed by module, then the
top functions.

    python scripts/profile_workload.py serve_storm [--seed 7] [--top 12]

``explore_traffic`` does its work in pool children the profiler cannot
see, so ``--trials N`` instead runs ``run_boundary_trial`` in process
over every N-th boundary of the workload's enumeration (the bench sizes
and seed rule), profiled; ``--wall`` drops the profiler and prints the
plain wall-clock cost per trial.

cProfile taxes every Python call and nothing inside C, which shifts the
shares: use it to find candidates, then measure with ``python3 -m bench``.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import os
import pstats
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(profile: cProfile.Profile, top: int) -> None:
    """Self time by module, then by function."""
    stats = pstats.Stats(profile).stats
    by_module: collections.Counter = collections.Counter()
    by_function: collections.Counter = collections.Counter()
    for (path, line, name), (_cc, _nc, self_time, _cum, _callers) in stats.items():
        module = "/".join(path.split("/")[-2:])
        by_module[module] += self_time
        by_function[f"{module}:{line} {name}"] += self_time
    total = sum(by_module.values())
    print(f"profiled self time {total:.2f} s")
    for table in (by_module, by_function):
        print()
        for key, seconds in table.most_common(top):
            print(f"{key:56} {seconds / total:6.1%} {seconds:8.3f} s")


def explore_trials(seed: int, every: int):
    """``(config, boundaries)``: every ``every``-th boundary of the
    ``explore_traffic`` sweep the benchmark would run for ``seed``."""
    from bench.workloads import SIZES
    from repro.explore import ExploreConfig, run_enumeration

    sizes = SIZES["explore_traffic"]
    while True:  # the benchmark steps past seeds that acknowledge a rename
        config = ExploreConfig(
            "traffic", "rio_prot", seed=seed,
            clients=sizes["clients"], ops_per_client=sizes["programs"],
        )
        enumeration = run_enumeration(config)
        if not any(
            event["kind"] == "server" and event["payload"].get("op") == "rename"
            for event in enumeration.events
        ):
            return config, enumeration.boundaries[::every]
        seed += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7, help="harness seed (default 7)")
    parser.add_argument("--top", type=int, default=12, help="rows per table")
    parser.add_argument(
        "--trials", type=int, metavar="N", default=0,
        help="explore_traffic only: run every N-th boundary trial in process",
    )
    parser.add_argument(
        "--wall", action="store_true", help="with --trials: no profiler, wall ms per trial"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, REPO)
    from bench import require_src
    from bench.workloads import derive_seed

    require_src()
    seed = derive_seed(args.seed, args.workload)
    profile = cProfile.Profile()

    if args.trials:
        if args.workload != "explore_traffic":
            parser.error("--trials is the in-process mode of explore_traffic")
        from repro.explore import run_boundary_trial

        config, boundaries = explore_trials(seed, args.trials)
        costs = []
        for boundary in boundaries:
            began = time.perf_counter()
            if args.wall:
                run_boundary_trial(config, boundary)
            else:
                profile.runcall(run_boundary_trial, config, boundary)
            costs.append(time.perf_counter() - began)
        costs.sort()
        print(
            f"{len(costs)} trials: median {costs[len(costs) // 2] * 1e3:.1f} ms, "
            f"mean {sum(costs) / len(costs) * 1e3:.1f} ms"
        )
        if args.wall:
            return 0
    else:
        from bench.worker import run

        record = profile.runcall(run, args.workload, seed, 1.0, "")
        print(f"{args.workload}: {record['ops']} ops, timed {record['timed_wall_s']:.2f} s wall")
    report(profile, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
