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
plain wall-clock cost per trial.  Either way it then prints what the
median-cost trial emitted into the flight recorder, counted by
``kind/op`` — explore_traffic is the one recorder-on workload, and a
recorder-path issue should start from those counts.

cProfile taxes every Python call and nothing inside C, which shifts the
shares — and hides exactly the functions that are a few long C calls.
``--sample`` runs the same round (or ``--trials``) under a stack sampler
instead: ``signal.setitimer(ITIMER_PROF)`` interrupts every millisecond of
CPU time and the handler walks the stack, charging *self* time to the
innermost frame under ``src/repro/`` (C calls made from it included; a
stack with no such frame goes to its innermost frame) and *inclusive*
time to every function on the stack.  Nothing is taxed per call.  The
kernel's timer tick bounds the rate (250 samples per CPU second here,
whatever interval is asked for), and a signal is handled at the next
bytecode that checks for one — a call or a loop's back-edge — so a long C
operation can be charged a line, rarely a frame, late.
Measured distortion, PR 18's tree, ``serve_calm``, seed 7:
``util/checksum.py fletcher32`` is 5.5 % of cProfile's self time and
15.8 % of the sampler's — 24 % of the timed work, the first line of the
profile — so start from the sampler's table, and still measure with
``python3 -m bench``.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import os
import pstats
import signal
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module(path: str) -> str:
    return "/".join(path.split("/")[-2:])


def report(profile: cProfile.Profile, top: int) -> None:
    """Self time by module, then by function."""
    stats = pstats.Stats(profile).stats
    by_module: collections.Counter = collections.Counter()
    by_function: collections.Counter = collections.Counter()
    for (path, line, name), (_cc, _nc, self_time, _cum, _callers) in stats.items():
        module = _module(path)
        by_module[module] += self_time
        by_function[f"{module}:{line} {name}"] += self_time
    total = sum(by_module.values())
    print(f"profiled self time {total:.2f} s")
    for table in (by_module, by_function):
        print()
        for key, seconds in table.most_common(top):
            print(f"{key:56} {seconds / total:6.1%} {seconds:8.3f} s")


class StackSampler:
    """Every ``interval`` seconds of this process's CPU time (or timer
    tick, if that is longer), charge one sample to the running stack
    (module docstring).  Main thread only — where a bench round runs."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples = 0
        self.cpu_s = 0.0
        self.self_samples: collections.Counter = collections.Counter()
        self.inclusive_samples: collections.Counter = collections.Counter()

    def _sample(self, _signum, frame) -> None:
        self.samples += 1
        innermost = owner = None
        on_stack = set()
        while frame is not None:
            code = frame.f_code
            if innermost is None:
                innermost = code
            if owner is None and "/src/repro/" in code.co_filename:
                owner = code
            on_stack.add(code)
            frame = frame.f_back
        self.self_samples[owner or innermost] += 1
        self.inclusive_samples.update(on_stack)

    def runcall(self, func, *args):
        """Run ``func(*args)`` sampled; nests with earlier calls' counts."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        began = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            return func(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self.cpu_s += time.process_time() - began

    def report(self, top: int) -> None:
        """Self time by innermost ``repro/`` frame, then inclusive time."""
        total = self.samples or 1
        # The kernel's timer tick, not the interval asked for, sets the rate.
        print(f"{self.samples} samples over {self.cpu_s:.2f} s of CPU time")
        for title, table in (("self", self.self_samples), ("inclusive", self.inclusive_samples)):
            print(f"\n{title}")
            for code, count in table.most_common(top):
                label = f"{_module(code.co_filename)}:{code.co_firstlineno} {code.co_name}"
                print(f"{label:64} {count / total:6.1%} {count:7d}")


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


def emission_census(config, boundary) -> collections.Counter:
    """``kind/op`` counts of the events one boundary trial emits: the
    workload up to the armed crash, then the recovery it absorbs."""
    from repro.errors import SystemCrash
    from repro.explore.workloads import build_run

    def crash(event) -> None:
        raise SystemCrash(f"census: armed crash at boundary {boundary.index}")

    run = build_run(config)
    rec = run.recorder
    rec.start(cap=config.event_cap)
    rec.arm_crash(boundary.index, crash)
    run.execute()
    rec.stop()
    return collections.Counter(f"{event.kind}/{event.op}" for event in rec.events())


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
    parser.add_argument(
        "--sample", action="store_true",
        help="stack sampler instead of cProfile: self time by innermost repro/ "
        "frame and inclusive time, C time included, no per-call tax",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, REPO)
    from bench import require_src
    from bench.workloads import derive_seed

    require_src()
    seed = derive_seed(args.seed, args.workload)
    profile = StackSampler() if args.sample else cProfile.Profile()

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
        median_cost, median = sorted(zip(costs, range(len(costs))))[len(costs) // 2]
        print(
            f"{len(costs)} trials: median {median_cost * 1e3:.1f} ms, "
            f"mean {sum(costs) / len(costs) * 1e3:.1f} ms"
        )
        census = emission_census(config, boundaries[median])
        print(
            f"median trial (boundary {boundaries[median].index}, "
            f"{boundaries[median].key()}) emitted {sum(census.values())} events"
        )
        for key, count in census.most_common():
            print(f"  {key:32} {count:6d}")
        if args.wall:
            return 0
    else:
        from bench.worker import run

        record = profile.runcall(run, args.workload, seed, 1.0, "")
        print(f"{args.workload}: {record['ops']} ops, timed {record['timed_wall_s']:.2f} s wall")
    if args.sample:
        profile.report(args.top)
        return 0 if profile.samples else 1  # no samples: the sampler is broken
    report(profile, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
