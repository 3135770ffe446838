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
plain wall-clock cost per trial.  Either way it then prints the
median-cost trial's wall time split at its armed crash (``to the crash
X ms, after it Y ms``: the build and the recorded run, then recovery and
the checks, with the recorder off), its recovery phases in ms
(:data:`RECOVERY_PHASES`), the dissect memo's hits and misses over the
run, and what a fully recorded re-run of that trial emits into the
flight recorder, counted by ``kind/op`` (:func:`emission_census`) —
explore_traffic is the one recorder-on workload, and a recorder-path
question should start from those counts.

Every mode but ``--memory`` also prints ``kernel steps: N charged —
sched_tick a, vnode_scan b, cache_copy c, bcopy d``: the instructions
the kernel's routine calls charged to virtual CPU time (20 ns each), by
routine, whichever route ran them; ``background walks: N of M
ticks (B boots)``: of the M background walker calls the process made,
the N that walked their structure rather than replaying the last walk's
plan, and the B kernels it booted (a clean boot walks each of its two
structures once); and
``registry stores: N of M took the layered route, S per guarded write
(W writes)``: of the M registry entry stores — each store of a batch
counted — the N that did not apply their known effect
(``Registry._apply_known_effect``), and M over the W guarded cache
writes (``RioGuard.begin_write``); and ``clock: N of M advances woke
the listeners``: of the M advances of a virtual clock (every
``consume``, every ``advance_to`` that moves it), the N that reached a
listener's deadline.  Work in pool children or shard processes is not
counted.

cProfile taxes every Python call and nothing inside C, which shifts the
shares — and hides exactly the functions that are a few long C calls.
``--sample`` runs the same round (or ``--trials``) under a stack sampler
instead: ``signal.setitimer(ITIMER_PROF)`` interrupts every millisecond of
CPU time and the handler walks the stack, charging *self* time to the
innermost frame under ``src/repro/`` (C calls made from it included; a
stack with no such frame goes to its innermost frame) and *inclusive*
time to every function on the stack.  A sample whose stack is inside
``bench/hostclock.py`` — ``HostClock``'s calibration slices, run between
laps and outside the timed work (13 % of ``table2_disk``'s samples on a
2-vCPU host) — is counted, printed and left out of every share.  Nothing
is taxed per call.  The kernel's timer tick bounds the rate (250 samples per CPU second here,
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
import tracemalloc

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
        #: Samples taken inside ``bench/hostclock.py``: ``HostClock``'s
        #: calibration slices, which run between laps, outside the timed
        #: work, and are left out of every share.
        self.calibration_samples = 0
        self.cpu_s = 0.0
        self.self_samples: collections.Counter = collections.Counter()
        self.inclusive_samples: collections.Counter = collections.Counter()

    def _sample(self, _signum, frame) -> None:
        innermost = owner = None
        on_stack = set()
        while frame is not None:
            code = frame.f_code
            if code.co_filename.endswith("bench/hostclock.py"):
                self.calibration_samples += 1
                return
            if innermost is None:
                innermost = code
            if owner is None and "/src/repro/" in code.co_filename:
                owner = code
            on_stack.add(code)
            frame = frame.f_back
        self.samples += 1
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
        print(
            f"{self.samples} samples over {self.cpu_s:.2f} s of CPU time "
            f"({self.calibration_samples} in HostClock's calibration slices dropped)"
        )
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


#: The recovery phases ``--trials`` times in every trial: label, module,
#: and the function (or ``Class.method``) looked up there at call time.
RECOVERY_PHASES = (
    ("metadata restore", "repro.system", "dump_and_recover_metadata"),
    ("fsck", "repro.system", "fsck"),
    ("mount inode scan", "repro.fs.ufs", "UFS._scan_free_inodes"),
    ("dissect", "repro.fs.dissect.divergence", "dissect_image"),
    ("spec check", "repro.explore.spec", "CrashSpec.check"),
)
#: Wrapped like a phase, but only its calls are reported: the walks
#: behind the ``dissect`` phase's calls, the rest being memo hits.
DISSECT_WALK = ("dissect walk", "repro.fs.dissect.parser", "_dissect")
#: Wrapped so the armed crash's hook stamps the moment it fires.
ARMED_CRASH = ("crash", "repro.obs.events", "FlightRecorder.arm_crash")


def wrap_in_place(targets, wrap) -> list:
    """Replace each ``(label, module, function or Class.method)`` of
    ``targets`` by ``wrap(label, original)``; returns what
    :func:`unwrap` needs to put the originals back."""
    import importlib

    undo = []
    for label, module_name, path in targets:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        setattr(owner, name, wrap(label, original))
        undo.append((owner, name, original))
    return undo


def unwrap(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class CallCounter:
    """Counts, while active, the calls of :data:`COUNTED` — wrapped in
    place — and the stores the batches of :data:`KNOWN` applied, sums the
    steps the calls of :data:`CHARGED` charged, by routine, and the pages
    the calls of :data:`FILE_PAGES` returned against the pages cached."""

    #: ``(label, module, function or Class.method)``: the background
    #: walker calls and the walks among them (the rest replayed a plan),
    #: and the kernels booted; the registry's entry stores that took the
    #: layered route, and the guarded writes (their windows); the clock's
    #: advances and the wakes among them.
    COUNTED = (
        ("ticks", "repro.isa.routines", "_run_chains"),
        ("walks", "repro.isa.routines", "_walk_chains"),
        ("boots", "repro.kernel.kernel", "Kernel.__init__"),
        ("layered", "repro.core.registry", "Registry._store_fields"),
        ("guarded writes", "repro.core.guard", "RioGuard.begin_write"),
        ("consume", "repro.hw.clock", "Clock.consume"),
        ("advance_to", "repro.hw.clock", "Clock.advance_to"),
        ("wakes", "repro.hw.clock", "Clock._fire"),
    )

    #: The registry's known-effect batches: a true return applied the
    #: batch's stores (its record, then each of its edits).
    KNOWN = (("known", "repro.core.registry", "Registry._apply_known_effect"),)
    #: The kernel's routine calls (``KLib._run``), whose charged steps
    #: are summed per routine.
    CHARGED = (("steps", "repro.kernel.klib", "KLib._run"),)
    #: The routines the kernel calls, in the order the tally prints them.
    ROUTINES = ("sched_tick", "vnode_scan", "cache_copy", "bcopy")
    #: A file's cached pages, found through the cache's per-file index:
    #: what ``flush_file`` and ``invalidate_file`` read.
    FILE_PAGES = (("file pages", "repro.fs.cache", "PageCache.file_pages"),)

    def __init__(self) -> None:
        self.calls: collections.Counter = collections.Counter()
        self.steps: collections.Counter = collections.Counter()
        self.pages = {"returned": 0, "cached": 0}

    def __enter__(self) -> "CallCounter":
        self._undo = wrap_in_place(self.COUNTED, self._counted)
        self._undo += wrap_in_place(self.KNOWN, self._known)
        self._undo += wrap_in_place(self.CHARGED, self._charged)
        self._undo += wrap_in_place(self.FILE_PAGES, self._paged)
        return self

    def __exit__(self, *_exc) -> None:
        unwrap(self._undo)

    def _counted(self, label: str, func):
        def counted(*args, **kwargs):
            # An advance_to into the past is no advance.
            if label != "advance_to" or args[1] > args[0].now_ns:
                self.calls[label] += 1
            return func(*args, **kwargs)

        return counted

    def _known(self, label: str, func):
        def known(registry, slot, vaddr, record, edits):
            applied = func(registry, slot, vaddr, record, edits)
            if applied:
                self.calls[label] += len(edits) + (record is not None)
            return applied

        return known

    def _charged(self, _label: str, func):
        def charged(klib, name, *args, **kwargs):
            before = klib.stat_instructions
            result = func(klib, name, *args, **kwargs)
            if klib.charge_time:
                self.steps[name] += klib.stat_instructions - before
            return result

        return charged

    def _paged(self, label: str, func):
        def paged(cache, *args, **kwargs):
            self.calls[label] += 1
            result = func(cache, *args, **kwargs)
            self.pages["returned"] += len(result)
            self.pages["cached"] += len(cache.pages)
            return result

        return paged

    def report(self) -> None:
        by_routine = ", ".join(f"{name} {self.steps[name]}" for name in self.ROUTINES)
        print(f"kernel steps: {sum(self.steps.values())} charged — {by_routine}")
        calls = self.calls
        print(
            f"background walks: {calls['walks']} of {calls['ticks']} ticks"
            f" ({calls['boots']} boots)"
        )
        stores = calls["layered"] + calls["known"]
        writes = calls["guarded writes"]
        per_write = f"{stores / writes:.2f}" if writes else "-"
        print(
            f"registry stores: {calls['layered']} of {stores} took the layered route,"
            f" {per_write} per guarded write ({writes} writes)"
        )
        advances = calls["consume"] + calls["advance_to"]
        print(f"clock: {calls['wakes']} of {advances} advances woke the listeners")
        print(
            f"file pages: {calls['file pages']} lookups returned"
            f" {self.pages['returned']} pages of {self.pages['cached']} cached"
        )


class PhaseTimer:
    """Wall time per :data:`RECOVERY_PHASES` entry, one dict per trial,
    calls per entry over the run, and each trial's wall time split at its
    first armed crash: the named functions are wrapped in place while the
    timer is active."""

    def __init__(self) -> None:
        self.trials: list[dict] = []
        self.calls: collections.Counter = collections.Counter()
        #: ``(to the crash, after it)`` in seconds, one pair per trial.
        self.splits: list[tuple] = []

    def __enter__(self) -> "PhaseTimer":
        self._undo = wrap_in_place((*RECOVERY_PHASES, DISSECT_WALK), self._timed)
        self._undo += wrap_in_place((ARMED_CRASH,), self._armed)
        return self

    def __exit__(self, *_exc) -> None:
        unwrap(self._undo)

    def _timed(self, label: str, func):
        def timed(*args, **kwargs):
            self.calls[label] += 1
            began = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                phases = self.trials[-1]
                phases[label] = phases.get(label, 0.0) + time.perf_counter() - began

        return timed

    def _armed(self, label: str, arm_crash):
        def arm(recorder, seq, hook):
            def stamped(event):
                self.trials[-1].setdefault(label, time.perf_counter())
                return hook(event)

            return arm_crash(recorder, seq, stamped)

        return arm

    def run(self, func, *args):
        """Call ``func(*args)`` as one trial."""
        phases: dict = {}
        self.trials.append(phases)
        began = time.perf_counter()
        try:
            return func(*args)
        finally:
            ended = time.perf_counter()
            crashed = phases.pop(ARMED_CRASH[0], ended)
            self.splits.append((crashed - began, ended - crashed))


def emission_census(config, boundary) -> collections.Counter:
    """``kind/op`` counts of the events a fully recorded re-run of one
    boundary trial emits: the workload up to the armed crash, then the
    recovery it absorbs.  A sweep's trial records only those up to the
    crash — the armed event's hook stops the recorder — so the census is
    what the recorder costs a trial that records everything, as the
    re-run of a violating trial does."""
    from repro.errors import SystemCrash
    from repro.explore.workloads import EVENT_CAP, build_run

    def crash(event) -> None:
        raise SystemCrash(f"census: armed crash at boundary {boundary.index}")

    run = build_run(config)
    rec = run.recorder
    rec.start(cap=EVENT_CAP)
    rec.arm_crash(boundary.index, crash)
    run.execute()
    rec.stop()
    return collections.Counter(f"{event.kind}/{event.op}" for event in rec.events())


def memory_profile(workload: str, seed: int) -> dict:
    """One round in process under ``tracemalloc``: ``{bucket: highest
    traced peak in bytes}`` over the ``HostClock`` buckets it laps into."""
    from bench.hostclock import HostClock
    from bench.worker import run

    peaks: dict = {}
    lap = HostClock.lap

    def traced_lap(clock, bucket):
        peaks[bucket] = max(peaks.get(bucket, 0), tracemalloc.get_traced_memory()[1])
        lap(clock, bucket)
        tracemalloc.reset_peak()  # the next bucket starts from what is live now

    HostClock.lap = traced_lap
    tracemalloc.start()
    try:
        run(workload, seed, 1.0, "")
    finally:
        tracemalloc.stop()
        HostClock.lap = lap
    return peaks


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
    parser.add_argument(
        "--memory", action="store_true",
        help="no profiler: the traced memory peak of each HostClock bucket",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, REPO)
    from bench import require_src
    from bench.workloads import derive_seed

    require_src()
    seed = derive_seed(args.seed, args.workload)
    if args.memory:
        peaks = memory_profile(args.workload, seed)
        print(f"{args.workload}: traced peak by HostClock bucket")
        for bucket, peak in sorted(peaks.items(), key=lambda item: -item[1]):
            print(f"  {bucket:24} {peak / 2**20:8.1f} MiB")
        return 0 if peaks else 1  # no lap seen: the hook is broken
    profile = StackSampler() if args.sample else cProfile.Profile()
    counter = CallCounter()

    if args.trials:
        if args.workload != "explore_traffic":
            parser.error("--trials is the in-process mode of explore_traffic")
        from repro.explore import run_boundary_trial

        config, boundaries = explore_trials(seed, args.trials)
        costs = []
        with PhaseTimer() as phases, counter:
            for boundary in boundaries:
                began = time.perf_counter()
                if args.wall:
                    phases.run(run_boundary_trial, config, boundary)
                else:
                    profile.runcall(phases.run, run_boundary_trial, config, boundary)
                costs.append(time.perf_counter() - began)
        median_cost, median = sorted(zip(costs, range(len(costs))))[len(costs) // 2]
        print(
            f"{len(costs)} trials: median {median_cost * 1e3:.1f} ms, "
            f"mean {sum(costs) / len(costs) * 1e3:.1f} ms"
        )
        to_crash, after = phases.splits[median]
        print(
            f"median trial's wall time: to the crash {to_crash * 1e3:.1f} ms, "
            f"after it {after * 1e3:.1f} ms" + ("" if args.wall else " (profiled)")
        )
        print("median trial's recovery phases" + ("" if args.wall else " (profiled)"))
        for label, _module, _path in RECOVERY_PHASES:
            print(f"  {label:32} {phases.trials[median].get(label, 0.0) * 1e3:8.3f} ms")
        misses = phases.calls[DISSECT_WALK[0]]
        print(f"dissect memo: {phases.calls['dissect'] - misses} hits, {misses} misses")
        counter.report()
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

        with counter:
            record = profile.runcall(run, args.workload, seed, 1.0, "")
        print(f"{args.workload}: {record['ops']} ops, timed {record['timed_wall_s']:.2f} s wall")
        counter.report()
    if args.sample:
        profile.report(args.top)
        return 0 if profile.samples else 1  # no samples: the sampler is broken
    report(profile, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
