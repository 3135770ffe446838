# Convenience targets for the Rio reproduction.

PY ?= python

.PHONY: install test table1 bench-compare bench-same profile keep-list clean

install:
	pip install -e . --no-build-isolation || $(PY) setup.py develop

# Tier-1, the one gate: every `repro` subcommand, the routine-source
# assertions, the docstring gate, the tutorial and the examples are tests in it.
test:
	$(PY) -m pytest tests/

# Table 1 at the paper's scale (50 crashes per cell) into the tracked
# RESULTS_table1.json that README and EXPERIMENTS quote and
# tests/test_docs.py holds them to.  About 10 minutes on 2 workers; CI
# does not run it.  The journal (gitignored) resumes an interrupted run,
# and re-running over a finished one rewrites the file byte for byte.
TABLE1_JOURNAL ?= .table1.jsonl
table1:
	PYTHONPATH=src $(PY) -m repro table1 --scale 50 --jobs 2 --resume $(TABLE1_JOURNAL) --json > RESULTS_table1.json

# Diff two tracked trajectories of the repository benchmark
# (BENCH_<pr>.json at the repo root, written by `python3 -m bench
# --repeat 5 --out ...`): make bench-compare OLD=BENCH_12.json
# NEW=BENCH_13.json.  Exits 1 on a regression beyond the compare bounds.
bench-compare:
	$(PY) -m bench --compare $(OLD) $(NEW)

# The same two files must describe the same simulation: every workload's
# digest, virtual times and simulated per-layer counts exactly equal
# (make bench-same OLD=BENCH_12.json NEW=BENCH_13.json).  Exits 1 on any
# difference.
bench-same:
	$(PY) scripts/same_simulation.py $(OLD) $(NEW)

# Where one bench workload's host time goes: a round in process under
# cProfile, self time by module and by function (make profile
# W=serve_storm).  SAMPLE=1 swaps cProfile for the ITIMER_PROF stack
# sampler — self time by innermost repro/ frame and inclusive time, C
# time included, no per-call tax: the table to start a perf issue from.
# explore_traffic works in pool children the profiler cannot see, so
# TRIALS=N profiles every N-th boundary trial in process instead (make
# profile W=explore_traffic TRIALS=4; add WALL=1 for plain wall-clock ms
# per trial, no profiler), then prints the median trial's wall time split
# at its armed crash ("to the crash X ms, after it Y ms"), its recovery
# phases, and the emission census of a fully recorded re-run of it (a
# sweep's trial records only up to its crash: the armed event's hook
# stops the recorder).  MEM=1 asks where peak_rss_mb comes from: the
# round under tracemalloc, the traced peak of each HostClock bucket (make
# profile W=tiered_disk MEM=1) — the table to start a memory issue from.
# Every mode but MEM=1 also prints "kernel steps: N charged — sched_tick
# a, vnode_scan b, cache_copy c, bcopy d": the instructions each kernel
# routine charged to virtual CPU time, natively or interpreted; and
# "background walks: N of M ticks (B boots)": the kernel's background
# walkers that walked rather than replayed a plan, two per clean boot; and
# "registry stores: N of M took the layered route, S per guarded write (W
# writes)": the entry stores that did not apply their known effect, and all
# of them over the guarded cache writes; and "clock: N of M advances woke the
# listeners": the virtual-clock advances that reached a listener's deadline;
# and "file pages: N lookups returned M pages of P cached": what
# flush_file and invalidate_file read through the per-file page index,
# against the pages a scan of the cache would have visited.
profile:
	$(PY) scripts/profile_workload.py $(W) $(if $(TRIALS),--trials $(TRIALS)) $(if $(WALL),--wall) $(if $(SAMPLE),--sample) $(if $(MEM),--memory)

# What only tests run, and why each survivor stays: tier-1 under the call
# profiler (writes .funccov.json, ~6 min), then every production entry
# point under it (~10 min).  Exits 1 when a function reached only by
# tests has no class in scripts/funccov.py's KEEP table, or an entry of
# that table matches nothing.
keep-list:
	$(PY) -m pytest -q -p scripts.funccov
	$(PY) scripts/funccov.py --prod

clean:
	rm -rf .pytest_cache .hypothesis .funccov*.json
	find . -name __pycache__ -type d -exec rm -rf {} +
