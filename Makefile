# Convenience targets for the Rio reproduction.

PY ?= python

.PHONY: install test bench-compare profile clean

install:
	pip install -e . --no-build-isolation || $(PY) setup.py develop

# Tier-1, the one gate: every `repro` subcommand, the kernel-text lint,
# the docstring gate, the tutorial and the examples are tests in it.
test:
	$(PY) -m pytest tests/

# Diff two tracked trajectories of the repository benchmark
# (BENCH_<pr>.json at the repo root, written by `python3 -m bench
# --repeat 5 --out ...`): make bench-compare OLD=BENCH_12.json
# NEW=BENCH_13.json.  Exits 1 on a regression beyond the compare bounds.
bench-compare:
	$(PY) -m bench --compare $(OLD) $(NEW)

# Where one bench workload's host time goes: a round in process under
# cProfile, self time by module and by function (make profile
# W=serve_storm).  SAMPLE=1 swaps cProfile for the ITIMER_PROF stack
# sampler — self time by innermost repro/ frame and inclusive time, C
# time included, no per-call tax: the table to start a perf issue from.
# explore_traffic works in pool children the profiler cannot see, so
# TRIALS=N profiles every N-th boundary trial in process instead (make
# profile W=explore_traffic TRIALS=4; add WALL=1 for plain wall-clock ms
# per trial, no profiler).
profile:
	$(PY) scripts/profile_workload.py $(W) $(if $(TRIALS),--trials $(TRIALS)) $(if $(WALL),--wall) $(if $(SAMPLE),--sample)

clean:
	rm -rf .pytest_cache .hypothesis .funccov.json
	find . -name __pycache__ -type d -exec rm -rf {} +
