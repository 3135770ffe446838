# Convenience targets for the Rio reproduction.

PY ?= python

.PHONY: install test lint docstrings serve-smoke bench-compare profile forensics-smoke explore-smoke examples table1 table1-par table2 clean

install:
	pip install -e . --no-build-isolation || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# Static-analysis lint over every kernel routine; fails on any finding.
lint:
	PYTHONPATH=src $(PY) -m repro lint

# Docstring-coverage gate over the gated packages (see the script).
docstrings:
	$(PY) scripts/check_docstrings.py

# The file service under a crash storm: 16 clients, 3 mid-traffic
# kernel crashes, exit 1 if a single acknowledged op is lost.
serve-smoke:
	PYTHONPATH=src $(PY) -m repro serve --clients 16 --crashes 3

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

# Flight-recorder smoke: a tiny traced 2-job campaign (disk/pointer
# corrupts within its first attempts under the default seed schedule),
# then per-trial crash forensics over the journal it wrote.
forensics-smoke:
	rm -rf forensics-smoke.jsonl forensics-smoke.jsonl.traces forensics-smoke.out
	PYTHONPATH=src $(PY) -m repro table1 --scale 2 --jobs 2 \
		--systems disk --faults pointer \
		--resume forensics-smoke.jsonl --trace-corruptions
	PYTHONPATH=src $(PY) -m repro forensics forensics-smoke.jsonl \
		| tee forensics-smoke.out
	grep -q "first divergent store" forensics-smoke.out
	rm -rf forensics-smoke.jsonl forensics-smoke.jsonl.traces forensics-smoke.out

# Exhaustive crash-point sweep on a clean kernel: every boundary of a
# small workload crashed at --jobs 2; requires 100% coverage and zero
# spec violations (the command exits 1 on violations, 2 if incomplete).
# Then the same sweep again over the journal the first one wrote:
# resuming a finished sweep must re-run nothing.
explore-smoke:
	rm -rf explore-smoke.out explore-smoke.jsonl
	PYTHONPATH=src $(PY) -m repro explore basic --ops 0 --jobs 2 \
		--resume explore-smoke.jsonl | tee explore-smoke.out
	grep -q "(100.0%)" explore-smoke.out
	grep -q "violations: none" explore-smoke.out
	PYTHONPATH=src $(PY) -m repro explore basic --ops 0 --jobs 2 \
		--resume explore-smoke.jsonl | tee explore-smoke.out
	grep -q "trials: 0 run, " explore-smoke.out
	grep -q "(100.0%)" explore-smoke.out
	rm -rf explore-smoke.out explore-smoke.jsonl

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/crash_survival.py
	$(PY) examples/inspect_rio.py
	$(PY) examples/transaction_processing.py
	$(PY) examples/file_server.py
	$(PY) examples/load_and_crash.py
	$(PY) examples/fault_injection.py
	$(PY) examples/performance_table.py

table1:
	$(PY) -m repro table1 --scale 4

# Same campaign through the parallel engine: one worker per CPU, with a
# resumable checkpoint (interrupt freely; re-run to continue).
JOBS ?= $(shell $(PY) -c "import os; print(os.cpu_count() or 1)")
table1-par:
	PYTHONPATH=src $(PY) -m repro table1 --scale 4 --jobs $(JOBS) \
		--resume table1-checkpoint.jsonl

table2:
	$(PY) -m repro table2

clean:
	rm -rf .pytest_cache .hypothesis
	rm -rf forensics-smoke.jsonl forensics-smoke.jsonl.traces
	rm -rf explore-smoke.out explore-smoke.jsonl
	find . -name __pycache__ -type d -exec rm -rf {} +
