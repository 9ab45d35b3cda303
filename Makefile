PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test smoke chaos fuzz fuzz-hostile bench bench-quick \
	bench-gate bench-e2e-gate report clean-cache

check: test smoke

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) scripts/smoke_cache.py
	$(PYTHON) scripts/smoke_jit.py
	$(PYTHON) scripts/smoke_telemetry.py
	$(PYTHON) scripts/smoke_trace.py
	$(PYTHON) scripts/smoke_chaos.py
	$(PYTHON) scripts/smoke_smc.py
	$(PYTHON) scripts/smoke_fuzz.py

# A longer differential-fuzzing pass than the smoke run: 200 seeded
# programs through every oracle stage, with shrinking on any finding.
fuzz:
	$(PYTHON) -m repro fuzz --count 200 --seed 1 --shrink

# Hostile-guest fuzzing: self-modifying code, protection flips and
# syscalls, with the SMC/protect chaos sites layered on top.
fuzz-hostile:
	$(PYTHON) -m repro fuzz --count 100 --seed 1 --hostile --chaos \
		--shrink

# The full differential chaos suite: every workload under every seeded
# fault schedule must converge to the fault-free interpreter.
chaos:
	$(PYTHON) -m pytest tests/test_chaos_differential.py \
		tests/test_faults.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-quick:
	REPRO_BENCH_BUDGET=10000 $(PYTHON) -m pytest \
		benchmarks/bench_exec_engine.py -q -s

# Re-run the exec benchmark at the full budget (bench-quick's reduced
# budget is a different run context, which the sentinel would refuse to
# gate), write the record to a scratch file, and gate it against the
# committed baseline.  Exits non-zero on a perf regression.
bench-gate:
	REPRO_BENCH_OUTPUT=/tmp/BENCH_exec.fresh.json $(PYTHON) -m pytest \
		benchmarks/bench_exec_engine.py -q -s
	$(PYTHON) -m repro bench-compare BENCH_exec.json \
		/tmp/BENCH_exec.fresh.json

# Record the end-to-end benchmark afresh (about four minutes) to a
# scratch file and gate it against the committed BENCH_e2e.json: each
# end-to-end metric within its BENCHMARK.json bound, every count exact.
bench-e2e-gate:
	$(PYTHON) scripts/record_e2e.py --output /tmp/BENCH_e2e.fresh.json
	$(PYTHON) -m repro bench-compare BENCH_e2e.json \
		/tmp/BENCH_e2e.fresh.json

report:
	$(PYTHON) -m repro report -o results.md

clean-cache:
	rm -rf "$${REPRO_CACHE_DIR:-$$HOME/.cache/repro/runpoints}"
