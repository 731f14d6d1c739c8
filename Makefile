PYTHON ?= python

export PYTHONPATH := src

.PHONY: test lint chaos chaos-par bench bench-check bench-compare bench-micro bench-fleet bench-lint examples trace-demo

# Static analysis first: a determinism/layering violation fails fast,
# before the (slower) simulation suites run.
test: lint
	$(PYTHON) -m pytest -q

# ctms-lint over the library sources (rules + suppression syntax are
# documented in docs/ANALYSIS.md): per-file rules plus the whole-program
# pass -- cross-module determinism inference (CTMS111/112), integer-ns
# unit dataflow (CTMS211/212), unused-suppression audit (CTMS001).  The
# committed baseline is empty for src/ -- new findings fail the build.
# Incremental via .ctms-lint-cache.json, so a clean re-run is near-instant.
lint:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json

# The chaos smoke campaigns on their own: fault survival, then the
# control-plane failover scenario.  Both are also part of the default
# test run behind the `chaos` pytest marker (tests/experiments/
# test_chaos.py, test_failover.py); `pytest -m "not chaos"` skips them.
chaos:
	$(PYTHON) -m repro chaos --smoke
	$(PYTHON) -m repro chaos --scenario failover --smoke

# The supervised parallel fleet: 4 seeds sharded over 4 workers, results
# journalled under .fleet/ (resume a killed run with --resume).
chaos-par:
	$(PYTHON) -m repro chaos --jobs 4 --seeds 4 --seconds 2 --intensities 1.0

# Perf trajectory: run the standard kernel/chaos/fleet workloads and
# refresh the committed BENCH_kernel.json baseline.  `make bench-check`
# reruns them and fails if throughput regressed past tolerance (the
# default test run includes a fast --quick smoke of the same check).
bench:
	$(PYTHON) -m repro bench

bench-check:
	$(PYTHON) -m repro bench --check

# Trajectory between two committed artifacts, e.g. the baseline at an old
# ref vs the working tree:
#   git show v0:BENCH_kernel.json > /tmp/old.json
#   make bench-compare OLD=/tmp/old.json NEW=BENCH_kernel.json
OLD ?= /tmp/old.json
NEW ?= BENCH_kernel.json
bench-compare:
	$(PYTHON) -m repro bench --compare $(OLD) $(NEW)

# The paper reproductions under benchmarks/ (every figure and in-text
# result; tables land in results/), each run exactly once under
# pytest-benchmark's `benchmark` fixture so the report times them end
# to end.  There are no micro-benchmarks.
bench-micro:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fleet scaling benchmark: wall-clock jobs=1 vs jobs=4 (writes BENCH_fleet.json).
bench-fleet:
	$(PYTHON) benchmarks/fleet_bench.py

# Lint engine benchmark: cold vs warm-cache wall-clock over src/
# (writes BENCH_lint.json).
bench-lint:
	$(PYTHON) benchmarks/lint_bench.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) "$$f" || exit 1; done

# The observability layer end to end: the worst-packet waterfall example,
# then a stock-vs-CTMSP side-by-side Chrome-trace export (trace.json).
trace-demo:
	$(PYTHON) examples/trace_viewer.py
	$(PYTHON) -m repro trace --seed 7 --seconds 2 --out results/trace.json
