PYTHON ?= python

export PYTHONPATH := src

.PHONY: test lint chaos chaos-par reproduce bench-lint examples trace-demo reach

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

# Host performance is measured by perfbench (perfbench/README.md), end
# to end and per layer:
#   python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0|1

# The paper reproduction: every figure and in-text result under
# benchmarks/ regenerates its table in results/, then any difference from
# the committed tables fails.  Each results/ table is one entry in
# src/repro/experiments/claims.py (its run, renderer, paper numbers and
# asserted bands); four are extensions with no paper number (load sweep,
# multi-stream, model validation, ring priority under load).
reproduce:
	$(PYTHON) -m pytest benchmarks/
	git diff --exit-code -- results/

# Lint engine benchmark: cold vs warm-cache wall-clock over src/
# (writes BENCH_lint.json).
bench-lint:
	$(PYTHON) benchmarks/lint_bench.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) "$$f" || exit 1; done

# Every src/repro function that no shipped run executes, grouped by file,
# each with its class from docs/ANALYSIS.md ("Never-run functions").  Runs
# the shipped entry points under a call recorder: a few minutes.
reach:
	$(PYTHON) tests/shipped_calls.py

# The observability layer end to end: the worst-packet waterfall example,
# then a stock-vs-CTMSP side-by-side Chrome-trace export (trace.json).
trace-demo:
	$(PYTHON) examples/trace_viewer.py
	$(PYTHON) -m repro trace --seed 7 --seconds 2 --out results/trace.json
