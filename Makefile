PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-processes test-shared test-all chaos chaos-node trace analyze report ablate bench-executors bench

# Tier-1: the full suite on the default (serial) backend.
test:
	$(PYTHON) -m pytest -x -q

# The same suite re-run over the process-pool executor backend: every
# runtime constructed without an explicit config picks the backend up
# from the environment, so this exercises picklability and the
# determinism-equivalence contract end to end.
test-processes:
	REPRO_EXECUTOR=processes REPRO_NUM_WORKERS=2 $(PYTHON) -m pytest -x -q

# And once more over the zero-copy shared-memory data plane: numpy
# splits live in shared segments, workers attach instead of unpickling.
# Results must stay byte-identical and no segment may leak.
test-shared:
	REPRO_EXECUTOR=processes REPRO_NUM_WORKERS=2 REPRO_DATA_PLANE=shared \
	$(PYTHON) -m pytest -x -q

test-all: test test-processes test-shared

# Chaos mode: the integration suite with task failures and DFS block
# loss injected through the environment, and job retries turned on to
# ride them out. Every assertion about clustering results still holds —
# faults and recovery perturb simulated time, never results.
chaos:
	REPRO_TASK_FAILURE_PROB=0.05 \
	REPRO_BLOCK_LOSS_PROB=0.02 \
	REPRO_MAX_JOB_RETRIES=3 \
	$(PYTHON) -m pytest tests/integration -x -q

# Node-failure chaos: correlated node loss, heartbeat detection and
# capacity-aware re-decisions. Runs the node-domain suites, then
# records a seeded node-chaos G-means run and gates it against the
# committed baseline journal — node deaths are drawn from a seeded
# stream, so the fresh run diffs clean unless something regressed.
NODE_CHAOS_JOURNAL ?= reports/node-chaos-run.jsonl
NODE_CHAOS_BASELINE ?= benchmarks/baselines/node-chaos-gmeans-seed7.jsonl
chaos-node:
	$(PYTHON) -m pytest tests/mapreduce/test_nodes.py \
		tests/integration/test_node_chaos.py \
		tests/properties/test_property_nodes.py -x -q
	rm -f $(NODE_CHAOS_JOURNAL)
	REPRO_NODE_FAILURE_PROB=0.02 \
	REPRO_NODE_FAULT_SEED=3 \
	$(PYTHON) examples/run_with_journal.py $(NODE_CHAOS_JOURNAL)
	$(PYTHON) -m repro analyze $(NODE_CHAOS_JOURNAL) \
		--out reports/node-chaos-report.txt
	$(PYTHON) -m repro diff $(NODE_CHAOS_BASELINE) $(NODE_CHAOS_JOURNAL) \
		--out reports/node-chaos-diff.txt

# Record a chaos-mode G-means run into a journal and render it: the
# full observability loop (journal -> replay -> trace) on one command.
TRACE_JOURNAL ?= reports/chaos-run.jsonl
trace:
	rm -f $(TRACE_JOURNAL)
	REPRO_TASK_FAILURE_PROB=0.05 \
	REPRO_BLOCK_LOSS_PROB=0.02 \
	REPRO_MAX_JOB_RETRIES=3 \
	$(PYTHON) examples/run_with_journal.py $(TRACE_JOURNAL)
	$(PYTHON) -m repro trace $(TRACE_JOURNAL) --gantt

# The journal analytics loop as CI runs it: record a seeded chaos run,
# profile it (skew/stragglers, heap-model audit, cost residuals), then
# gate it against the committed baseline journal. Faults are seeded,
# so the fresh run diffs clean against the baseline unless something
# actually regressed.
ANALYZE_JOURNAL ?= reports/analyze-run.jsonl
BASELINE_JOURNAL ?= benchmarks/baselines/chaos-gmeans-seed7.jsonl
analyze:
	rm -f $(ANALYZE_JOURNAL)
	REPRO_TASK_FAILURE_PROB=0.05 \
	REPRO_BLOCK_LOSS_PROB=0.02 \
	REPRO_MAX_JOB_RETRIES=3 \
	$(PYTHON) examples/run_with_journal.py $(ANALYZE_JOURNAL)
	$(PYTHON) -m repro analyze $(ANALYZE_JOURNAL) --out reports/analyze-report.txt
	$(PYTHON) -m repro diff $(BASELINE_JOURNAL) $(ANALYZE_JOURNAL) \
		--out reports/analyze-diff.txt

# The cross-run registry: record four heterogeneous seeded runs (clean,
# task-failure chaos, node-failure chaos, SLO abort) into one runs
# directory, then render the longitudinal dashboard. Everything the
# dashboard reads is simulated time, so regenerating it reproduces the
# committed reports/dashboard.* byte-for-byte unless behaviour changed.
# Each journal is re-recorded beside the old one and replaces it only
# when its canonical records changed, so an unchanged run leaves the
# committed file (wall-clock fields included) untouched.
RUNS_DIR ?= reports/runs
report:
	mkdir -p $(RUNS_DIR)
	$(PYTHON) examples/run_with_journal.py $(RUNS_DIR)/01-clean.jsonl
	REPRO_TASK_FAILURE_PROB=0.05 \
	REPRO_BLOCK_LOSS_PROB=0.02 \
	REPRO_MAX_JOB_RETRIES=3 \
	$(PYTHON) examples/run_with_journal.py $(RUNS_DIR)/02-chaos.jsonl
	REPRO_NODE_FAILURE_PROB=0.02 \
	REPRO_NODE_FAULT_SEED=3 \
	$(PYTHON) examples/run_with_journal.py $(RUNS_DIR)/03-node-chaos.jsonl
	REPRO_SLO=max_k=2 \
	$(PYTHON) examples/run_with_journal.py $(RUNS_DIR)/04-slo-abort.jsonl; \
	test $$? -eq 3
	$(PYTHON) -m repro dashboard $(RUNS_DIR) --out-dir reports \
		--basename dashboard

# The self-driving ablation grid: a seeded baseline plus one run per
# engine flip, importance scored purely from replay accounting, then
# the committed report re-verified against its journals (--check
# replays every journal and recomputes every delta bit-for-bit). A
# journal whose canonical records did not change is kept as it was.
# Exits non-zero if any run fails to reconcile or an infrastructure
# flip moves a simulated metric.
ABLATE_POINTS ?= 3000
ablate:
	$(PYTHON) -m repro ablate --points $(ABLATE_POINTS) \
		--out-dir reports --bench-json BENCH_observability.json \
		> /dev/null
	$(PYTHON) -m repro ablate --check --out-dir reports

bench-executors:
	$(PYTHON) -m pytest benchmarks/bench_executor_speedup.py -q -s

bench:
	$(PYTHON) -m pytest benchmarks -q -s
