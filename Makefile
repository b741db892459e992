# Contributor/CI entrypoints. `make test` is the exact tier-1 command the
# roadmap pins; CI must run the same thing contributors do.

PYTHON ?= python

.PHONY: test collect lint lint-deep format docs-check size test-lock-order \
	fuzz bench bench-e2e test-e2e-harness bench-pairs

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

collect:
	PYTHONPATH=src $(PYTHON) -m pytest --collect-only -q

lint:
	ruff check src tests benchmarks
	ruff format --check src

# Project-specific static analysis (repro.analysis): lock discipline,
# restart stability, exception hygiene, shared aliasing, parity
# surface. Fails on any finding not in analysis-baseline.txt and on
# stale baseline entries. See CONTRIBUTING.md for triage.
lint-deep:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro

format:
	ruff format src
	ruff check --fix src tests benchmarks

# Docs gate: every relative markdown link in the README, docs/, and the
# top-level project files must resolve to a real file (anchors and
# external URLs are out of scope — no network in CI), and the
# docs/OPERATIONS.md metric inventory must match the metrics the code
# actually declares, both directions.
docs-check:
	$(PYTHON) benchmarks/check_docs_links.py
	$(PYTHON) benchmarks/check_metric_docs.py

# Size gate: source lines of code per package (non-blank, non-comment,
# non-docstring, counted from the AST). tests/test_ci_pipeline.py pins
# src/repro/engine at ENGINE_SLOC_CEILING, the CLI (src/repro/__main__.py,
# printed on its own line) at MAIN_SLOC_CEILING and the src/repro total at
# SRC_SLOC_CEILING — raise them on purpose or not at all. The executable
# specs moved out of src/ (tests/reference_walk.py, Algorithm 2's walk;
# tests/reference_build.py, Section 4.3's object-based build) are printed
# on their own lines after the total: moved code is shown as moved, not
# as deleted.
size:
	$(PYTHON) benchmarks/check_size.py

# Dynamic lock-order leg: re-runs the engine's concurrency hammer tests
# with every engine lock replaced by an instrumented wrapper recording
# the runtime acquisition graph; the session fails on any cycle
# (a latent deadlock), however the timing fell.
test-lock-order:
	PYTHONPATH=src REPRO_LOCK_ORDER=1 $(PYTHON) -m pytest -x -q \
		tests/test_engine.py tests/test_async_engine.py \
		tests/test_sharding.py tests/test_elastic.py \
		tests/test_parallel_builds.py tests/test_telemetry.py \
		tests/test_dynamic_serving.py tests/test_epoch.py \
		tests/test_pin_leaks.py tests/test_lock_order.py \
		tests/test_serving_contract.py tests/test_engine_machine.py

# Long run of the engine differential machine (tests/test_engine_machine.py):
# random interleavings of every public operation on every back end,
# checked against tests/oracle.py, under the "fuzz" hypothesis profile
# (tests/conftest.py). Tier-1 runs the same machine at its default budget.
fuzz:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_engine_machine.py \
		--hypothesis-profile=fuzz

# The absolute, layered benchmark (BENCHMARK.json): serves one seeded
# workload (WORKLOAD=scan_measured; default all six, each untraced then
# traced), checks every answer against the oracle, prints the metrics.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --workload $(or $(WORKLOAD),all)

# Alternating parent/change pairs of that benchmark, the way a gain is
# claimed (choosing-metrics §8): PARENT=<checkout of the parent commit>
# WORKLOAD=scan_stream [PAIRS=10 SEED=11 OUT=BENCH_<pr>.json]. WORKLOAD
# may be a comma list, or all (the default): each workload's pairs run
# in turn. Each side runs its own tree's run.py; a run that fails or
# answers wrong stops the loop. Prints both medians, quartiles, wins and
# the verdict per end-to-end metric, and merges each row into $(OUT).
bench-pairs:
	$(PYTHON) benchmarks/bench_pairs.py --parent $(PARENT) \
		--workload $(or $(WORKLOAD),all) --pairs $(or $(PAIRS),10) \
		--seed $(or $(SEED),11) $(if $(OUT),--out $(OUT))

# Self-test of that benchmark's harness: contract and tables in sync,
# counts repeatable, a corrupted answer reported as a failure.
test-e2e-harness:
	$(PYTHON) -m pytest benchmarks/e2e -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q
