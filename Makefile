# Convenience targets for the ConfigValidator reproduction.

.PHONY: install test bench bench-check fuzz lint examples results all

# The targets import the package from src/, so a fresh checkout needs no
# `make install`; a PYTHONPATH already set stays on the path after it.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Regression gate: re-run the fleet/pipeline/incremental benchmarks and
# fail on a >25% throughput drop vs benchmarks/results/bench_baseline.json.
# bench_incremental.py additionally asserts the incremental-revalidation
# gates: >= 5x unchanged-fleet speedup, bounded cold-cycle overhead.
# bench_rule_plan.py asserts the compiled-plan gates: >= 2x planned
# throughput on the 16x ruleset, no 1x regression, byte-identical reports.
# bench_provenance.py asserts the provenance gates: <= 5% overhead for
# --provenance cycles, byte-identical provenance-off output.
# bench_executor.py times thread fan-out at 1/4/8 workers (throughput
# gate only).
bench-check:
	python benchmarks/compare_results.py

fuzz:
	pytest tests/test_fuzz_robustness.py

lint:
	python -m repro lint

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f > /dev/null || exit 1; done

results: bench
	cat benchmarks/results/*.txt

all: install test bench
