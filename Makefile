PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test ci-test bench fuzz example batch lint scenario-lint help

help:
	@echo "make test      - full suite (tier-1: tests + benchmarks)"
	@echo "make ci-test   - fast suite (benchmarks excluded by marker)"
	@echo "make bench     - benchmark suite only"
	@echo "make fuzz      - deep hypothesis profile over the property suites"
	@echo "make example   - regenerate examples/running_example.grom"
	@echo "make batch     - run the default batch corpus end to end"
	@echo "make lint      - determinism AST lint + ruff (when installed)"
	@echo "make scenario-lint - grom lint over examples/ and the default corpus"

test:
	$(PYTHON) -m pytest -x -q

ci-test:
	$(PYTHON) -m pytest -x -q -m "not bench"

bench:
	$(PYTHON) -m pytest benchmarks -q

# Nightly-style fuzzing: hundreds of fresh random examples per property
# (the CI run uses the fixed "ci" profile instead).  A failure prints
# the falsifying example; pin it as an @example line in the test file.
fuzz:
	HYPOTHESIS_PROFILE=deep $(PYTHON) -m pytest -q \
		tests/test_properties.py tests/test_property_parallel.py \
		tests/test_dsl_roundtrip.py

# The shipped DSL artifact is generated, never hand-edited: regenerate it
# from scenarios/running_example.py whenever the example or the
# serializer changes, so file and code cannot drift apart.
example:
	$(PYTHON) -m repro.cli export-example examples/running_example.grom

batch:
	$(PYTHON) -m repro.cli batch mixed --cache-dir .grom-cache --results batch-results.jsonl

# The merge paths of the parallel chase, the greedy ded sweep and the
# flight recorder promise bit-identical output; the AST lint rejects
# raw set iteration there.  ruff runs too when present (CI always has
# it; the dev container may not).
lint:
	$(PYTHON) tools/lint_determinism.py
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/ tests/ benchmarks/; \
	else \
		echo "ruff not installed; skipping (the CI lint job runs it)"; \
	fi

# Static mapping analysis over everything we ship: error-severity
# diagnostics fail the build.
scenario-lint:
	$(PYTHON) -m repro.cli lint examples/*.grom --corpus mixed
