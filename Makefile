# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench reports examples precommit all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

reports:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

# What a commit must survive locally: the repo-specific linter over the
# files git considers changed (a few seconds over src/), plus
# tests/check: the linter's own suite and the runtime purity and
# sanitizer tests that cover the GCA's owner-write contract.  Wire it
# to git via .pre-commit-config.yaml or plain `make precommit`.
precommit:
	PYTHONPATH=src $(PYTHON) -m repro check src --changed-only --stats
	PYTHONPATH=src $(PYTHON) -m pytest tests/check -q

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		$(PYTHON) $$ex > /dev/null || exit 1; \
	done
	@echo "all examples ran clean"

all: test reports bench examples

clean:
	rm -rf .pytest_cache .hypothesis build src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
