# Convenience targets for the TSN-Builder reproduction.

PYTHON ?= python3

.PHONY: install test bench bench-campaign bench-e2e bench-full examples lint-rtl outputs clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

# The work budgets: Python calls per switch-hop, per kernel event, per
# placed flow, search node and annealing iteration (tier-1 holds each
# under a ceiling; this prints what the tree measures).  Timing is
# bench-e2e's.
bench:
	PYTHONPATH=src $(PYTHON) -m tests.test_hop_budget

bench-campaign:
	$(PYTHON) benchmarks/bench_campaign.py --output BENCH_campaign.json

# The repo benchmark (BENCHMARK.json): every workload in a fresh child,
# untraced + traced, then compared against the committed baseline run.
bench-e2e:
	mkdir -p build
	$(PYTHON) benchmarks/e2e/run.py --seed 1 --traced --out build/bench_e2e.json
	$(PYTHON) benchmarks/e2e/run.py compare benchmarks/e2e/baseline.json build/bench_e2e.json

# The paper's tables and figures at full scale (1 024 flows, 100 ms);
# tier-1 runs the same tests at a reduced scale.
bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest tests/paper -s

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

lint-rtl:
	$(PYTHON) -m repro emit-rtl --preset ring --outdir build/rtl-lint >/dev/null && echo "RTL bundle lints clean"

outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src $(PYTHON) -m tests.test_hop_budget 2>&1 | tee bench_output.txt

clean:
	rm -rf build .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
