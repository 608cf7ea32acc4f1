# Convenience targets for the TSN-Builder reproduction.

PYTHON ?= python3

.PHONY: install test bench bench-obs bench-campaign bench-kernel bench-sched bench-shard bench-e2e bench-check bench-full examples lint-rtl outputs clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench: bench-obs
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py --output BENCH_obs.json

bench-campaign:
	$(PYTHON) benchmarks/bench_campaign.py --output BENCH_campaign.json

bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py --output BENCH_kernel.json

bench-sched:
	$(PYTHON) benchmarks/bench_sched.py --output BENCH_sched.json

bench-shard:
	$(PYTHON) benchmarks/bench_shard.py --output BENCH_shard.json

# The repo benchmark (BENCHMARK.json): every workload in a fresh child,
# untraced + traced, then compared against the committed baseline run.
bench-e2e:
	mkdir -p build
	$(PYTHON) benchmarks/e2e/run.py --seed 1 --traced --out build/bench_e2e.json
	$(PYTHON) benchmarks/e2e/run.py compare benchmarks/e2e/baseline.json build/bench_e2e.json

bench-check:
	PYTHONPATH=src $(PYTHON) -m repro bench check --suite all

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

lint-rtl:
	$(PYTHON) -m repro emit-rtl --preset ring --outdir build/rtl-lint >/dev/null && echo "RTL bundle lints clean"

outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
