# Developer entry points.  `make test` is the tier-1 suite; `make lint`
# verifies formatting locally (ruff when installed, mechanical fallback in
# offline containers — see scripts/lint.py); `make bench` runs the gated
# benchmarks the CI bench job runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint format bench coverage

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) scripts/lint.py

format:
	ruff format src tests benchmarks scripts

coverage:
	$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term --cov-fail-under=80

bench:
	$(PYTHON) -m pytest \
		benchmarks/bench_fig6_validation_time.py \
		benchmarks/bench_spec_compile.py \
		benchmarks/bench_scale_throughput.py \
		benchmarks/bench_stream_throughput.py \
		benchmarks/bench_contingency_sweep.py \
		benchmarks/bench_k2_sweep.py \
		benchmarks/bench_gate.py \
		benchmarks/bench_serve_throughput.py \
		-q -s --benchmark-disable
