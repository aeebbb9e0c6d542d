PYTHONPATH := src

.PHONY: test test-fast coverage bench bench-update perf-tests formal chaos service-smoke e2e-verdicts paper-table4 \
	codegen-differential

# Functional suite only; the perf gate is machine-sensitive, run it via
# `make bench` / `make perf-tests`.
test:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q -m "not perf"

# Quick inner-loop run: unit/property suites only (skips the perf marker, the
# slower formal SAT proofs and the paper-reproduction suites under benchmarks/).
test-fast:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q -m "not perf and not formal" tests

# The slower SAT equivalence proofs only (also part of `make test` and CI).
formal:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q -m formal

# Fault-injection suite only: worker crashes, non-cooperative hangs, deadline
# enforcement and quarantine/resume semantics (also part of `make test` and CI).
chaos:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q -m chaos tests/chaos

# Evaluation-service smoke: real server + worker processes over HTTP, a
# SIGKILLed worker mid-lease, exact requeue accounting and live /metrics
# (also CI's `service-smoke` job).
service-smoke:
	PYTHONPATH=$(PYTHONPATH) python tools/service_smoke.py

# Line-coverage report over src/repro (uses the `coverage` package when
# installed, a stdlib settrace collector otherwise).
coverage:
	PYTHONPATH=$(PYTHONPATH) python tools/coverage_report.py

# Gate the tracked microbenchmarks against the committed BENCH_perf.json
# baseline (fails on a >2x regression).
bench:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/perf/run_perf.py --check

# Re-measure and rewrite the committed baseline.
bench-update:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/perf/run_perf.py --update

# Just the perf-marked pytest gate.
perf-tests:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q -m perf benchmarks/perf

# Paper-scale Table IV once (290,400 units, under a minute on two cores):
# prints wall_s, units_per_s, peak RSS and the per-unit verdict digest, and
# exits 1 when the digest differs from the one recorded in the tool.
paper-table4:
	PYTHONPATH=$(PYTHONPATH) python tools/paper_table4.py

# End-to-end verdict check: one repetition of each e2ebench workload (quick
# Table IV simulation, Table V formal, the HTTP service queue) compared with
# the committed e2ebench/reference.json; run.py exits 1 on `correct: false`.
# Table V, the workload whose proofs unroll sequential designs, also runs at
# the further stimulus seeds E2E_FORMAL_SEEDS, and quick Table IV, whose
# simulation checks start every clocked design from its post-reset state, at
# the further generation seeds E2E_SIM_SEEDS.
E2E_WORKLOADS := table4-sim table5-formal service-queue
E2E_FORMAL_SEEDS := 1 2 3
E2E_SIM_SEEDS := 1 2 3

e2e-verdicts:
	set -e; for workload in $(E2E_WORKLOADS); do \
		python e2ebench/run.py --workload $$workload --seconds 0.1 --trace 0; \
	done; \
	for seed in $(E2E_FORMAL_SEEDS); do \
		python e2ebench/run.py --workload table5-formal --seed $$seed --seconds 0.1 --trace 0; \
	done; \
	for seed in $(E2E_SIM_SEEDS); do \
		python e2ebench/run.py --workload table4-sim --seed $$seed --seconds 0.1 --trace 0; \
	done

# Quick Table IV and quick Table V (simulation mode) in-process with
# differential_oracle=True: every check that ran on generated code is
# re-checked on the scalar simulator; exits 1 on any divergence.
codegen-differential:
	PYTHONPATH=$(PYTHONPATH) python tools/codegen_differential.py
