"""Job-based evaluation orchestrator: memoisation, parallelism, differential parity.

The acceptance bar for the compile-once refactor: cached and uncached
evaluation must produce *identical* ``SuiteResult``s (including formal-mode
verdicts), repeated candidates must be checked exactly once across
temperatures and runs, and the worker-pool path must agree with serial
execution — also on suites whose golden factories are closures, since a
request carries the golden's recorded outputs, not the golden.
"""

from __future__ import annotations

import pickle
from functools import partial

import pytest

import repro.bench.evaluator as evaluator_module
from repro.bench.evaluator import BenchmarkEvaluator, EvaluationConfig
from repro.bench.golden import TableGolden, VectorFunctionGolden, random_vectors
from repro.bench.jobs import (
    CheckRequest,
    ExecutionPolicy,
    ResultKey,
    design_key,
    mode_key,
    percentile,
    run_checks,
    stimulus_key,
)
from repro.bench.task import BenchmarkSuite, BenchmarkTask
from repro.bench.verilogeval import SuiteConfig, build_verilogeval_human
from repro.core.llm.base import GenerationConfig, GenerationContext, GeneratedSample, LLMBackend
from repro.core.llm.profiles import BASELINE_PROFILES
from repro.core.llm.simulated import SimulatedCodeGenLLM
from repro.core.pipeline import HaVenPipeline
from repro.core.prompt import DesignPrompt, ModuleInterface, PortSpec
from repro.verilog.design import DesignDatabase
from repro.verilog.simulator.testbench import ExpectedTrace


# --------------------------------------------------------------------------- backends
class PerfectBackend(LLMBackend):
    """Always returns the task's reference implementation."""

    name = "Perfect"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        return [
            GeneratedSample(code=context.reference_source, sample_index=index)
            for index in range(config.num_samples)
        ]


class ZeroBackend(LLMBackend):
    """Returns a compiling module whose outputs are constantly zero."""

    name = "ConstantZero"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        ports = []
        for port in context.interface.ports:
            range_text = f"[{port.width - 1}:0] " if port.width > 1 else ""
            ports.append(f"    {port.direction} {range_text}{port.name}")
        body = [f"    assign {port.name} = 0;" for port in context.interface.output_ports]
        source = (
            f"module {context.interface.name} (\n"
            + ",\n".join(ports)
            + "\n);\n"
            + "\n".join(body)
            + "\nendmodule\n"
        )
        return [GeneratedSample(code=source, sample_index=index) for index in range(config.num_samples)]


# --------------------------------------------------------------------------- picklable suite
def _xor_fn(inputs):
    return {"y": inputs["a"] ^ inputs["b"]}


def _sum_fn(inputs):
    return {"y": (inputs["a"] + inputs["b"]) & 0xF}


_PICKLABLE_SPECS = [
    ("pick_xor", "assign y = a ^ b;", 1, _xor_fn),
    ("pick_sum", "assign y = a + b;", 4, _sum_fn),
]


def _picklable_suite() -> BenchmarkSuite:
    """Tasks whose golden factories pickle (module-level partials)."""
    suite = BenchmarkSuite(name="picklable")
    for task_id, body, width, fn in _PICKLABLE_SPECS:
        interface = ModuleInterface(
            name="top_module",
            ports=[
                PortSpec("a", "input", width),
                PortSpec("b", "input", width),
                PortSpec("y", "output", width),
            ],
        )
        range_text = f"[{width - 1}:0] " if width > 1 else ""
        reference = (
            f"module top_module(input {range_text}a, input {range_text}b, "
            f"output {range_text}y);\n    {body}\nendmodule\n"
        )
        widths = {"a": width, "b": width}
        suite.add(
            BenchmarkTask(
                task_id=task_id,
                suite="picklable",
                prompt=DesignPrompt(text=f"Implement {task_id}.", interface=interface),
                interface=interface,
                reference_source=reference,
                golden_factory=partial(VectorFunctionGolden, fn),
                stimulus_factory=partial(random_vectors, widths, 12),
            )
        )
    return suite


def _suite_results_equal(left, right) -> bool:
    return (
        left.suite_name == right.suite_name
        and left.ks == right.ks
        and left.task_results == right.task_results
    )


# --------------------------------------------------------------------------- memoisation
class TestMemoisation:
    def _counting_evaluate(self, monkeypatch, config, pipeline, suite):
        """Run an evaluation while counting the check requests actually executed."""
        executed: list[int] = []
        real_run_checks = evaluator_module.run_checks

        def counting(requests, max_workers=1, **kwargs):
            executed.append(len(requests))
            return real_run_checks(requests, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(evaluator_module, "run_checks", counting)
        evaluator = BenchmarkEvaluator(config)
        first = evaluator.evaluate(pipeline, suite)
        first_executed = sum(executed)
        executed.clear()
        second = evaluator.evaluate(pipeline, suite)
        return first, second, first_executed, sum(executed)

    def test_identical_candidates_checked_once_across_temperatures(self, monkeypatch):
        suite = build_verilogeval_human(SuiteConfig(num_tasks=4, seed=11))
        config = EvaluationConfig(num_samples=3, ks=(1,), temperatures=(0.2, 0.5, 0.8))
        pipeline = HaVenPipeline(PerfectBackend(), use_sicot=False)
        first, second, first_executed, second_executed = self._counting_evaluate(
            monkeypatch, config, pipeline, suite
        )
        # The perfect backend emits one unique code per task: one check per
        # task regardless of samples × temperatures.
        assert first_executed == len(suite)
        # A repeated evaluation is served entirely from the memo.
        assert second_executed == 0
        assert _suite_results_equal(first, second)

    def test_memoisation_disabled_re_executes(self, monkeypatch):
        suite = build_verilogeval_human(SuiteConfig(num_tasks=3, seed=11))
        config = EvaluationConfig(
            num_samples=2, ks=(1,), temperatures=(0.2, 0.5), memoize_results=False
        )
        pipeline = HaVenPipeline(PerfectBackend(), use_sicot=False)
        first, second, first_executed, second_executed = self._counting_evaluate(
            monkeypatch, config, pipeline, suite
        )
        # Without memoisation every temperature sweep is cold (per-temperature
        # dedup of identical samples is retained).
        assert first_executed == len(suite) * 2
        assert second_executed == first_executed
        assert _suite_results_equal(first, second)


# --------------------------------------------------------------------------- run_checks
def _check_requests(copies: int = 1) -> list[CheckRequest]:
    requests = []
    suite = _picklable_suite()
    for task in suite:
        stimulus = task.stimulus(7)
        key = ResultKey(
            design_key=design_key(task.reference_source),
            stimulus_key=stimulus_key(
                task.task_id,
                stimulus,
                task.check_outputs,
                task.clock,
                task.reset,
                reference_source=task.reference_source,
            ),
            mode=mode_key(mode="simulation", differential=False, formal_conflict_limit=None),
        )
        for _ in range(copies):
            requests.append(
                CheckRequest(
                    key=key,
                    code=task.reference_source,
                    task_id=task.task_id,
                    expected=ExpectedTrace.record(task.golden(), stimulus),
                    stimulus=stimulus,
                    reference_source=task.reference_source,
                    check_outputs=task.check_outputs,
                    clock=task.clock,
                    reset=task.reset,
                )
            )
    return requests


class TestRunChecks:
    def _requests(self, copies: int = 1) -> list[CheckRequest]:
        return _check_requests(copies)

    def test_duplicate_keys_executed_once(self):
        requests = self._requests(copies=3)
        results = run_checks(requests, max_workers=1).results()
        assert len(results) == len(_PICKLABLE_SPECS)
        assert all(result.passed for result in results.values())

    def test_parallel_matches_serial(self):
        serial = run_checks(self._requests(), max_workers=1).results()
        parallel = run_checks(self._requests(), max_workers=2).results()
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].passed == parallel[key].passed
            assert serial[key].total_checks == parallel[key].total_checks


    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_golden_error_mid_stimulus_retries_then_quarantines(self, max_workers):
        # The golden raises on vector 2 (out of range for a 1-bit input); the
        # replay raises it again there, so the check takes the same retry and
        # quarantine path, with the same text, as with a live golden.
        code = "module t(input a, input b, output y);\n    assign y = a & b;\nendmodule\n"
        stimulus = [{"a": 0, "b": 1}, {"a": 1, "b": 1}, {"a": 2, "b": 0}, {"a": 0, "b": 0}]
        expected = ExpectedTrace.record(TableGolden(("a", "b"), {3: 1}, "y"), stimulus)
        requests = [
            CheckRequest(
                key=ResultKey(design_key(source), "raising", "simulation"),
                code=source,
                task_id="raising",
                expected=expected,
                stimulus=stimulus,
            )
            for source in (code, code.replace("&", "|"))
        ]
        policy = ExecutionPolicy(backoff_s=0.001, backoff_cap_s=0.01)
        report = run_checks(requests, max_workers=max_workers, policy=policy)
        error = "stimulus value 2 for input 'a' does not fit in 1 bit(s)"
        for request in requests:
            execution = report.executions[request.key]
            assert execution.quarantined and not execution.timed_out
            assert (execution.attempts, execution.degradation) == (3, ("batch->scalar",))
            assert execution.error == error
            assert execution.result.failure_summary == (
                f"simulation error: quarantined after 3 attempt(s): {error}"
            )
            assert execution.result.total_checks == 0
        assert report.warnings == []


# --------------------------------------------------------------------------- latency accounting
class TestLatencyAccounting:
    """Every settled attempt carries a wall-clock duration; the report
    summarises them as nearest-rank percentiles."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_every_execution_times_its_attempts(self, max_workers):
        report = run_checks(_check_requests(), max_workers=max_workers)
        assert report.executions
        for execution in report.executions.values():
            assert len(execution.attempt_durations) == execution.attempts
            assert execution.duration_s > 0
            assert execution.total_duration_s >= execution.duration_s

    def test_percentiles_are_ordered_and_bounded(self):
        report = run_checks(_check_requests(copies=2), max_workers=1)
        samples = sorted(e.duration_s for e in report.executions.values())
        p50, p99 = percentile(samples, 0.5), percentile(samples, 0.99)
        assert 0 < p50 <= p99 <= samples[-1]

    def test_empty_report_has_no_samples(self):
        assert run_checks([], max_workers=1).executions == {}
        with pytest.raises(ValueError):
            percentile([], 0.5)


# --------------------------------------------------------------------------- parallel evaluation
class TestParallelEvaluation:
    def test_worker_pool_matches_serial_on_picklable_suite(self):
        suite = _picklable_suite()
        pipeline = HaVenPipeline(PerfectBackend(), use_sicot=False)
        serial = BenchmarkEvaluator(
            EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,), max_workers=1)
        ).evaluate(pipeline, suite)
        parallel = BenchmarkEvaluator(
            EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,), max_workers=2)
        ).evaluate(pipeline, suite)
        assert _suite_results_equal(serial, parallel)
        assert serial.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_closure_goldens_run_on_the_pool_without_warnings(self):
        # Family suites use closure golden factories, which do not pickle:
        # the requests carry recorded traces instead, so the pool path gives
        # the serial verdicts and records no warning.
        suite = build_verilogeval_human(SuiteConfig(num_tasks=4, seed=23))
        with pytest.raises(Exception):
            pickle.dumps(next(iter(suite)).golden_factory)
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"])
        pipeline = HaVenPipeline(backend, use_sicot=False)
        config = EvaluationConfig(num_samples=3, ks=(1,), temperatures=(0.2,))
        serial = BenchmarkEvaluator(config).evaluate(pipeline, suite)
        parallel_config = EvaluationConfig(
            num_samples=3, ks=(1,), temperatures=(0.2,), max_workers=4
        )
        evaluator = BenchmarkEvaluator(parallel_config)
        parallel = evaluator.evaluate(pipeline, suite)
        assert _suite_results_equal(serial, parallel)
        assert evaluator.warnings == []


def test_custom_database_receives_functional_check_traffic():
    """An evaluator-supplied database must serve the runners, not just the checker."""
    db = DesignDatabase()
    suite = _picklable_suite()
    pipeline = HaVenPipeline(PerfectBackend(), use_sicot=False)
    config = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,))
    result = BenchmarkEvaluator(config, database=db).evaluate(pipeline, suite)
    assert result.functional_pass_at_k()[1] == pytest.approx(1.0)
    # Syntax check + DUT compile per task went through the supplied database:
    # each task's DUT compile reused the parse its syntax check left there.
    # (A repeated sample is answered by the check core's syntax memo, so it
    # no longer shows up as a check hit.)
    assert db.stats.misses >= len(suite)
    assert db.stats.parse_hits >= len(suite)


def test_custom_database_stays_in_the_parent_process():
    """A database does not pickle: pool workers compile through their own."""
    suite = _picklable_suite()
    pipeline = HaVenPipeline(PerfectBackend(), use_sicot=False)
    config = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,), max_workers=2)
    evaluator = BenchmarkEvaluator(config, database=DesignDatabase())
    result = evaluator.evaluate(pipeline, suite)
    assert result.functional_pass_at_k()[1] == pytest.approx(1.0)
    assert evaluator.warnings == []


# --------------------------------------------------------------------------- differential parity
class TestCachedVsColdParity:
    """Cached and uncached paths must be bit-identical on randomized suites."""

    def _cold_evaluator(self, config: EvaluationConfig) -> BenchmarkEvaluator:
        cold_config = EvaluationConfig(
            num_samples=config.num_samples,
            ks=config.ks,
            temperatures=config.temperatures,
            mode=config.mode,
            formal_conflict_limit=config.formal_conflict_limit,
            memoize_results=False,
        )
        # max_entries=0 disables every database tier: front-end work really
        # happens per call on this path.
        return BenchmarkEvaluator(cold_config, database=DesignDatabase(max_entries=0))

    @pytest.mark.parametrize("backend_name", ["perfect", "zero", "simulated"])
    def test_simulation_mode_parity(self, backend_name):
        suite = build_verilogeval_human(SuiteConfig(num_tasks=8, seed=97))
        backend = {
            "perfect": PerfectBackend,
            "zero": ZeroBackend,
            "simulated": lambda: SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"]),
        }[backend_name]()
        pipeline = HaVenPipeline(backend, use_sicot=False)
        config = EvaluationConfig(num_samples=3, ks=(1,), temperatures=(0.2, 0.8))
        cached = BenchmarkEvaluator(config).evaluate(pipeline, suite)
        cold = self._cold_evaluator(config).evaluate(pipeline, suite)
        assert _suite_results_equal(cached, cold)

    @pytest.mark.formal
    def test_formal_mode_parity(self):
        suite = build_verilogeval_human(SuiteConfig(num_tasks=6, seed=41))
        config = EvaluationConfig(
            num_samples=2, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        for backend in (PerfectBackend(), SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"])):
            pipeline = HaVenPipeline(backend, use_sicot=False)
            cached = BenchmarkEvaluator(config).evaluate(pipeline, suite)
            cold = self._cold_evaluator(config).evaluate(pipeline, suite)
            assert _suite_results_equal(cached, cold)
