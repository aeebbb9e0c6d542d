"""Scoring a pipeline on a suite (generate → compile → simulate → pass@k) through the run engine."""

from __future__ import annotations

import pytest

from repro.bench.evaluator import EvaluationConfig
from repro.core.llm.base import GenerationConfig, GenerationContext, GeneratedSample, LLMBackend
from repro.core.llm.profiles import BASELINE_PROFILES
from repro.core.llm.simulated import SimulatedCodeGenLLM
from repro.core.pipeline import HaVenPipeline
from scoring import score


class PerfectBackend(LLMBackend):
    """Always returns the task's reference implementation."""

    name = "Perfect"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        return [
            GeneratedSample(code=context.reference_source, sample_index=index)
            for index in range(config.num_samples)
        ]


class BrokenBackend(LLMBackend):
    """Always returns code that does not even compile."""

    name = "Broken"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        return [
            GeneratedSample(code="def module(): pass", sample_index=index)
            for index in range(config.num_samples)
        ]


class WrongButCompilingBackend(LLMBackend):
    """Returns a compiling module whose single output is constantly zero."""

    name = "ConstantZero"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        ports = []
        for port in context.interface.ports:
            range_text = f"[{port.width - 1}:0] " if port.width > 1 else ""
            ports.append(f"    {port.direction} {range_text}{port.name}")
        body = []
        for port in context.interface.output_ports:
            body.append(f"    assign {port.name} = 0;")
        source = (
            f"module {context.interface.name} (\n" + ",\n".join(ports) + "\n);\n" + "\n".join(body) + "\nendmodule\n"
        )
        return [GeneratedSample(code=source, sample_index=index) for index in range(config.num_samples)]


@pytest.fixture(scope="module")
def config() -> EvaluationConfig:
    return EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,))


class TestEvaluator:
    def test_perfect_backend_scores_100(self, tiny_human_suite, config):
        result = score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)
        assert result.syntax_pass_at_k()[1] == pytest.approx(1.0)

    def test_broken_backend_scores_0(self, tiny_human_suite, config):
        result = score(HaVenPipeline(BrokenBackend(), use_sicot=False), tiny_human_suite, config)
        assert result.functional_pass_at_k()[1] == pytest.approx(0.0)
        assert result.syntax_pass_at_k()[1] == pytest.approx(0.0)

    def test_wrong_but_compiling_backend_fails_functionally(self, tiny_human_suite, config):
        pipeline = HaVenPipeline(WrongButCompilingBackend(), use_sicot=False)
        result = score(pipeline, tiny_human_suite, config)
        assert result.syntax_pass_at_k()[1] > 0.9
        assert result.functional_pass_at_k()[1] < 0.3

    def test_simulated_backend_between_extremes(self, tiny_human_suite, config):
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"])
        result = score(HaVenPipeline(backend, use_sicot=False), tiny_human_suite, config)
        value = result.functional_pass_at_k()[1]
        assert 0.0 < value < 1.0

    def test_task_results_populated(self, tiny_human_suite, config):
        result = score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)
        assert len(result.task_results) == len(tiny_human_suite)
        for task_result in result.task_results:
            assert task_result.num_samples == 2
            assert task_result.category

    def test_max_tasks_limits_evaluation(self, tiny_human_suite):
        config = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,), max_tasks=3)
        result = score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)
        assert len(result.task_results) == 3

    def test_category_breakdown(self, tiny_human_suite, config):
        result = score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)
        by_category = result.by_category()
        assert sum(total for _, total in by_category.values()) == len(tiny_human_suite)
        per_category = result.category_pass_at_1()
        assert all(value == pytest.approx(1.0) for value in per_category.values())

    def test_temperature_sweep_takes_best(self, tiny_human_suite):
        sweep = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2, 0.8))
        single = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,))
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["codeqwen-7b"])
        swept = score(HaVenPipeline(backend, use_sicot=False), tiny_human_suite, sweep)
        fixed = score(HaVenPipeline(backend, use_sicot=False), tiny_human_suite, single)
        assert swept.functional_pass_at_k()[1] >= fixed.functional_pass_at_k()[1]

    def test_failure_examples_recorded(self, tiny_human_suite, config):
        result = score(HaVenPipeline(BrokenBackend(), use_sicot=False), tiny_human_suite, config)
        assert any(task_result.failure_examples for task_result in result.task_results)

    def test_empty_temperature_sweep_is_rejected(self, tiny_human_suite):
        config = EvaluationConfig(num_samples=1, temperatures=())
        with pytest.raises(ValueError, match="temperatures"):
            score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)

    def test_batch_and_scalar_runners_agree(self, tiny_human_suite):
        """Every candidate of a sweep: the batched runner reproduces the scalar one."""
        from repro.verilog.simulator.testbench import BatchTestbenchRunner, TestbenchRunner

        pipeline = HaVenPipeline(
            SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"]), use_sicot=False
        )
        checked = 0
        for task in tiny_human_suite:
            generation = pipeline.generate(
                prompt=task.prompt,
                interface=task.interface,
                reference_source=task.reference_source,
                demands=task.demands,
                config=GenerationConfig(temperature=0.2, num_samples=2, seed=0),
                prompt_style=task.prompt_style,
                task_id=task.task_id,
            )
            stimulus = task.stimulus(1234)
            for sample in generation.samples:
                options = {"clock": task.clock, "reset": task.reset}
                fast = BatchTestbenchRunner(**options).run(
                    sample.code, task.golden(), stimulus, check_outputs=task.check_outputs
                )
                slow = TestbenchRunner(**options).run(
                    sample.code, task.golden(), stimulus, check_outputs=task.check_outputs
                )
                fast_outcome = (fast.passed, fast.total_checks, fast.failure_summary)
                assert fast_outcome == (slow.passed, slow.total_checks, slow.failure_summary)
                checked += 1
        assert checked == 2 * len(tiny_human_suite)

    def test_differential_oracle_mode_runs_clean(self, tiny_human_suite):
        config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), max_tasks=4, differential_oracle=True
        )
        result = score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_differential_oracle_sweep_matches_default_sweep(self, tiny_human_suite):
        """Identical verdicts — task by task — with every fast run re-checked."""
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"])

        def sweep(differential_oracle):
            config = EvaluationConfig(
                num_samples=2,
                ks=(1,),
                temperatures=(0.2,),
                differential_oracle=differential_oracle,
            )
            return score(HaVenPipeline(backend, use_sicot=False), tiny_human_suite, config)

        fast, checked = sweep(False), sweep(True)
        assert fast.functional_pass_at_k() == checked.functional_pass_at_k()
        for fast_task, checked_task in zip(fast.task_results, checked.task_results):
            assert fast_task.task_id == checked_task.task_id
            assert fast_task.num_functional_passes == checked_task.num_functional_passes
            assert fast_task.num_syntax_passes == checked_task.num_syntax_passes

    def test_codegen_coverage_snapshot(self, tiny_human_suite, config):
        from repro.verilog import codegen

        score(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite, config)
        coverage = codegen.fallback_stats()
        assert set(coverage) == {"total", "reasons", "designs"}
        assert coverage["total"] == sum(coverage["reasons"].values())

    def test_each_sample_index_is_drawn_once(self, tiny_human_suite):
        """Draws name their sample indices: one ``generate_at`` per work unit."""

        class CountingBackend(PerfectBackend):
            def __init__(self):
                self.calls: list[tuple[str, float, int]] = []

            def generate_at(self, context, config, index):
                self.calls.append((context.task_id, config.temperature, index))
                return super().generate_at(context, config, index)

        backend = CountingBackend()
        config = EvaluationConfig(num_samples=3, ks=(1,), temperatures=(0.2, 0.8), max_tasks=4)
        result = score(HaVenPipeline(backend, use_sicot=False), tiny_human_suite, config)
        tasks = [task.task_id for task in tiny_human_suite][:4]
        assert backend.calls == [
            (task_id, temperature, index)
            for task_id in tasks
            for temperature in (0.2, 0.8)
            for index in range(3)
        ]
        assert [task.num_samples for task in result.task_results] == [3] * 4


class TestAggregationEdgeCases:
    """SuiteResult aggregation over degenerate per-task shapes."""

    def _result(self, counts, ks=(1, 5)):
        from repro.bench.evaluator import SuiteResult, TaskResult

        return SuiteResult(
            suite_name="edge",
            model_name="edge",
            ks=ks,
            task_results=[
                TaskResult(
                    task_id=f"t{i}",
                    category=category,
                    num_samples=n,
                    num_functional_passes=c,
                    num_syntax_passes=c,
                    temperature=0.2,
                )
                for i, (n, c, category) in enumerate(counts)
            ],
        )

    def test_k_exceeding_samples_does_not_raise(self):
        result = self._result([(2, 1, "a"), (2, 2, "b")], ks=(1, 5))
        values = result.functional_pass_at_k()
        assert 0.0 <= values[1] <= values[5] <= 1.0

    def test_zero_sample_tasks_do_not_poison_suite(self):
        result = self._result([(0, 0, "a"), (10, 10, "b")])
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_category_pass_at_1_with_zero_sample_category(self):
        # A category whose only task drew zero samples reports 0.0, not a crash.
        result = self._result([(0, 0, "empty"), (10, 5, "full")])
        per_category = result.category_pass_at_1()
        assert per_category["empty"] == 0.0
        assert per_category["full"] == pytest.approx(0.5)

    def test_empty_suite_aggregates_to_empty(self):
        result = self._result([])
        assert result.functional_pass_at_k() == {1: 0.0, 5: 0.0}
        assert result.category_pass_at_1() == {}
        assert result.by_category() == {}


class TestScoringHelpers:
    """``task_result``/``best_temperature``: the aggregator's per-task scoring."""

    def test_task_result_counts_and_caps_failures_in_sample_order(self, tiny_human_suite):
        from repro.bench.evaluator import MAX_FAILURE_EXAMPLES, task_result
        from repro.bench.jobs import CheckOutcome

        def sample(index, syntax_ok, passed=False):
            return CheckOutcome(
                sample_index=index,
                temperature=0.5,
                syntax_ok=syntax_ok,
                syntax_error="" if syntax_ok else f"syntax {index}",
                functional_passed=passed,
                failure_summary="" if passed or not syntax_ok else f"mismatch {index}",
            )

        outcomes = [
            sample(0, True, passed=True),
            sample(1, False),
            sample(2, True),
            sample(3, True, passed=True),
            sample(4, False),
            sample(5, True),
        ]
        task = next(iter(tiny_human_suite))
        result = task_result(task, 0.5, outcomes)
        assert MAX_FAILURE_EXAMPLES == 3
        assert (result.task_id, result.category) == (task.task_id, task.category)
        assert result.temperature == 0.5
        assert result.num_samples == 6
        assert (result.num_syntax_passes, result.num_functional_passes) == (4, 2)
        assert result.failure_examples == ["syntax 1", "mismatch 2", "syntax 4"]

    def test_best_temperature_first_wins_ties(self):
        from repro.bench.evaluator import TaskResult, best_temperature

        def scored(temperature, passes):
            return TaskResult("t", "c", 4, passes, 4, temperature)

        best = best_temperature([scored(0.2, 1), scored(0.5, 3), scored(0.8, 3)])
        assert best.temperature == 0.5
        assert best_temperature([scored(0.2, 2), scored(0.8, 2)]).temperature == 0.2
        assert best_temperature([]) is None


class TestFormalMode:
    """mode="formal": combinational tasks get complete SAT proofs."""

    def _suite(self):
        from repro.bench.verilogeval import SuiteConfig, build_verilogeval_human

        return build_verilogeval_human(SuiteConfig(num_tasks=6))

    def test_perfect_backend_proves_equivalent(self):
        config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        result = score(HaVenPipeline(PerfectBackend(), use_sicot=False), self._suite(), config)
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_wrong_backend_fails_with_counterexample_mismatches(self):
        config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        pipeline = HaVenPipeline(WrongButCompilingBackend(), use_sicot=False)
        result = score(pipeline, self._suite(), config)
        assert result.functional_pass_at_k()[1] < 0.3
        # Failures must carry concrete evidence (formal counterexamples for
        # combinational tasks, simulation mismatches for sequential ones).
        failing = [r for r in result.task_results if not r.passed_at_least_once]
        assert failing
        assert any("expected" in example for r in failing for example in r.failure_examples)

    def test_formal_and_simulation_modes_agree(self):
        formal_config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        simulation_config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="simulation"
        )
        suite = self._suite()
        for backend in (PerfectBackend(), WrongButCompilingBackend()):
            pipeline = HaVenPipeline(backend, use_sicot=False)
            formal = score(pipeline, suite, formal_config)
            simulated = score(pipeline, suite, simulation_config)
            formal_verdicts = {r.task_id: r.passed_at_least_once for r in formal.task_results}
            simulated_verdicts = {
                r.task_id: r.passed_at_least_once for r in simulated.task_results
            }
            assert formal_verdicts == simulated_verdicts
