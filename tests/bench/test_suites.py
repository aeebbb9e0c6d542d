"""Tests for the benchmark suite generators."""

from __future__ import annotations

import pytest

from repro.bench.rtllm import RTLLMConfig, RTLLM_TASK_COUNT, build_rtllm
from repro.bench.suites import SUITES, TABLE4_SUITES, build_suite
from repro.bench.symbolic_suite import SYMBOLIC_TOTAL, build_symbolic_suite
from repro.bench.task import BenchmarkSuite
from repro.bench.verilogeval import (
    HUMAN_STATE_DIAGRAM_COUNT,
    HUMAN_TASK_COUNT,
    HUMAN_TRUTH_TABLE_COUNT,
    HUMAN_WAVEFORM_COUNT,
    MACHINE_TASK_COUNT,
    SuiteConfig,
    build_symbolic_subset,
    build_verilogeval_human,
    build_verilogeval_machine,
)
from repro.bench.verilogeval_v2 import V2Config, build_verilogeval_v2
from repro.experiments import ExperimentScale, build_suites
from repro.runs.manifest import SuiteSpec
from repro.runs.presets import table4_manifest
from repro.runs.resolve import ManifestResolver


class TestVerilogEvalMachine:
    def test_full_size_matches_paper(self):
        suite = build_verilogeval_machine()
        assert len(suite) == MACHINE_TASK_COUNT == 143

    def test_no_symbolic_tasks(self):
        suite = build_verilogeval_machine(SuiteConfig(num_tasks=40))
        assert not any(task.is_symbolic for task in suite)

    def test_unique_task_ids(self):
        suite = build_verilogeval_machine(SuiteConfig(num_tasks=40))
        ids = [task.task_id for task in suite]
        assert len(ids) == len(set(ids))

    def test_scaled_size(self):
        assert len(build_verilogeval_machine(SuiteConfig(num_tasks=30))) == 30

    def test_machine_demands_softer_than_human(self):
        machine = build_verilogeval_machine(SuiteConfig(num_tasks=40, seed=2))
        human = build_verilogeval_human(SuiteConfig(num_tasks=40, seed=2))
        machine_difficulty = sum(t.demands.difficulty for t in machine) / len(machine)
        human_difficulty = sum(t.demands.difficulty for t in human) / len(human)
        assert machine_difficulty < human_difficulty


class TestVerilogEvalHuman:
    def test_full_size_and_symbolic_composition(self):
        suite = build_verilogeval_human()
        assert len(suite) == HUMAN_TASK_COUNT == 156
        categories = suite.categories()
        assert categories["truth_table"] == HUMAN_TRUTH_TABLE_COUNT == 10
        assert categories["waveform"] == HUMAN_WAVEFORM_COUNT == 13
        assert categories["state_diagram"] == HUMAN_STATE_DIAGRAM_COUNT == 21

    def test_symbolic_subset_is_44(self):
        suite = build_verilogeval_human()
        symbolic = build_symbolic_subset(suite)
        assert len(symbolic) == SYMBOLIC_TOTAL == 44
        assert all(task.is_symbolic for task in symbolic)

    def test_scaled_suite_keeps_mix(self):
        suite = build_verilogeval_human(SuiteConfig(num_tasks=40))
        assert len(suite) == 40
        categories = suite.categories()
        assert categories.get("truth_table", 0) >= 1
        assert categories.get("state_diagram", 0) >= 1

    def test_deterministic(self):
        first = build_verilogeval_human(SuiteConfig(num_tasks=20, seed=3))
        second = build_verilogeval_human(SuiteConfig(num_tasks=20, seed=3))
        assert [t.prompt.text for t in first] == [t.prompt.text for t in second]

    def test_category_diversity(self):
        suite = build_verilogeval_human()
        assert len(suite.categories()) >= 10


class TestRTLLM:
    def test_full_size(self):
        assert len(build_rtllm()) == RTLLM_TASK_COUNT == 29

    def test_demands_harder_than_human_families(self):
        suite = build_rtllm(RTLLMConfig(num_tasks=12, seed=1))
        assert all(task.demands.difficulty >= 0.3 for task in suite)
        assert all(task.suite == "rtllm" for task in suite)

    def test_no_symbolic_tasks(self):
        assert not any(task.is_symbolic for task in build_rtllm(RTLLMConfig(num_tasks=12)))


class TestVerilogEvalV2:
    def test_full_size(self):
        assert len(build_verilogeval_v2()) == 156

    def test_prompt_style(self):
        suite = build_verilogeval_v2(V2Config(num_tasks=10))
        assert all(task.prompt_style == "spec_to_rtl" for task in suite)
        assert all(task.prompt.text.startswith("Question:") for task in suite)

    def test_contains_symbolic_tasks(self):
        suite = build_verilogeval_v2(V2Config(num_tasks=30))
        assert any(task.is_symbolic for task in suite)


class TestSymbolicSuite:
    def test_composition(self):
        suite = build_symbolic_suite()
        counts = suite.categories()
        assert counts == {"truth_table": 10, "waveform": 13, "state_diagram": 21}

    def test_name(self):
        assert build_symbolic_suite().name == "Symbolic-Modalities"


class TestSuiteRegistry:
    def test_builds_each_suite_at_the_scale_seed_plus_its_offset(self):
        scale = ExperimentScale.tiny()
        machine = build_suite("machine", scale)
        expected = build_verilogeval_machine(
            SuiteConfig(num_tasks=scale.machine_tasks, seed=scale.seed + 11)
        )
        assert [t.task_id for t in machine] == [t.task_id for t in expected]
        rtllm = build_suite("rtllm", scale)
        assert [t.reference_source for t in rtllm] == [
            t.reference_source for t in build_rtllm(RTLLMConfig(num_tasks=3, seed=43))
        ]

    def test_full_subset_sizes_only_the_symbolic_suite(self):
        scale = ExperimentScale.tiny()
        assert len(build_suite("symbolic", scale, full_subset=True)) == SYMBOLIC_TOTAL
        assert len(build_suite("symbolic", scale)) < SYMBOLIC_TOTAL
        assert len(build_suite("human", scale, full_subset=True)) == scale.human_tasks

    def test_unknown_id_fails_in_the_registry(self):
        with pytest.raises(KeyError, match="unknown suite id 'nope'"):
            build_suite("nope", ExperimentScale.tiny())
        resolver = ManifestResolver(table4_manifest(ExperimentScale.tiny()))
        with pytest.raises(KeyError, match="unknown suite id 'nope'"):
            resolver.suite(SuiteSpec("nope"))

    def test_table4_reads_the_registry(self):
        assert set(TABLE4_SUITES) <= set(SUITES)
        assert list(build_suites(ExperimentScale.tiny())) == list(TABLE4_SUITES)
        manifest = table4_manifest(ExperimentScale.tiny(), baseline_keys=[], include_haven=False)
        assert [spec.suite_id for spec in manifest.suites] == list(TABLE4_SUITES)


class TestSuiteOperations:
    def test_subset_stratified(self, tiny_human_suite):
        subset = tiny_human_suite.subset(6, seed=1)
        assert len(subset) == 6
        assert len(subset.categories()) >= 3

    def test_subset_noop_when_larger(self, tiny_human_suite):
        assert tiny_human_suite.subset(1000) is tiny_human_suite

    def test_by_category(self, tiny_human_suite):
        for category, count in tiny_human_suite.categories().items():
            assert len(tiny_human_suite.by_category(category)) == count

    def test_add_and_iter(self):
        suite = BenchmarkSuite(name="s")
        assert len(suite) == 0
        for task in build_rtllm(RTLLMConfig(num_tasks=3)):
            suite.add(task)
        assert len(suite) == 3


class TestReferenceValidation:
    """The suite builders' reference designs must pass their own testbenches.

    Runs on small scaled suites via the batched runner with the differential
    oracle on, so the batch engine is cross-checked against the scalar
    simulator on real task families (combinational and sequential).
    """

    def test_verilogeval_references_self_consistent(self):
        from repro.bench.verilogeval import validate_references

        failures = validate_references(
            SuiteConfig(num_tasks=10, seed=5), max_tasks=10, differential=True
        )
        assert failures == {}

    def test_verilogeval_v2_references_self_consistent(self):
        from repro.bench.verilogeval_v2 import validate_references

        failures = validate_references(V2Config(num_tasks=8, seed=9), differential=True)
        assert failures == {}

    def test_rtllm_references_self_consistent(self):
        from repro.bench.rtllm import validate_references

        failures = validate_references(RTLLMConfig(num_tasks=12, seed=3), differential=True)
        assert failures == {}

    def test_scalar_and_batched_validation_agree(self):
        from repro.bench.evaluator import check_reference_designs
        from repro.verilog.simulator.testbench import TestbenchRunner

        suite = build_verilogeval_machine(SuiteConfig(num_tasks=8, seed=21))
        assert check_reference_designs(suite) == {}
        for task in suite:
            scalar = TestbenchRunner(clock=task.clock, reset=task.reset).run(
                task.reference_source,
                task.golden(),
                task.stimulus(1234),
                check_outputs=task.check_outputs,
            )
            assert scalar.passed, (task.task_id, scalar.failure_summary)
