"""Per-unit sample-stream determinism (the run engine's generation contract)."""

from __future__ import annotations

import pytest

from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.core.llm.base import GenerationConfig, TaskDemands
from repro.core.llm.corruption import corruption_table
from repro.core.llm.profiles import BASELINE_PROFILES
from repro.core.llm.simulated import SimulatedCodeGenLLM, sample_stream_key
from repro.core.pipeline import HaVenPipeline
from repro.core.prompt import DesignPrompt, ModuleInterface, PortSpec
from repro.experiments import ExperimentScale, build_suites
from test_llm import _context

MUX_MODULE = (
    "module g(input a, input b, input s, output y);\n"
    "    assign y = s ? b : a;\nendmodule\n"
)


def backend(key: str = "codellama-7b", seed: int = 0) -> SimulatedCodeGenLLM:
    from repro.core.llm.profiles import BASE_MODEL_PROFILES

    registry = {**BASE_MODEL_PROFILES, **BASELINE_PROFILES}
    return SimulatedCodeGenLLM(registry[key], seed=seed)


class TestGenerateAt:
    def test_matches_serial_generation(self):
        context = _context(reference_source=MUX_MODULE, demands=TaskDemands(logic=0.7, difficulty=0.6))
        config = GenerationConfig(temperature=0.5, num_samples=6, seed=3)
        llm = backend()
        serial = llm.generate(context, config)
        for index in range(6):
            isolated = llm.generate_at(context, config, index)
            assert isolated.code == serial[index].code
            assert isolated.sample_index == index

    def test_independent_of_num_samples(self):
        context = _context(reference_source=MUX_MODULE, demands=TaskDemands(difficulty=0.7))
        llm = backend()
        few = GenerationConfig(temperature=0.2, num_samples=2, seed=0)
        many = GenerationConfig(temperature=0.2, num_samples=10, seed=0)
        assert llm.generate_at(context, few, 1).code == llm.generate(context, many)[1].code

    def test_warm_latent_memo_drawing_out_of_order_matches_a_fresh_backend(self):
        """Task latents are memoised per backend; the sample stream is not
        allowed to notice, whatever order tasks and indices are drawn in."""
        contexts = [
            _context(
                task_id=f"task{number}",
                reference_source=MUX_MODULE,
                demands=TaskDemands(logic=0.5 + 0.1 * number, difficulty=0.6),
            )
            for number in range(3)
        ]
        configs = [
            GenerationConfig(temperature=temperature, num_samples=8, seed=2)
            for temperature in (0.2, 0.8)
        ]
        warm = backend("gpt-4")
        for context in contexts:
            warm.generate(context, configs[0])
        assert len(warm._latents) == len(contexts)
        for index in (7, 0, 5, 2):
            for context in reversed(contexts):
                for config in configs:
                    drawn = warm.generate_at(context, config, index)
                    fresh = backend("gpt-4").generate_at(context, config, index)
                    assert drawn.code == fresh.code
                    assert drawn.injected_hallucinations == fresh.injected_hallucinations
        assert len(warm._latents) == len(contexts)

    def test_base_class_fallback_matches(self):
        """The LLMBackend default (generate a prefix and index it) agrees."""
        from repro.core.llm.base import LLMBackend

        context = _context(reference_source=MUX_MODULE, demands=TaskDemands(difficulty=0.6))
        config = GenerationConfig(temperature=0.8, num_samples=4, seed=1)
        llm = backend()
        fallback = LLMBackend.generate_at(llm, context, config, 3)
        assert fallback.code == llm.generate_at(context, config, 3).code


class TestPipelineSampleIndices:
    def test_subset_matches_full_generation(self):
        pipeline = HaVenPipeline(backend("gpt-4"), use_sicot=False)
        prompt = DesignPrompt(text="Implement a 2:1 mux.")
        interface = ModuleInterface(
            name="g",
            ports=[
                PortSpec("a", "input"),
                PortSpec("b", "input"),
                PortSpec("s", "input"),
                PortSpec("y", "output"),
            ],
        )
        config = GenerationConfig(temperature=0.5, num_samples=5, seed=2)
        kwargs = dict(
            prompt=prompt,
            interface=interface,
            reference_source=MUX_MODULE,
            demands=TaskDemands(difficulty=0.6),
            config=config,
            task_id="mux-1",
        )
        full = pipeline.generate(**kwargs)
        subset = pipeline.generate(**kwargs, sample_indices=[4, 1])
        assert [sample.sample_index for sample in subset.samples] == [4, 1]
        assert subset.samples[0].code == full.samples[4].code
        assert subset.samples[1].code == full.samples[1].code


class TestTemperatureKeying:
    def test_distinct_temperatures_never_collide(self):
        context = _context()
        for seed in range(3):
            low = GenerationConfig(temperature=0.2, num_samples=1, seed=seed)
            high = GenerationConfig(temperature=0.8, num_samples=1, seed=seed)
            key_low = sample_stream_key("id", 0, context.task_id, low, 0)
            key_high = sample_stream_key("id", 0, context.task_id, high, 0)
            assert key_low != key_high

    def test_temperature_type_is_canonicalised(self):
        """An int-typed temperature keys identically to its float twin."""
        context = _context()
        as_int = GenerationConfig(temperature=0, num_samples=1, seed=0)
        as_float = GenerationConfig(temperature=0.0, num_samples=1, seed=0)
        assert sample_stream_key("id", 0, context.task_id, as_int, 0) == sample_stream_key(
            "id", 0, context.task_id, as_float, 0
        )
        llm = backend()
        assert (
            llm.generate_at(context, as_int, 0).code
            == llm.generate_at(context, as_float, 0).code
        )

    def test_temperature_changes_sampling(self):
        """Different temperatures draw from genuinely different streams."""
        context = _context(
            reference_source=MUX_MODULE,
            demands=TaskDemands(logic=0.8, difficulty=0.8, knowledge=0.7),
        )
        llm = backend()
        codes_low = [
            llm.generate_at(context, GenerationConfig(temperature=0.2, num_samples=8, seed=s), i).code
            for s in range(4)
            for i in range(8)
        ]
        codes_high = [
            llm.generate_at(context, GenerationConfig(temperature=0.9, num_samples=8, seed=s), i).code
            for s in range(4)
            for i in range(8)
        ]
        assert codes_low != codes_high


@pytest.fixture(scope="module")
def tiny_tasks():
    """Every task of the five tiny-scale suites (every corruption handler's input)."""
    scale = ExperimentScale.tiny()
    suites = dict(build_suites(scale))
    suites["symbolic"] = build_symbolic_suite(
        SuiteConfig(num_tasks=scale.human_tasks, seed=scale.seed + 11)
    )
    return [task for suite in suites.values() for task in suite]


def draw(pipeline: HaVenPipeline, task, temperature: float, indices) -> list:
    return pipeline.generate(
        prompt=task.prompt,
        interface=task.interface,
        reference_source=task.reference_source,
        demands=task.demands,
        config=GenerationConfig(temperature=temperature, num_samples=8, seed=1),
        prompt_style=task.prompt_style,
        task_id=task.task_id,
        sample_indices=indices,
    ).samples


class TestGroupedDraws:
    """A draw's samples do not depend on how its indices are grouped into calls."""

    @pytest.mark.parametrize("use_sicot", [False, True])
    def test_one_call_and_split_calls_agree(self, tiny_tasks, use_sicot):
        pipeline = HaVenPipeline(backend("codellama-7b"), use_sicot=use_sicot)
        injected = 0
        for task in tiny_tasks:
            for temperature in (0.2, 0.8):
                whole = draw(pipeline, task, temperature, range(8))
                # As service lease batches split a group: arbitrary cuts, any order.
                split = (
                    draw(pipeline, task, temperature, [0, 1, 2])
                    + draw(pipeline, task, temperature, [3])
                    + draw(pipeline, task, temperature, [7, 6, 5, 4])[::-1]
                )
                assert split == whole
                assert [sample.sample_index for sample in whole] == list(range(8))
                injected += sum(not sample.is_intended_correct for sample in whole)
        assert injected > len(tiny_tasks)

    def test_generate_at_is_the_one_index_case(self, tiny_tasks):
        llm = backend("codellama-7b")
        pipeline = HaVenPipeline(llm, use_sicot=False)
        config = GenerationConfig(temperature=0.8, num_samples=8, seed=1)
        for task in tiny_tasks:
            context = _context(
                prompt_text=task.prompt.full_text(),
                interface=task.interface,
                reference_source=task.reference_source,
                demands=task.demands,
                prompt_style=task.prompt_style,
                task_id=task.task_id,
            )
            one_by_one = [llm.generate_at(context, config, index) for index in range(8)]
            assert one_by_one == draw(pipeline, task, 0.8, range(8))
            assert llm.generate_indices(context, config, []) == []


class TestCorruptionTableCache:
    def test_kept_and_evicted_tables_give_what_fresh_ones_do(self, tiny_tasks):
        pipeline = HaVenPipeline(backend("codellama-7b"), use_sicot=False)

        def sweep(tasks) -> list:
            return [draw(pipeline, task, 0.8, range(8)) for task in tasks]

        # The oracle: every sample drawn on a freshly built table.
        fresh = []
        for task in tiny_tasks:
            samples = []
            for index in range(8):
                corruption_table.cache_clear()
                samples += draw(pipeline, task, 0.8, [index])
            fresh.append(samples)
        assert sum(not s.is_intended_correct for drawn in fresh for s in drawn) > 50
        corruption_table.cache_clear()
        assert sweep(tiny_tasks) == fresh
        tables = {task.reference_source: corruption_table(task.reference_source) for task in tiny_tasks}
        # Kept tables hold the sites earlier draws picked; reuse must not show.
        assert sweep(tiny_tasks[::-1])[::-1] == fresh
        capacity = corruption_table.cache_info().maxsize
        assert capacity < 10_000
        for number in range(capacity):
            corruption_table(f"// filler {number}\n")
        assert all(corruption_table(source) is not table for source, table in tables.items())
        assert sweep(tiny_tasks) == fresh
        corruption_table.cache_clear()
