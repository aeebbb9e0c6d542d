"""High-level experiment drivers reproducing the paper's tables and figures.

This module wires the full stack together: dataset generation → fine-tuning →
pipelines (with/without SI-CoT) → benchmark evaluation → report rendering.  Each
``run_*`` function corresponds to one table or figure of the paper; the
``benchmarks/`` directory calls them (scaled down by default) and writes the
rendered tables and figures into ``benchmarks/results/`` (see the README).

Since the resumable-runs refactor each driver is a thin wrapper over
:mod:`repro.runs`: it builds a declarative
:class:`~repro.runs.manifest.RunManifest` (see :mod:`repro.runs.presets`),
executes it through the :class:`~repro.runs.engine.RunEngine` — by default into
an ephemeral in-memory store, or into any persistent
:class:`~repro.runs.store.RunStore` passed via ``store=`` so a sweep survives
crashes, resumes, and shards across workers — and renders its output through
the streaming aggregator.  The results are bit-for-bit what the old
monolithic drivers produced (pinned by ``tests/runs/test_parity.py``).

Importing this module loads no dataset generator, pipeline or check engine:
the functions below import what they use when called, so a client that only
needs :class:`ExperimentScale` or the model lists (the run presets, the
service) stays light.

Scaling: the ``ExperimentScale`` dataclass controls task counts, samples per task
and corpus size.  ``ExperimentScale.paper()`` uses the paper's real sizes
(143/156/29 tasks, n = 10, three temperatures); ``ExperimentScale.quick()`` is the
default for CI-sized runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .bench.scoring import EvaluationConfig

if TYPE_CHECKING:
    from .bench.reporting import AblationSeries, Table4Row, Table5Row
    from .bench.task import BenchmarkSuite
    from .core.dataset.records import InstructionDataset
    from .core.llm.profiles import CapabilityProfile
    from .core.pipeline import HaVenPipeline
    from .runs import RunManifest, RunStore, StreamingAggregator

#: The three base models HaVen fine-tunes, keyed by profile id.
HAVEN_BASE_MODELS = {
    "codellama-7b": "HaVen-CodeLlama",
    "deepseek-coder-6.7b": "HaVen-DeepSeek",
    "codeqwen-7b": "HaVen-CodeQwen",
}


@dataclass
class ExperimentScale:
    """Controls how large the reproduction runs are."""

    corpus_size: int = 160
    l_dataset_concise: int = 36
    l_dataset_faithful: int = 24
    machine_tasks: int = 36
    human_tasks: int = 39
    rtllm_tasks: int = 15
    v2_tasks: int = 30
    num_samples: int = 4
    temperatures: tuple[float, ...] = (0.2,)
    seed: int = 0

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Small scale suitable for CI and pytest-benchmark runs."""
        return cls()

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """Very small scale for smoke tests of the run machinery itself."""
        return cls(
            corpus_size=50,
            l_dataset_concise=10,
            l_dataset_faithful=6,
            machine_tasks=6,
            human_tasks=8,
            rtllm_tasks=3,
            v2_tasks=4,
            num_samples=2,
            temperatures=(0.2,),
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's full experimental scale (Table IV: 290,400 samples)."""
        return cls(
            corpus_size=2000,
            l_dataset_concise=300,
            l_dataset_faithful=200,
            machine_tasks=143,
            human_tasks=156,
            rtllm_tasks=29,
            v2_tasks=156,
            num_samples=10,
            temperatures=(0.2, 0.5, 0.8),
        )

    def evaluation_config(self) -> EvaluationConfig:
        return EvaluationConfig(
            num_samples=self.num_samples,
            ks=(1, 5) if self.num_samples >= 5 else (1,),
            temperatures=self.temperatures,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        """JSON-safe serialization (run manifests persist this verbatim)."""
        return {
            "corpus_size": self.corpus_size,
            "l_dataset_concise": self.l_dataset_concise,
            "l_dataset_faithful": self.l_dataset_faithful,
            "machine_tasks": self.machine_tasks,
            "human_tasks": self.human_tasks,
            "rtllm_tasks": self.rtllm_tasks,
            "v2_tasks": self.v2_tasks,
            "num_samples": self.num_samples,
            "temperatures": list(self.temperatures),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentScale":
        """Inverse of :meth:`to_dict`; missing keys fall back to the defaults
        (hand-built manifests may carry a partial or empty scale dict)."""
        defaults = cls()
        return cls(
            corpus_size=int(payload.get("corpus_size", defaults.corpus_size)),
            l_dataset_concise=int(payload.get("l_dataset_concise", defaults.l_dataset_concise)),
            l_dataset_faithful=int(payload.get("l_dataset_faithful", defaults.l_dataset_faithful)),
            machine_tasks=int(payload.get("machine_tasks", defaults.machine_tasks)),
            human_tasks=int(payload.get("human_tasks", defaults.human_tasks)),
            rtllm_tasks=int(payload.get("rtllm_tasks", defaults.rtllm_tasks)),
            v2_tasks=int(payload.get("v2_tasks", defaults.v2_tasks)),
            num_samples=int(payload.get("num_samples", defaults.num_samples)),
            temperatures=tuple(
                float(t) for t in payload.get("temperatures", defaults.temperatures)
            ),
            seed=int(payload.get("seed", 0)),
        )


@dataclass
class DatasetBundle:
    """All datasets produced by the generation flows of Fig. 2."""

    vanilla: InstructionDataset
    k_dataset: InstructionDataset
    l_dataset: InstructionDataset

    def kl_dataset(self, seed: int = 0) -> InstructionDataset:
        return self.k_dataset.merged_with(self.l_dataset, name="kl-dataset", seed=seed)


@dataclass
class HaVenModels:
    """The fine-tuned HaVen pipelines plus their profiles."""

    pipelines: dict[str, HaVenPipeline] = field(default_factory=dict)
    profiles: dict[str, CapabilityProfile] = field(default_factory=dict)


# --------------------------------------------------------------------------- datasets & models
def build_datasets(scale: ExperimentScale | None = None) -> DatasetBundle:
    """Run the full dataset-generation flow (corpus → vanilla → K; scripts → L)."""
    from .core.dataset.corpus import CorpusConfig, CorpusGenerator
    from .core.dataset.kdataset import KDatasetGenerator
    from .core.dataset.ldataset import LDatasetConfig, LDatasetGenerator
    from .core.dataset.vanilla import VanillaDatasetGenerator

    scale = scale or ExperimentScale.quick()
    corpus = CorpusGenerator(CorpusConfig(num_samples=scale.corpus_size, seed=scale.seed + 2025)).generate()
    vanilla = VanillaDatasetGenerator(seed=scale.seed).generate(corpus)
    k_result = KDatasetGenerator(seed=scale.seed).generate(vanilla)
    l_result = LDatasetGenerator(
        LDatasetConfig(
            num_concise=scale.l_dataset_concise,
            num_faithful=scale.l_dataset_faithful,
            seed=scale.seed + 7,
        )
    ).generate()
    return DatasetBundle(
        vanilla=k_result.vanilla_dataset,
        k_dataset=k_result.k_dataset,
        l_dataset=l_result.l_dataset,
    )


def build_haven_models(
    datasets: DatasetBundle,
    use_sicot: bool = True,
    seed: int = 0,
) -> HaVenModels:
    """Fine-tune the three base models on vanilla + KL and wrap them in pipelines."""
    from .core.llm.finetune import DatasetMix, FineTuner
    from .core.llm.profiles import BASE_MODEL_PROFILES
    from .core.llm.simulated import SimulatedCodeGenLLM
    from .core.pipeline import HaVenPipeline

    tuner = FineTuner()
    models = HaVenModels()
    for base_key, haven_name in HAVEN_BASE_MODELS.items():
        base_profile = BASE_MODEL_PROFILES[base_key]
        tuned, _report = tuner.finetune(
            base_profile,
            DatasetMix(
                vanilla=datasets.vanilla,
                k_dataset=datasets.k_dataset,
                l_dataset=datasets.l_dataset,
            ),
            tuned_name=haven_name,
        )
        backend = SimulatedCodeGenLLM(tuned, seed=seed)
        models.profiles[haven_name] = tuned
        models.pipelines[haven_name] = HaVenPipeline(backend, use_sicot=use_sicot)
    return models


def baseline_pipeline(profile_key: str, use_sicot: bool = False, seed: int = 0) -> HaVenPipeline:
    """Build a pipeline for one of the registered baseline profiles."""
    from .core.llm.profiles import BASELINE_PROFILES
    from .core.llm.simulated import SimulatedCodeGenLLM
    from .core.pipeline import HaVenPipeline

    profile = BASELINE_PROFILES[profile_key]
    return HaVenPipeline(SimulatedCodeGenLLM(profile, seed=seed), use_sicot=use_sicot)


def build_suites(scale: ExperimentScale | None = None) -> dict[str, BenchmarkSuite]:
    """Build Table IV's four benchmark suites at the requested scale."""
    from .bench.suites import TABLE4_SUITES, build_suite

    scale = scale or ExperimentScale.quick()
    return {suite_id: build_suite(suite_id, scale) for suite_id in TABLE4_SUITES}


# --------------------------------------------------------------------------- run execution
def _run_manifest(manifest: "RunManifest", store: "RunStore | None" = None) -> "StreamingAggregator":
    """Execute a manifest (resuming whatever ``store`` already journals) and aggregate."""
    from .runs import RunEngine, RunStore, StreamingAggregator

    store = store or RunStore.ephemeral()
    engine = RunEngine(manifest, store)
    engine.run()
    return StreamingAggregator(manifest, resolver=engine.resolver).feed_store(store)


# --------------------------------------------------------------------------- Table IV
#: Table IV baselines grouped the way the paper groups them.
TABLE4_BASELINES: dict[str, str] = {
    "gpt-3.5": "General LLM",
    "gpt-4": "General LLM",
    "starcoder-15b": "General LLM",
    "codellama-7b": "General LLM",
    "deepseek-coder-6.7b": "General LLM",
    "codeqwen-7b": "General LLM",
    "chipnemo-13b": "LLM for Verilog CodeGen",
    "thakur-16b": "LLM for Verilog CodeGen",
    "rtlcoder-mistral": "LLM for Verilog CodeGen",
    "rtlcoder-deepseek": "LLM for Verilog CodeGen",
    "betterv-codellama": "LLM for Verilog CodeGen",
    "betterv-deepseek": "LLM for Verilog CodeGen",
    "betterv-codeqwen": "LLM for Verilog CodeGen",
    "autovcoder-codellama": "LLM for Verilog CodeGen",
    "autovcoder-deepseek": "LLM for Verilog CodeGen",
    "autovcoder-codeqwen": "LLM for Verilog CodeGen",
    "origen-deepseek": "LLM for Verilog CodeGen",
}


def run_table4(
    scale: ExperimentScale | None = None,
    baseline_keys: list[str] | None = None,
    include_haven: bool = True,
    store: "RunStore | None" = None,
) -> list[Table4Row]:
    """Reproduce Table IV: every model evaluated on the four benchmarks.

    Pass a persistent :class:`~repro.runs.store.RunStore` via ``store`` to make
    the sweep resumable/shardable; by default it runs in memory.
    """
    from .runs.presets import table4_manifest

    manifest = table4_manifest(scale, baseline_keys=baseline_keys, include_haven=include_haven)
    return _run_manifest(manifest, store).table4_rows()


# --------------------------------------------------------------------------- Table V
#: Models compared on the symbolic-modality subset in Table V.
TABLE5_MODELS = ["rtlcoder-deepseek", "origen-deepseek", "gpt-4", "deepseek-coder-v2"]


def run_table5(
    scale: ExperimentScale | None = None,
    full_subset: bool = True,
    store: "RunStore | None" = None,
) -> list[Table5Row]:
    """Reproduce Table V: per-modality pass@1 on the symbolic subset.

    The symbolic subset is only 44 tasks, so by default it is built at the
    paper's full size regardless of the scale's ``human_tasks`` setting.
    """
    from .runs.presets import table5_manifest

    manifest = table5_manifest(scale, full_subset=full_subset)
    return _run_manifest(manifest, store).table5_rows()


# --------------------------------------------------------------------------- Table VI
#: Commercial models probed with/without SI-CoT in Table VI.
TABLE6_MODELS = ["gpt-4o-mini", "gpt-4", "deepseek-coder-v2"]


def run_table6(
    scale: ExperimentScale | None = None,
    full_subset: bool = True,
    store: "RunStore | None" = None,
) -> dict[str, tuple[float, float]]:
    """Reproduce Table VI: pass@1 with vs without SI-CoT on the symbolic subset."""
    from .runs.presets import table6_manifest

    manifest = table6_manifest(scale, full_subset=full_subset)
    return _run_manifest(manifest, store).table6_rows()


# --------------------------------------------------------------------------- Fig. 3
def run_fig3(
    scale: ExperimentScale | None = None,
    store: "RunStore | None" = None,
) -> list[AblationSeries]:
    """Reproduce Fig. 3: the five ablation settings across the three base models."""
    from .runs.presets import fig3_manifest

    return _run_manifest(fig3_manifest(scale), store).fig3_series()


# --------------------------------------------------------------------------- Fig. 4
def run_fig4(
    scale: ExperimentScale | None = None,
    portions: tuple[int, ...] = (0, 50, 100),
    store: "RunStore | None" = None,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Reproduce Fig. 4: pass@1/5 grids over K/L dataset portions (CodeQwen)."""
    from .runs.presets import fig4_manifest

    return _run_manifest(fig4_manifest(scale, portions=portions), store).fig4_grids()
