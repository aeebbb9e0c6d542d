"""Resolution of manifest specs into live pipelines and suites.

A manifest is pure data; the resolver turns its :class:`ProfileSpec` /
:class:`SuiteSpec` entries back into :class:`~repro.core.pipeline.HaVenPipeline`
and :class:`~repro.bench.task.BenchmarkSuite` objects, replicating the exact
construction paths of the in-memory experiment drivers (same dataset builds,
same fine-tuning mixes, same seeds) so that a sweep executed through the run
engine is bit-for-bit the sweep the old monolithic functions produced.
Everything is cached per resolver instance: datasets are built once, each
profile is fine-tuned once, each suite is built once (through the one suite
registry, :mod:`repro.bench.suites`).

The resolver is part of the control plane: the server and the CLI expand
manifests through it.  It imports the dataset, fine-tuning and pipeline
modules only when it first builds a pipeline, so importing it loads no
check engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.llm.profiles import BASE_MODEL_PROFILES, BASELINE_PROFILES, CapabilityProfile
from .manifest import ProfileSpec, RunManifest, SuiteSpec

if TYPE_CHECKING:
    from ..bench.task import BenchmarkSuite, BenchmarkTask
    from ..core.pipeline import HaVenPipeline
    from ..experiments import DatasetBundle, ExperimentScale


def _pipeline(profile: CapabilityProfile, seed: int, use_sicot: bool) -> "HaVenPipeline":
    """A simulated-LLM pipeline on ``profile``."""
    from ..core.llm.simulated import SimulatedCodeGenLLM
    from ..core.pipeline import HaVenPipeline

    return HaVenPipeline(SimulatedCodeGenLLM(profile, seed=seed), use_sicot=use_sicot)


def _finetuned(base: CapabilityProfile, tuned_name: str, **mix) -> CapabilityProfile:
    """``base`` fine-tuned on the dataset mix ``mix`` (a :class:`DatasetMix`'s fields)."""
    from ..core.llm.finetune import DatasetMix, FineTuner

    profile, _report = FineTuner().finetune(base, DatasetMix(**mix), tuned_name=tuned_name)
    return profile


class ManifestResolver:
    """Build (and cache) the pipelines and suites a manifest describes."""

    def __init__(self, manifest: RunManifest):
        from ..experiments import ExperimentScale

        self.manifest = manifest
        self.scale: "ExperimentScale" = ExperimentScale.from_dict(manifest.scale)
        self.config = manifest.config
        self._datasets: "DatasetBundle | None" = None
        self._pipelines: dict[str, "HaVenPipeline"] = {}
        self._suites: dict[str, "BenchmarkSuite"] = {}

    # ------------------------------------------------------------------ datasets
    def datasets(self) -> "DatasetBundle":
        if self._datasets is None:
            from ..experiments import build_datasets

            self._datasets = build_datasets(self.scale)
        return self._datasets

    # ------------------------------------------------------------------ suites
    def suite(self, spec: SuiteSpec) -> "BenchmarkSuite":
        if spec.suite_id not in self._suites:
            from ..bench.suites import build_suite

            self._suites[spec.suite_id] = build_suite(
                spec.suite_id, self.scale, full_subset=spec.full_subset
            )
        return self._suites[spec.suite_id]

    def tasks(self, spec: SuiteSpec) -> "list[BenchmarkTask]":
        """The suite's tasks in evaluation order (``max_tasks`` applied)."""
        tasks = list(self.suite(spec))
        if self.config.max_tasks is not None:
            tasks = tasks[: self.config.max_tasks]
        return tasks

    def suite_task_ids(self) -> dict[str, list[str]]:
        """suite id → ordered task ids, for manifest expansion."""
        return {
            spec.suite_id: [task.task_id for task in self.tasks(spec)]
            for spec in self.manifest.suites
        }

    # ------------------------------------------------------------------ profiles
    def pipeline(self, profile_id: str) -> "HaVenPipeline":
        if profile_id not in self._pipelines:
            self._pipelines[profile_id] = self._build_pipeline(self.manifest.profile(profile_id))
        return self._pipelines[profile_id]

    def pipeline_name(self, profile_id: str) -> str:
        """The pipeline's report name, computed without building the pipeline."""
        spec = self.manifest.profile(profile_id)
        return f"{spec.display}+SI-CoT" if spec.use_sicot else spec.display

    def _build_pipeline(self, spec: ProfileSpec) -> "HaVenPipeline":
        seed = self.scale.seed
        if spec.kind == "baseline":
            return _pipeline(BASELINE_PROFILES[spec.key], seed, spec.use_sicot)
        if spec.kind == "haven":
            from ..experiments import HAVEN_BASE_MODELS

            datasets = self.datasets()
            tuned = _finetuned(
                BASE_MODEL_PROFILES[spec.key],
                HAVEN_BASE_MODELS[spec.key],
                vanilla=datasets.vanilla,
                k_dataset=datasets.k_dataset,
                l_dataset=datasets.l_dataset,
            )
            return _pipeline(tuned, seed, spec.use_sicot)
        if spec.kind == "fig3":
            return self._build_fig3_pipeline(spec, seed)
        if spec.kind == "fig4":
            return self._build_fig4_pipeline(spec, seed)
        raise KeyError(f"unknown profile kind {spec.kind!r}")

    def _build_fig3_pipeline(self, spec: ProfileSpec, seed: int) -> "HaVenPipeline":
        datasets = self.datasets()
        base_profile = BASE_MODEL_PROFILES[spec.key]
        if spec.setting == "base":
            return _pipeline(base_profile, seed, use_sicot=False)
        if spec.setting in ("vanilla", "vanilla+CoT"):
            profile = _finetuned(
                base_profile, f"{base_profile.name}+vanilla", vanilla=datasets.vanilla
            )
        elif spec.setting in ("vanilla+KL", "vanilla+CoT+KL"):
            profile = _finetuned(
                base_profile,
                f"{base_profile.name}+vanilla+KL",
                vanilla=datasets.vanilla,
                k_dataset=datasets.k_dataset,
                l_dataset=datasets.l_dataset,
            )
        else:
            raise KeyError(f"unknown fig3 setting {spec.setting!r}")
        return _pipeline(profile, seed, use_sicot="CoT" in spec.setting)

    def _build_fig4_pipeline(self, spec: ProfileSpec, seed: int) -> "HaVenPipeline":
        datasets = self.datasets()
        profile = _finetuned(
            BASE_MODEL_PROFILES["codeqwen-7b"],
            f"CodeQwen+K{spec.k_portion}+L{spec.l_portion}",
            vanilla=datasets.vanilla,
            k_dataset=datasets.k_dataset.subset(spec.k_portion / 100.0, seed=seed),
            l_dataset=datasets.l_dataset.subset(spec.l_portion / 100.0, seed=seed),
        )
        return _pipeline(profile, seed, use_sicot=True)
