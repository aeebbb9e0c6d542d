"""Score an in-test pipeline on an in-test suite through the run engine.

Tests build a one-profile ``custom`` manifest, execute it with
:class:`~repro.runs.engine.RunEngine` into an ephemeral store and read the
suite result back through :class:`~repro.runs.aggregate.StreamingAggregator`
— the path every table and figure takes.  :class:`StubResolver` stands in for
:class:`~repro.runs.resolve.ManifestResolver`, serving the given suite and
pipeline instead of building them from the manifest's scale.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.evaluator import EvaluationConfig, SuiteResult
from repro.bench.task import BenchmarkSuite
from repro.core.pipeline import HaVenPipeline
from repro.runs.aggregate import StreamingAggregator
from repro.runs.engine import RunEngine
from repro.runs.manifest import ProfileSpec, RunManifest, SuiteSpec
from repro.runs.store import RunStore

#: The profile id of a one-profile manifest.
PROFILE = "stub"


class StubResolver:
    """Resolver over one in-test suite and pipeline (duck-typed ManifestResolver).

    Every profile of the manifest resolves to ``pipeline``, every suite spec
    to ``suite`` (``max_tasks`` applied, as the real resolver does).
    """

    def __init__(self, manifest: RunManifest, suite: BenchmarkSuite, pipeline: HaVenPipeline):
        self.manifest = manifest
        self.config = manifest.config
        self._suite = suite
        self._pipeline = pipeline

    def suite(self, spec):
        return self._suite

    def tasks(self, spec):
        return list(self._suite)[: self.config.max_tasks]

    def suite_task_ids(self):
        return {
            spec.suite_id: [task.task_id for task in self.tasks(spec)]
            for spec in self.manifest.suites
        }

    def pipeline(self, profile_id):
        return self._pipeline

    def pipeline_name(self, profile_id):
        return self._pipeline.name


def stub_manifest(
    config: EvaluationConfig, suite_id: str = "suite", profiles: Sequence[str] = (PROFILE,)
) -> RunManifest:
    """A ``custom`` manifest of ``profiles`` on one suite under ``config``."""
    return RunManifest(
        name="stub",
        experiment="custom",
        scale={},
        config=config,
        profiles=[
            ProfileSpec(profile_id=profile_id, kind="baseline", key="stub", display="Stub")
            for profile_id in profiles
        ],
        suites=[SuiteSpec(suite_id)],
    )


def stub_engine(
    pipeline: HaVenPipeline,
    suite: BenchmarkSuite,
    config: EvaluationConfig,
    profiles: Sequence[str] = (PROFILE,),
) -> RunEngine:
    """A run engine over an ephemeral store for ``pipeline`` on ``suite``."""
    manifest = stub_manifest(config, profiles=profiles)
    resolver = StubResolver(manifest, suite, pipeline)
    return RunEngine(manifest, RunStore.ephemeral(), resolver=resolver)


def engine_result(engine: RunEngine, profile_id: str = PROFILE) -> SuiteResult:
    """Aggregate ``engine``'s journal into one profile's suite result."""
    aggregator = StreamingAggregator(engine.manifest, resolver=engine.resolver)
    suite_id = engine.manifest.suites[0].suite_id
    return aggregator.feed_store(engine.store).suite_result(profile_id, suite_id)


def score(
    pipeline: HaVenPipeline, suite: BenchmarkSuite, config: EvaluationConfig
) -> SuiteResult:
    """Run ``pipeline`` on ``suite`` under ``config``; return its suite result."""
    engine = stub_engine(pipeline, suite, config)
    engine.run()
    return engine_result(engine)
