"""Bit-for-bit parity of the experiment drivers, pinned by a fixed digest.

``legacy_results`` scores each Table IV baseline on each built suite with its
own one-profile run (``scoring.score``: ``RunEngine`` → ``StreamingAggregator``),
the way the pre-manifest ``run_table4`` scored them one pipeline at a time.  The
manifest-driven drivers (one run over the whole grid, sharded or on a worker
pool) must reproduce it exactly — including the per-task sample/pass counts
and the capped failure-example strings.  Every path shares one check core
(``repro.bench.evaluator.check_samples``), so their agreement alone cannot
catch a change to that core: the results are also pinned to a sha256 digest
recorded before the drivers moved onto the run engine, which now pins the
engine path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.evaluator import EvaluationConfig, SuiteResult, TaskResult
from repro.bench.jobs import CheckOutcome
from repro.bench.reporting import table4_row_from_results
from repro.core.llm.profiles import BASELINE_PROFILES
from repro.experiments import (
    TABLE4_BASELINES,
    ExperimentScale,
    baseline_pipeline,
    build_suites,
    run_table4,
    run_table6,
)
from repro.runs.aggregate import StreamingAggregator
from repro.runs.engine import RunEngine
from repro.runs.presets import table4_manifest
from repro.runs.store import RunStore
from scoring import engine_result, score, stub_engine

BASELINES = ["gpt-4", "rtlcoder-deepseek"]

#: sha256 of the tiny-scale ``legacy_results`` as canonical JSON (see
#: :func:`results_digest`), recorded when the drivers still had their own
#: check loop; stable across ``PYTHONHASHSEED`` values.
LEGACY_RESULTS_DIGEST = "39d7dd667f463f20682f3c1830628360fb57f2ec7e8d6330b6062fe12ec71f22"


def results_digest(results: dict[str, dict[str, SuiteResult]]) -> str:
    payload = {
        f"{key}/{suite}": result.to_dict()
        for key, by_suite in results.items()
        for suite, result in by_suite.items()
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale.tiny()


@pytest.fixture(scope="module")
def legacy_results(scale):
    """Each baseline scored on each suite by its own run (without HaVen rows)."""
    suites = build_suites(scale)
    config = scale.evaluation_config()
    results = {}
    rows = []
    for key in BASELINES:
        profile = BASELINE_PROFILES[key]
        pipeline = baseline_pipeline(key, use_sicot=False, seed=scale.seed)
        by_suite = {name: score(pipeline, suite, config) for name, suite in suites.items()}
        results[key] = by_suite
        rows.append(
            table4_row_from_results(
                model=profile.name,
                group=TABLE4_BASELINES.get(key, "General LLM"),
                open_source=profile.open_source,
                model_size=profile.model_size,
                machine=by_suite["machine"],
                human=by_suite["human"],
                rtllm=by_suite["rtllm"],
                v2=by_suite["v2"],
            )
        )
    return results, rows


class TestTable4Parity:
    def test_results_match_fixed_digest(self, legacy_results):
        legacy, _ = legacy_results
        assert results_digest(legacy) == LEGACY_RESULTS_DIGEST

    def test_pool_results_match_fixed_digest(self, scale):
        """The same grid on a two-worker pool, where every check leaves the parent."""
        suites = build_suites(scale)
        config = replace(scale.evaluation_config(), max_workers=2)
        results = {key: {} for key in BASELINES}
        for key in BASELINES:
            pipeline = baseline_pipeline(key, use_sicot=False, seed=scale.seed)
            for name, suite in suites.items():
                engine = stub_engine(pipeline, suite, config)
                engine.run()
                assert engine.store.warning_records() == []
                results[key][name] = engine_result(engine)
        assert results_digest(results) == LEGACY_RESULTS_DIGEST

    def test_rows_bit_for_bit(self, scale, legacy_results):
        _, legacy_rows = legacy_results
        new_rows = run_table4(scale, baseline_keys=BASELINES, include_haven=False)
        assert new_rows == legacy_rows

    def test_suite_results_bit_for_bit(self, scale, legacy_results):
        """One run over the whole grid equals the per-pipeline runs, task by task."""
        legacy, _ = legacy_results
        manifest = table4_manifest(scale, baseline_keys=BASELINES, include_haven=False)
        store = RunStore.ephemeral()
        engine = RunEngine(manifest, store)
        engine.run()
        aggregator = StreamingAggregator(manifest, resolver=engine.resolver).feed_store(store)
        for key in BASELINES:
            for suite_id in ("machine", "human", "rtllm", "v2"):
                rebuilt = aggregator.suite_result(f"baseline:{key}", suite_id)
                oracle = legacy[key][suite_id]
                assert rebuilt.suite_name == oracle.suite_name
                assert rebuilt.model_name == oracle.model_name
                assert rebuilt.ks == oracle.ks
                assert rebuilt.task_results == oracle.task_results

    def test_sharded_run_matches_in_memory(self, scale, legacy_results, tmp_path):
        _, legacy_rows = legacy_results
        manifest = table4_manifest(scale, baseline_keys=BASELINES, include_haven=False)
        directory = tmp_path / "sharded"
        RunEngine(manifest, RunStore(directory)).run(shard_index=1, shard_count=2)
        RunEngine(manifest, RunStore(directory)).run(shard_index=0, shard_count=2)
        rows = StreamingAggregator(manifest).feed_store(RunStore(directory)).table4_rows()
        assert rows == legacy_rows


class TestTable6Parity:
    def test_rows_bit_for_bit(self, scale):
        from repro.bench.symbolic_suite import build_symbolic_suite
        from repro.bench.verilogeval import SuiteConfig
        from repro.experiments import TABLE6_MODELS

        suite = build_symbolic_suite(
            SuiteConfig(num_tasks=scale.human_tasks, seed=scale.seed + 11)
        )
        config = scale.evaluation_config()
        legacy = {}
        for key in TABLE6_MODELS:
            with_cot = score(baseline_pipeline(key, use_sicot=True, seed=scale.seed), suite, config)
            without_cot = score(
                baseline_pipeline(key, use_sicot=False, seed=scale.seed), suite, config
            )
            legacy[BASELINE_PROFILES[key].name] = (
                with_cot.functional_percentages()[1],
                without_cot.functional_percentages()[1],
            )
        assert run_table6(scale, full_subset=False) == legacy


class TestSerializationRoundTrips:
    def test_check_outcome(self):
        outcome = CheckOutcome(
            sample_index=3,
            temperature=0.5,
            syntax_ok=True,
            functional_passed=False,
            failure_summary="step 0: output 'q' expected 1 got 0 (inputs {'a': 1})",
            total_checks=12,
            design_key="ab" * 32,
        )
        assert CheckOutcome.from_dict(outcome.to_dict()) == outcome

    def test_task_and_suite_result(self):
        """``to_dict`` (what the parity digest hashes) survives a JSON round trip."""
        task = TaskResult(
            task_id="t",
            category="truth_table",
            num_samples=4,
            num_functional_passes=2,
            num_syntax_passes=3,
            temperature=0.2,
            failure_examples=["syntax error", "mismatch"],
        )
        suite = SuiteResult(suite_name="s", model_name="m", task_results=[task], ks=(1, 5))
        assert json.loads(json.dumps(suite.to_dict())) == {
            "suite_name": "s",
            "model_name": "m",
            "ks": [1, 5],
            "task_results": [
                {
                    "task_id": "t",
                    "category": "truth_table",
                    "num_samples": 4,
                    "num_functional_passes": 2,
                    "num_syntax_passes": 3,
                    "temperature": 0.2,
                    "failure_examples": ["syntax error", "mismatch"],
                }
            ],
        }

    def test_evaluation_config(self):
        config = EvaluationConfig(
            num_samples=7,
            ks=(1, 5),
            temperatures=(0.2, 0.8),
            seed=3,
            max_tasks=9,
            mode="formal",
            formal_conflict_limit=None,
            max_workers=4,
            memoize_results=False,
        )
        assert EvaluationConfig.from_dict(config.to_dict()) == config

    def test_experiment_scale(self):
        scale = ExperimentScale.paper()
        assert ExperimentScale.from_dict(scale.to_dict()) == scale
