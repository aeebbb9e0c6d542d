"""The simulated-LLM sample stream of a whole tiny Table IV sweep, pinned.

The run journal and the verdict digests pin only what the toolchain decided
about each sample; a change to the stream that happens to keep every verdict
would pass them.  This digest covers every drawn sample itself: its code and
the hallucinations the backend says it injected.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.llm.base import GenerationConfig
from repro.experiments import ExperimentScale
from repro.runs.engine import RunEngine
from repro.runs.presets import table4_manifest
from repro.runs.store import RunStore

#: sha256 over (profile, suite, task, temperature, index, code, injected
#: sub-types and descriptions) of every unit of the tiny-scale Table IV
#: manifest, each (task, temperature) drawn through ``HaVenPipeline.generate``;
#: recorded before generation was split into a per-call plan and its draws.
TINY_TABLE4_STREAM_DIGEST = "af95b33d98c2834a57a7d571bc3004460c8724eda30248c05d4487927b8fa1af"


def stream_rows(manifest) -> list[list]:
    engine = RunEngine(manifest, RunStore.ephemeral())
    resolver = engine.resolver
    config = manifest.config
    draws: dict[tuple[str, str, str, float], list[int]] = {}
    for unit in engine.units():
        key = (unit.profile_id, unit.suite_id, unit.task_id, unit.temperature)
        draws.setdefault(key, []).append(unit.sample_index)
    tasks = {
        spec.suite_id: {task.task_id: task for task in resolver.tasks(spec)}
        for spec in manifest.suites
    }
    rows = []
    for (profile_id, suite_id, task_id, temperature), indices in draws.items():
        task = tasks[suite_id][task_id]
        generation = resolver.pipeline(profile_id).generate(
            prompt=task.prompt,
            interface=task.interface,
            reference_source=task.reference_source,
            demands=task.demands,
            config=GenerationConfig(
                temperature=temperature, num_samples=config.num_samples, seed=config.seed
            ),
            prompt_style=task.prompt_style,
            task_id=task_id,
            sample_indices=indices,
        )
        for index, sample in zip(indices, generation.samples):
            assert sample.sample_index == index
            rows.append(
                [
                    profile_id,
                    suite_id,
                    task_id,
                    temperature,
                    index,
                    sample.code,
                    [[r.subtype.value, r.description] for r in sample.injected_hallucinations],
                ]
            )
    return rows


def test_tiny_table4_sample_stream_is_pinned():
    manifest = table4_manifest(ExperimentScale.tiny())
    rows = stream_rows(manifest)
    assert len(rows) == len(RunEngine(manifest, RunStore.ephemeral()).units())
    # A sweep that never corrupts, or always does, would pin nothing useful.
    injected = sum(bool(row[-1]) for row in rows)
    assert 0 < injected < len(rows)
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == TINY_TABLE4_STREAM_DIGEST
