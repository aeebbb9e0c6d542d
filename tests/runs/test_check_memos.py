"""The run-wide memos of the check core: each distinct thing is done once per run.

Besides its verdict memo (``test_memo.py``), ``RunEngine`` keeps each source's
syntax verdict by source text and each suite task's check keys by
``(task, temperature)`` for its lifetime; ``WorkUnit.key`` is hashed once per
unit, and an execution's failure summary is formatted once, however many
units its verdict answers.  None of them may change a journaled byte, and with
``memoize_results=False`` every memo is fresh per ``check_samples`` call.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import Counter
from dataclasses import replace

import pytest

import repro.bench.evaluator as check_core
import repro.runs.engine as engine_module
import repro.verilog.design as design
import repro.verilog.simulator.testbench as testbench
from repro.experiments import ExperimentScale
from repro.runs.engine import RunEngine
from repro.runs.manifest import WorkUnit
from repro.runs.presets import table4_manifest
from repro.runs.resolve import ManifestResolver
from repro.runs.store import RunStore


@pytest.fixture(scope="module")
def manifest():
    """Two baselines that emit overlapping candidates on the same tasks."""
    return table4_manifest(
        ExperimentScale.tiny(), baseline_keys=["gpt-4", "gpt-3.5"], include_haven=False
    )


@pytest.fixture(scope="module")
def resolver(manifest):
    return ManifestResolver(manifest)


def journal_without_durations(store: RunStore) -> list[dict]:
    records = []
    for record in store.records():
        record = dict(record)
        if "outcome" in record:
            record["outcome"] = {k: v for k, v in record["outcome"].items() if k != "duration_s"}
        records.append(record)
    return records


def test_one_entry_database_still_checks_each_source_once(manifest, resolver):
    """The syntax memo holds verdicts, not the database's evicted ASTs."""
    previous = design.set_default_database(design.DesignDatabase(max_entries=1))
    try:
        engine = RunEngine(manifest, RunStore.ephemeral(), resolver)
        checked: Counter[str] = Counter()
        check = engine.checker.check

        def counting_check(source: str):
            checked[source] += 1
            return check(source)

        engine.checker.check = counting_check
        stats = engine.run()
    finally:
        design.set_default_database(previous)
    assert stats.complete
    assert len(checked) > 10
    assert set(checked.values()) == {1}
    # Fewer checks than samples: repeated candidates hit the memo.
    assert sum(checked.values()) < stats.executed


def test_check_keys_are_built_once_per_suite_task_and_temperature(
    manifest, resolver, monkeypatch
):
    built: Counter[tuple] = Counter()
    task_check_keys = check_core.task_check_keys

    def counting_task_check_keys(task, config, temperature):
        built[task.task_id, task.reference_source, temperature] += 1
        return task_check_keys(task, config, temperature)

    monkeypatch.setattr(check_core, "task_check_keys", counting_task_check_keys)
    engine = RunEngine(manifest, RunStore.ephemeral(), resolver)
    engine.run()
    distinct = {(unit.suite_id, unit.task_id, unit.temperature) for unit in engine.units()}
    assert sum(built.values()) == len(distinct)
    assert len(manifest.profiles) == 2


def test_failure_summary_is_formatted_once_per_execution(manifest, resolver, monkeypatch):
    formatted: Counter[int] = Counter()
    summary = testbench.TestbenchResult.__dict__["failure_summary"]

    class CountingSummary:
        """Counts the reads that reach the class: a kept value shadows it."""

        def __get__(self, result, owner=None):
            if result is None:
                return self
            formatted[id(result)] += 1
            return summary.__get__(result, owner)

    monkeypatch.setattr(testbench.TestbenchResult, "failure_summary", CountingSummary())
    store = RunStore.ephemeral()
    stats = RunEngine(manifest, store, resolver).run()
    checked = [record for record in store.records() if record["outcome"]["syntax_ok"]]
    assert set(formatted.values()) == {1}
    # Units whose candidates repeat share an execution, and with it its text.
    assert 10 < len(formatted) < len(checked) <= stats.executed


def test_memos_do_not_change_the_journal(manifest, resolver):
    """A warm engine (memos filled by a first run) journals what a cold one does."""
    warm = RunEngine(manifest, RunStore.ephemeral(), resolver)
    warm.run()
    rerun = RunStore.ephemeral()
    warm.store = rerun
    warm.run()
    cold = RunStore.ephemeral()
    RunEngine(manifest, cold, resolver).run()
    assert journal_without_durations(rerun) == journal_without_durations(cold)


def test_memo_off_gives_every_call_fresh_memos(manifest, monkeypatch):
    cold = replace(manifest, config=replace(manifest.config, memoize_results=False))
    seen: list[tuple[int, int, int]] = []
    check_samples = engine_module.check_samples

    def spy(pipeline, draws, config, memo, checker, **kwargs):
        seen.append((len(memo), len(kwargs["syntax"]), len(kwargs["check_keys"])))
        return check_samples(pipeline, draws, config, memo, checker, **kwargs)

    monkeypatch.setattr(engine_module, "check_samples", spy)
    RunEngine(cold, RunStore.ephemeral(), ManifestResolver(cold)).run()
    assert len(seen) == len(cold.profiles) * len(cold.suites)
    assert set(seen) == {(0, 0, 0)}


def test_unit_key_is_hashed_once_and_unchanged():
    unit = WorkUnit("m" * 64, "gpt-4", "machine", "task_001", 0.2, 3)
    payload = repr(("m" * 64, "gpt-4", "machine", "task_001", 0.2, 3))
    assert unit.key == hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert unit.key is unit.key
    copy = pickle.loads(pickle.dumps(unit))
    assert copy == unit and hash(copy) == hash(unit) and copy.key == unit.key
    assert WorkUnit.from_dict(unit.to_dict()).key == unit.key
    assert replace(unit, sample_index=4).key != unit.key
