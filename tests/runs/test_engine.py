"""RunEngine execution semantics: resume, sharding, crash recovery."""

from __future__ import annotations

import hashlib

import pytest

import repro.bench.evaluator as check_core
import repro.runs.engine as engine_module
from repro.experiments import ExperimentScale
from repro.runs.aggregate import StreamingAggregator
from repro.runs.engine import RunEngine
from repro.runs.presets import table4_manifest
from repro.runs.store import JOURNAL_FILENAME, RunStore


@pytest.fixture(scope="module")
def manifest():
    return table4_manifest(
        ExperimentScale.tiny(), baseline_keys=["gpt-4"], include_haven=False
    )


@pytest.fixture(scope="module")
def reference_rows(manifest):
    """Rows of one uninterrupted in-memory run (the parity oracle)."""
    store = RunStore.ephemeral()
    engine = RunEngine(manifest, store)
    stats = engine.run()
    assert stats.complete and stats.skipped == 0
    return StreamingAggregator(manifest, resolver=engine.resolver).feed_store(store).table4_rows()


def rows_for(manifest, store):
    return StreamingAggregator(manifest).feed_store(store).table4_rows()


def verdict_digest(store) -> str:
    """sha256 over every unit's (syntax_ok, functional_passed), by unit key."""
    verdicts = sorted(
        (record["key"], record["outcome"]["syntax_ok"], record["outcome"]["functional_passed"])
        for record in store.records()
        if record.get("kind", "unit") == "unit"
    )
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()


class TestExecution:
    def test_full_run_covers_every_unit(self, manifest, tmp_path):
        store = RunStore(tmp_path / "run")
        engine = RunEngine(manifest, store)
        stats = engine.run()
        assert stats.executed == stats.total_units == len(engine.units())
        done, total = engine.progress()
        assert done == total

    def test_sizing_a_run_and_running_it_expand_the_manifest_once(self, manifest, monkeypatch):
        calls = []
        expand = type(manifest).expand

        def counting_expand(self, suite_task_ids):
            calls.append(self.name)
            return expand(self, suite_task_ids)

        monkeypatch.setattr(type(manifest), "expand", counting_expand)
        engine = RunEngine(manifest, RunStore.ephemeral())
        units = engine.units()
        assert engine.units() == units and engine.units() is not units
        stats = engine.run()
        assert stats.executed == len(units)
        assert len(calls) == 1
        # The run released the expansion: an engine kept after it holds no units.
        assert engine.units() == units
        assert len(calls) == 2

    def test_completed_run_reexecutes_zero_units(self, manifest, tmp_path):
        store = RunStore(tmp_path / "run")
        RunEngine(manifest, store).run()
        stats = RunEngine(manifest, RunStore(tmp_path / "run")).run()
        assert stats.executed == 0
        assert stats.skipped == stats.total_units

    def test_resume_after_partial_run_matches_uninterrupted(
        self, manifest, tmp_path, reference_rows
    ):
        directory = tmp_path / "run"
        partial = RunEngine(manifest, RunStore(directory)).run(max_units=11)
        assert partial.executed == 11 and not partial.complete

        resumed_store = RunStore(directory)
        assert len(resumed_store) == 11
        stats = RunEngine(manifest, resumed_store).run()
        assert stats.skipped == 11
        assert stats.executed == stats.total_units - 11
        assert rows_for(manifest, RunStore(directory)) == reference_rows

    def test_truncated_journal_resumes_to_identical_rows(
        self, manifest, tmp_path, reference_rows
    ):
        """Kill -9 mid-sweep: truncate the journal mid-suite and re-invoke."""
        directory = tmp_path / "run"
        RunEngine(manifest, RunStore(directory)).run()
        journal = directory / JOURNAL_FILENAME
        lines = journal.read_text().splitlines()
        assert len(lines) > 10
        # Keep the first third plus a torn trailing line (the crash signature).
        journal.write_text("\n".join(lines[: len(lines) // 3]) + "\n" + lines[-1][: 25])

        store = RunStore(directory)
        assert store.recovered_lines == 1
        stats = RunEngine(manifest, store).run()
        assert stats.skipped == len(lines) // 3
        assert stats.executed == stats.total_units - len(lines) // 3
        assert rows_for(manifest, RunStore(directory)) == reference_rows

    def test_exception_mid_sweep_keeps_every_finished_group(
        self, manifest, tmp_path, monkeypatch
    ):
        """A run that dies inside the check core has journaled each group that
        finished before it, and nothing of the group it died in."""
        finished: list[int] = []
        check_samples = engine_module.check_samples
        run_checks = check_core.run_checks
        check_calls: list[int] = []

        def counting_check_samples(*args, **kwargs):
            checked = check_samples(*args, **kwargs)
            finished.append(len(checked))
            return checked

        def failing_run_checks(requests, **kwargs):
            check_calls.append(len(requests))
            if len(check_calls) == 3:
                raise RuntimeError("check core died mid-sweep")
            return run_checks(requests, **kwargs)

        monkeypatch.setattr(engine_module, "check_samples", counting_check_samples)
        monkeypatch.setattr(check_core, "run_checks", failing_run_checks)
        directory = tmp_path / "run"
        engine = RunEngine(manifest, RunStore(directory))
        with pytest.raises(RuntimeError, match="mid-sweep"):
            engine.run()
        monkeypatch.undo()

        groups: dict[tuple[str, str], list] = {}
        for unit in engine.units():
            groups.setdefault((unit.profile_id, unit.suite_id), []).append(unit)
        done = list(groups.values())[: len(finished)]
        assert 0 < len(done) < len(groups)
        store = RunStore(directory)
        assert store.completed_keys() == {unit.key for group in done for unit in group}

        stats = RunEngine(manifest, store).run()
        assert stats.skipped == sum(map(len, done))
        assert stats.complete
        uninterrupted = RunStore.ephemeral()
        RunEngine(manifest, uninterrupted).run()
        assert verdict_digest(RunStore(directory)) == verdict_digest(uninterrupted)

    def test_two_shards_fill_one_store_bit_for_bit(self, manifest, tmp_path, reference_rows):
        directory = tmp_path / "run"
        first = RunEngine(manifest, RunStore(directory)).run(shard_index=0, shard_count=2)
        second = RunEngine(manifest, RunStore(directory)).run(shard_index=1, shard_count=2)
        total = len(RunEngine(manifest, RunStore(directory)).units())
        assert first.executed + second.executed == total
        assert first.total_units + second.total_units == total
        assert rows_for(manifest, RunStore(directory)) == reference_rows

    def test_shard_units_are_disjoint_and_exhaustive(self, manifest):
        engine = RunEngine(manifest, RunStore.ephemeral())
        all_keys = {unit.key for unit in engine.units()}
        shard_keys = [
            {unit.key for unit in engine.shard_units(index, 3)} for index in range(3)
        ]
        assert set().union(*shard_keys) == all_keys
        assert sum(len(keys) for keys in shard_keys) == len(all_keys)

    def test_invalid_shard_rejected(self, manifest):
        engine = RunEngine(manifest, RunStore.ephemeral())
        with pytest.raises(ValueError):
            engine.shard_units(2, 2)
        with pytest.raises(ValueError):
            engine.shard_units(0, 0)


class TestStreamingAggregation:
    def test_partial_journal_renders_partial_report(self, manifest, tmp_path):
        directory = tmp_path / "run"
        RunEngine(manifest, RunStore(directory)).run(max_units=9)
        aggregator = StreamingAggregator(manifest).feed_store(RunStore(directory))
        progress = aggregator.progress()
        assert progress.completed == 9 and not progress.complete
        assert 0.0 < progress.percent < 100.0
        # A report renders from the partial journal without raising.
        text = aggregator.report()
        assert "GPT-4" in text

    def test_streaming_feed_matches_batch_feed(self, manifest, tmp_path):
        directory = tmp_path / "run"
        RunEngine(manifest, RunStore(directory)).run()
        store = RunStore(directory)
        incremental = StreamingAggregator(manifest)
        for record in store.records():
            incremental.feed(record)
        batch = StreamingAggregator(manifest).feed_store(store)
        assert incremental.table4_rows() == batch.table4_rows()

    def test_foreign_manifest_records_ignored(self, manifest, tmp_path):
        directory = tmp_path / "run"
        RunEngine(manifest, RunStore(directory)).run(max_units=4)
        aggregator = StreamingAggregator(manifest)
        store = RunStore(directory)
        for record in store.records():
            altered = dict(record)
            altered["manifest"] = "f" * 64
            assert not aggregator.feed(altered)
        assert aggregator.progress().completed == 0
