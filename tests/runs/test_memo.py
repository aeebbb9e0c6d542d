"""The run-wide verdict memo: each distinct result key is checked once per run.

``RunEngine`` keeps every settled check execution by its content address for
the engine's lifetime, so a candidate that two profiles (or two groups, or two
service leases) produce for the same task is sent to ``run_checks`` once.
These tests pin that down against the per-group behaviour it replaces: the
journal must not change (apart from ``duration_s``), quarantines must not be
memoised, sharding and resume must not change a verdict, and
``memoize_results=False`` must keep every group cold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

import repro.bench.evaluator as check_core
from repro.experiments import ExperimentScale
from repro.runs.engine import RunEngine
from repro.runs.faults import FaultSpec, clear_faults, install_faults
from repro.runs.manifest import ProfileSpec, RunManifest, SuiteSpec
from repro.runs.presets import table4_manifest
from repro.runs.resolve import ManifestResolver
from repro.runs.store import RunStore
from repro.service import FileBroker, ServiceWorker


@pytest.fixture(scope="module")
def manifest():
    """Two baselines that emit overlapping candidates on the same tasks."""
    return table4_manifest(
        ExperimentScale.tiny(), baseline_keys=["gpt-4", "gpt-3.5"], include_haven=False
    )


@pytest.fixture(scope="module")
def resolver(manifest):
    return ManifestResolver(manifest)


@pytest.fixture()
def check_log(monkeypatch):
    """Every ``run_checks`` call the engine makes, as its list of result keys."""
    calls: list[list] = []
    original = check_core.run_checks

    def spy(requests, **kwargs):
        calls.append([request.key for request in requests])
        return original(requests, **kwargs)

    monkeypatch.setattr(check_core, "run_checks", spy)
    return calls


def groups_of(units):
    """Units split into their (profile, suite) groups, in expansion order."""
    groups: dict[tuple[str, str], list] = {}
    for unit in units:
        groups.setdefault((unit.profile_id, unit.suite_id), []).append(unit)
    return list(groups.values())


def journal(results, store):
    for result in results:
        if result.quarantine is not None:
            store.record_quarantine(
                result.unit,
                attempts=result.quarantine.attempts,
                error=result.quarantine.error,
                degradation=result.quarantine.degradation,
            )
        else:
            store.record(result.unit, result.outcome)


def run_group_by_group(manifest, resolver) -> RunStore:
    """Every (profile, suite) group in a fresh engine: the per-group memo."""
    store = RunStore.ephemeral()
    units = RunEngine(manifest, store, resolver).units()
    for group in groups_of(units):
        journal(RunEngine(manifest, store, resolver).execute_units(group), store)
    return store


def verdicts(store: RunStore) -> dict[str, dict]:
    """Per-unit journal payloads, minus the wall-clock ``duration_s``."""
    table = {}
    for record in store.records():
        if record.get("kind") == "unit":
            payload = {k: v for k, v in record["outcome"].items() if k != "duration_s"}
            table[record["key"]] = {"kind": "unit", **payload}
        elif record.get("kind") == "quarantine":
            table[record["key"]] = {"kind": "quarantine"}
    return table


@pytest.fixture(scope="module")
def group_by_group(manifest, resolver):
    return verdicts(run_group_by_group(manifest, resolver))


class TestRunWideMemo:
    def test_each_distinct_key_is_checked_once(
        self, manifest, resolver, check_log, group_by_group
    ):
        store = RunStore.ephemeral()
        stats = RunEngine(manifest, store, resolver).run()
        assert stats.complete and stats.quarantined == 0

        sent = Counter(key for call in check_log for key in call)
        assert sent and max(sent.values()) == 1
        assert verdicts(store) == group_by_group

    def test_profiles_share_candidates(self, manifest, resolver, check_log):
        """The fixture is only meaningful if the per-group path repeats keys."""
        run_group_by_group(manifest, resolver)
        sent = Counter(key for call in check_log for key in call)
        assert max(sent.values()) > 1

    def test_memo_off_keeps_every_group_cold(self, manifest, check_log):
        cold = replace(manifest, config=replace(manifest.config, memoize_results=False))
        cold_resolver = ManifestResolver(cold)
        run_group_by_group(cold, cold_resolver)
        per_group = sum(len(call) for call in check_log)
        distinct = len({key for call in check_log for key in call})
        assert per_group > distinct

        check_log.clear()
        RunEngine(cold, RunStore.ephemeral(), cold_resolver).run()
        assert sum(len(call) for call in check_log) == per_group

    def test_quarantined_key_is_reattempted_in_a_later_group(
        self, manifest, resolver, monkeypatch, group_by_group
    ):
        # Two groups in which both profiles produce one compiled candidate
        # for the same task.
        def candidates(group):
            return {
                (unit.task_id, group_by_group[unit.key]["design_key"])
                for unit in group
                if group_by_group[unit.key]["syntax_ok"]
            }

        groups = groups_of(RunEngine(manifest, RunStore.ephemeral(), resolver).units())
        first, second, shared = next(
            (a, b, candidates(a) & candidates(b))
            for i, a in enumerate(groups)
            for b in groups[i + 1 :]
            if candidates(a) & candidates(b)
        )
        task_id = sorted(shared)[0][0]

        # The fault fires during the first group's checks only.
        calls: list[list] = []
        original = check_core.run_checks

        def first_call_faulty(requests, **kwargs):
            calls.append([request.task_id for request in requests])
            try:
                return original(requests, **kwargs)
            finally:
                clear_faults()

        monkeypatch.setattr(check_core, "run_checks", first_call_faulty)
        install_faults([FaultSpec("raise", task_id=task_id)])
        try:
            results = RunEngine(manifest, RunStore.ephemeral(), resolver).execute_units(
                first + second
            )
        finally:
            clear_faults()

        assert task_id in calls[0] and task_id in calls[1]
        first_keys = {unit.key for unit in first}
        compiled = [
            result
            for result in results
            if result.unit.task_id == task_id and group_by_group[result.unit.key]["syntax_ok"]
        ]
        in_first = [r for r in compiled if r.unit.key in first_keys]
        in_second = [r for r in compiled if r.unit.key not in first_keys]
        assert in_first and all(r.quarantined for r in in_first)
        assert in_second and not any(r.quarantined for r in in_second)
        for result in in_second:
            outcome = {k: v for k, v in result.outcome.to_dict().items() if k != "duration_s"}
            assert {"kind": "unit", **outcome} == group_by_group[result.unit.key]

    def test_shards_and_resume_give_serial_verdicts(self, manifest, resolver, group_by_group):
        sharded = RunStore.ephemeral()
        for index in range(2):
            RunEngine(manifest, sharded, resolver).run(shard_index=index, shard_count=2)
        assert verdicts(sharded) == group_by_group

        # Resumed in a new engine (a restarted process) and in the same one.
        resumed = RunStore.ephemeral()
        RunEngine(manifest, resumed, resolver).run(max_units=17)
        engine = RunEngine(manifest, resumed, resolver)
        engine.run(max_units=31)
        stats = engine.run()
        assert stats.complete and stats.skipped == 17 + 31
        assert verdicts(resumed) == group_by_group


class TestServiceWorkerMemo:
    @staticmethod
    def two_profile_manifest() -> RunManifest:
        scale = ExperimentScale.tiny()
        base = table4_manifest(scale, baseline_keys=["gpt-4", "gpt-3.5"], include_haven=False)
        return RunManifest(
            name="memo-worker-test",
            experiment="custom",
            scale=scale.to_dict(),
            config=replace(base.config, max_tasks=3),
            profiles=[
                ProfileSpec(profile_id=spec.profile_id, kind="baseline", key=spec.key)
                for spec in base.profiles
            ],
            suites=[SuiteSpec("machine")],
        )

    def test_leases_sharing_a_key_run_one_check(self, tmp_path, check_log):
        manifest = self.two_profile_manifest()
        broker = FileBroker(tmp_path / "broker")
        run_id = broker.submit(manifest).run_id
        worker = ServiceWorker(broker, "memo-worker", lease_limit=1, exit_when_idle=True)
        stats = worker.run_forever()
        assert stats.completed == len(broker.units(run_id))

        # One unit per lease, so every repeat of a key is a different lease.
        sent = Counter(key for call in check_log for key in call)
        assert sent and max(sent.values()) == 1
        compiled = [
            (record["task"], record["outcome"]["design_key"])
            for record in broker.store(run_id).records()
            if record.get("kind") == "unit" and record["outcome"]["syntax_ok"]
        ]
        assert len(compiled) > len(set(compiled)) == len(sent)
