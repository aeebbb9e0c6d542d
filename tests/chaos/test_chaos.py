"""Chaos suite: injected crashes, hangs and raises must never sink a run.

Every test here drives real execution machinery (``run_checks``, the process
pool, the run engine and its journal) against the deterministic fault
injector in :mod:`repro.runs.faults` and asserts the fault-tolerance
contract:

* deadlines bound every attempt, cooperatively in-process and with a hard
  per-future deadline (plus worker recycle) on the pool;
* failures retry with degradation recorded, and verdicts that settle after a
  retry match the fault-free verdicts bit-for-bit;
* a unit that burns every attempt is quarantined — exactly that unit — while
  the rest of the batch completes and the journal stays resumable.

The flagship scenario mirrors the acceptance bar of the fault-tolerance PR:
worker kill + injected non-cooperative hang → the run completes within its
deadline budget, a resume re-executes zero units, exactly the hanging unit is
quarantined, and the journal agrees with a fault-free serial run on every
non-quarantined unit.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from repro.bench.evaluator import EvaluationConfig
from repro.bench.golden import VectorFunctionGolden, random_vectors
from repro.bench.jobs import (
    CheckRequest,
    ExecutionPolicy,
    ResultKey,
    design_key,
    mode_key,
    run_checks,
    stimulus_key,
)
from repro.bench.task import BenchmarkSuite, BenchmarkTask
from repro.core.llm.base import GeneratedSample, GenerationConfig, GenerationContext, LLMBackend
from repro.core.pipeline import HaVenPipeline
from repro.core.prompt import DesignPrompt, ModuleInterface, PortSpec
from repro.runs.aggregate import StreamingAggregator
from repro.runs.engine import RunEngine
from repro.runs.faults import (
    FAULTS_ENV,
    FaultSpec,
    clear_faults,
    faults_env_value,
    install_faults,
)
from repro.runs.manifest import RunManifest
from repro.runs.store import RunStore
from repro.verilog.simulator.testbench import ExpectedTrace
from scoring import StubResolver, engine_result, stub_engine, stub_manifest

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    """Every test starts and ends with no fault plan active anywhere."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_faults()
    yield
    clear_faults()


# --------------------------------------------------------------------------- fixtures
def _xor_fn(inputs):
    return {"y": inputs["a"] ^ inputs["b"]}


def _and_fn(inputs):
    return {"y": inputs["a"] & inputs["b"]}


def _or_fn(inputs):
    return {"y": inputs["a"] | inputs["b"]}


_TASK_SPECS = [
    ("chaos_xor", "assign y = a ^ b;", _xor_fn),
    ("chaos_and", "assign y = a & b;", _and_fn),
    ("chaos_or", "assign y = a | b;", _or_fn),
]


def _chaos_suite() -> BenchmarkSuite:
    """Combinational tasks whose golden factories pickle (module-level fns)."""
    suite = BenchmarkSuite(name="machine")
    for task_id, body, fn in _TASK_SPECS:
        interface = ModuleInterface(
            name="top_module",
            ports=[
                PortSpec("a", "input", 4),
                PortSpec("b", "input", 4),
                PortSpec("y", "output", 4),
            ],
        )
        reference = (
            "module top_module(input [3:0] a, input [3:0] b, output [3:0] y);\n"
            f"    {body}\nendmodule\n"
        )
        suite.add(
            BenchmarkTask(
                task_id=task_id,
                suite="machine",
                prompt=DesignPrompt(text=f"Implement {task_id}.", interface=interface),
                interface=interface,
                reference_source=reference,
                golden_factory=partial(VectorFunctionGolden, fn),
                stimulus_factory=partial(random_vectors, {"a": 4, "b": 4}, 10),
            )
        )
    return suite


def _requests(mode: str = "simulation") -> dict[str, CheckRequest]:
    """task id → one check request of the reference against its golden."""
    requests: dict[str, CheckRequest] = {}
    for task in _chaos_suite():
        stimulus = task.stimulus(7)
        key = ResultKey(
            design_key=design_key(task.reference_source),
            stimulus_key=stimulus_key(
                task.task_id,
                stimulus,
                task.check_outputs,
                task.clock,
                task.reset,
                reference_source=task.reference_source,
            ),
            mode=mode_key(mode=mode, differential=False, formal_conflict_limit=None),
        )
        requests[task.task_id] = CheckRequest(
            key=key,
            code=task.reference_source,
            task_id=task.task_id,
            expected=ExpectedTrace.record(task.golden(), stimulus),
            stimulus=stimulus,
            reference_source=task.reference_source,
            check_outputs=task.check_outputs,
            clock=task.clock,
            reset=task.reset,
            mode=mode,
            formal_conflict_limit=None,
        )
    return requests


def _quarantined(report) -> dict:
    return {key: e for key, e in report.executions.items() if e.quarantined}


def _fast_policy(**overrides) -> ExecutionPolicy:
    defaults = dict(timeout_s=None, max_attempts=3, backoff_s=0.001, backoff_cap_s=0.01)
    defaults.update(overrides)
    return ExecutionPolicy(**defaults)


# --------------------------------------------------------------------------- serial faults
class TestSerialFaults:
    def test_transient_raise_retries_to_success(self):
        install_faults([FaultSpec("raise", task_id="chaos_xor", max_attempt=1)])
        requests = _requests()
        report = run_checks(list(requests.values()), max_workers=1, policy=_fast_policy())

        execution = report.executions[requests["chaos_xor"].key]
        assert execution.result.passed
        assert execution.attempts == 2
        assert execution.degradation == ("batch->scalar",)
        assert not execution.quarantined
        # The untouched tasks settled clean on their first attempt.
        for task_id in ("chaos_and", "chaos_or"):
            other = report.executions[requests[task_id].key]
            assert other.result.passed and other.attempts == 1 and not other.degradation

    def test_persistent_raise_quarantines_only_the_poison_unit(self):
        install_faults([FaultSpec("raise", task_id="chaos_and")])
        requests = _requests()
        report = run_checks(
            list(requests.values()), max_workers=1, policy=_fast_policy(max_attempts=2)
        )

        poisoned = report.executions[requests["chaos_and"].key]
        assert poisoned.quarantined
        assert poisoned.attempts == 2
        assert not poisoned.result.passed
        assert "quarantined after 2 attempt(s)" in poisoned.result.failure_summary
        assert _quarantined(report) == {requests["chaos_and"].key: poisoned}
        for task_id in ("chaos_xor", "chaos_or"):
            assert report.executions[requests[task_id].key].result.passed

    def test_cooperative_hang_is_cut_by_the_deadline(self):
        install_faults(
            [FaultSpec("hang", task_id="chaos_or", hang_s=30.0, cooperative=True)]
        )
        requests = _requests()
        started = time.monotonic()
        report = run_checks(
            list(requests.values()),
            max_workers=1,
            policy=_fast_policy(timeout_s=0.2, max_attempts=2),
        )
        elapsed = time.monotonic() - started

        # Two attempts of a 0.2s budget each — nowhere near the 30s hang.
        assert elapsed < 5.0
        execution = report.executions[requests["chaos_or"].key]
        assert execution.quarantined and execution.timed_out
        assert "wall-clock budget" in execution.error

    def test_hung_codegen_backed_check_is_quarantined(self):
        """A hang in a codegen-backed check is cut exactly like a scalar one.

        The generated settle loops tick ``check_deadline`` per pass (pinned by
        the codegen unit tests); this proves the integration: a cooperative
        hang inside a batched check — every one rides generated code — burns
        its attempts against the same deadline budget and quarantines only
        the poison unit.
        """
        install_faults(
            [FaultSpec("hang", task_id="chaos_and", hang_s=30.0, cooperative=True)]
        )
        requests = _requests()
        started = time.monotonic()
        report = run_checks(
            list(requests.values()),
            max_workers=1,
            policy=_fast_policy(timeout_s=0.2, max_attempts=2),
        )
        elapsed = time.monotonic() - started

        assert elapsed < 5.0
        execution = report.executions[requests["chaos_and"].key]
        assert execution.quarantined and execution.timed_out
        assert "wall-clock budget" in execution.error
        # The healthy codegen-backed checks still settle their real verdicts.
        for task_id in ("chaos_xor", "chaos_or"):
            assert report.executions[requests[task_id].key].result.passed

    def test_deadline_degrades_formal_to_simulation(self):
        # The hang only hits attempt 1: the retry must have dropped the proof.
        install_faults(
            [
                FaultSpec(
                    "hang",
                    task_id="chaos_xor",
                    hang_s=30.0,
                    cooperative=True,
                    max_attempt=1,
                )
            ]
        )
        requests = _requests(mode="formal")
        report = run_checks(
            [requests["chaos_xor"]],
            max_workers=1,
            policy=_fast_policy(timeout_s=0.2),
        )
        execution = report.executions[requests["chaos_xor"].key]
        assert execution.result.passed
        assert execution.attempts == 2
        assert execution.degradation == ("formal->simulation",)


# --------------------------------------------------------------------------- pool faults
class TestPoolFaults:
    def test_worker_crash_rebuilds_pool_and_retries(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV,
            faults_env_value([FaultSpec("crash", task_id="chaos_xor", max_attempt=1)]),
        )
        requests = _requests()
        report = run_checks(
            list(requests.values()),
            max_workers=2,
            policy=_fast_policy(timeout_s=10.0, backoff_s=0.01),
        )
        assert not _quarantined(report)
        for request in requests.values():
            assert report.executions[request.key].result.passed
        # The crashing request needed at least the post-crash attempt; a crash
        # retry must NOT degrade (bit-for-bit parity with fault-free runs).
        crashed = report.executions[requests["chaos_xor"].key]
        assert crashed.attempts >= 2
        assert crashed.degradation == ()

    def test_backlog_deeper_than_workers_keeps_deadlines_honest(self, monkeypatch):
        # Hard deadlines arm at submission time, so the executor must never
        # submit more futures than it has workers: with 3 items on 2 workers,
        # each stalled ~0.5s under a 0.75s budget (+0.15s grace), the item
        # that waits for a free worker would otherwise burn its deadline in
        # the backlog and be falsely swept as a hung worker.
        monkeypatch.setenv(
            FAULTS_ENV,
            faults_env_value([FaultSpec("hang", hang_s=0.5, cooperative=False)]),
        )
        requests = _requests()
        report = run_checks(
            list(requests.values()),
            max_workers=2,
            policy=_fast_policy(timeout_s=0.75, max_attempts=3, hard_grace_s=0.15),
        )
        assert not _quarantined(report)
        assert not report.warnings
        for request in requests.values():
            execution = report.executions[request.key]
            assert execution.result.passed
            assert execution.attempts == 1
            assert execution.degradation == ()

    def test_noncooperative_hang_is_killed_and_quarantined(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV,
            faults_env_value(
                [FaultSpec("hang", task_id="chaos_and", hang_s=30.0, cooperative=False)]
            ),
        )
        requests = _requests()
        started = time.monotonic()
        report = run_checks(
            list(requests.values()),
            max_workers=2,
            policy=_fast_policy(
                timeout_s=0.3, max_attempts=2, backoff_s=0.01, hard_grace_s=0.3
            ),
        )
        elapsed = time.monotonic() - started

        # The worker never returns: only the parent's hard deadline (plus the
        # pool kill) can clear it.  30s of injected hang must not be waited.
        assert elapsed < 10.0
        quarantined = _quarantined(report)
        assert set(quarantined) == {requests["chaos_and"].key}
        execution = quarantined[requests["chaos_and"].key]
        assert execution.timed_out
        assert "worker unresponsive" in execution.error
        for task_id in ("chaos_xor", "chaos_or"):
            assert report.executions[requests[task_id].key].result.passed


# --------------------------------------------------------------------------- engine chaos
class SaltedPerfectBackend(LLMBackend):
    """Reference implementation, salted per sample so every unit is distinct."""

    name = "SaltedPerfect"

    def generate(self, context: GenerationContext, config: GenerationConfig):
        return [
            GeneratedSample(
                code=f"// sample {index}\n{context.reference_source}",
                sample_index=index,
            )
            for index in range(config.num_samples)
        ]


def _resolver(manifest: RunManifest) -> StubResolver:
    return StubResolver(
        manifest, _chaos_suite(), HaVenPipeline(SaltedPerfectBackend(), use_sicot=False)
    )


def _chaos_manifest(max_workers: int = 2) -> RunManifest:
    return stub_manifest(
        EvaluationConfig(
            num_samples=2,
            ks=(1,),
            temperatures=(0.2,),
            max_workers=max_workers,
            check_timeout_s=0.4,
            max_attempts=2,
            retry_backoff_s=0.01,
        )
    )


def _sample_design_key(task_id: str, sample_index: int) -> str:
    reference = next(
        task.reference_source for task in _chaos_suite() if task.task_id == task_id
    )
    return design_key(f"// sample {sample_index}\n{reference}")


class TestEngineChaos:
    def test_kill_and_hang_run_completes_resumes_and_matches_fault_free(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: crash + opaque hang under the run engine."""
        manifest = _chaos_manifest()
        monkeypatch.setenv(
            FAULTS_ENV,
            faults_env_value(
                [
                    # Kill the worker scoring chaos_xor sample 0, once.
                    FaultSpec(
                        "crash",
                        design_key=_sample_design_key("chaos_xor", 0),
                        max_attempt=1,
                    ),
                    # Hang the worker scoring chaos_or sample 1, forever.
                    FaultSpec(
                        "hang",
                        design_key=_sample_design_key("chaos_or", 1),
                        hang_s=30.0,
                        cooperative=False,
                    ),
                ]
            ),
        )

        chaos_store = RunStore(tmp_path / "chaos")
        engine = RunEngine(manifest, chaos_store, resolver=_resolver(manifest))
        started = time.monotonic()
        stats = engine.run()
        elapsed = time.monotonic() - started

        # 3 tasks × 2 samples: the run completes despite the injected faults,
        # within the deadline budget (not the 30s the hang would cost).
        assert elapsed < 20.0
        assert stats.complete
        assert stats.executed == 5
        assert stats.quarantined == 1
        quarantined = chaos_store.quarantined_records()
        assert len(quarantined) == 1
        assert quarantined[0]["task"] == "chaos_or"
        assert quarantined[0]["sample"] == 1

        # Resume with no faults active: zero units re-execute — the
        # quarantined unit included.
        monkeypatch.delenv(FAULTS_ENV)
        resumed = RunEngine(
            manifest, RunStore(tmp_path / "chaos"), resolver=_resolver(manifest)
        ).run()
        assert resumed.executed == 0 and resumed.quarantined == 0
        assert resumed.skipped == 6

        # A fault-free, fully serial run of the same manifest must agree
        # bit-for-bit on every non-quarantined unit's verdict.
        clean_store = RunStore(tmp_path / "clean")
        RunEngine(manifest, clean_store, resolver=_resolver(manifest)).run()

        def verdicts(store):
            table = {}
            for record in store.records():
                if record.get("kind") != "unit":
                    continue
                outcome = dict(record["outcome"])
                outcome.pop("attempts", None)  # retries may differ, verdicts may not
                outcome.pop("degradation", None)
                outcome.pop("duration_s", None)  # wall clock is a measurement
                table[record["key"]] = outcome
            return table

        chaos_verdicts = verdicts(chaos_store)
        clean_verdicts = verdicts(clean_store)
        assert set(clean_verdicts) - set(chaos_verdicts) == {quarantined[0]["key"]}
        for key, outcome in chaos_verdicts.items():
            assert outcome == clean_verdicts[key]

        # The streaming aggregator accounts for the poison unit: the run is
        # complete but not healthy.
        progress = (
            StreamingAggregator(manifest, resolver=_resolver(manifest))
            .feed_store(chaos_store)
            .progress()
        )
        assert progress.complete
        assert not progress.healthy
        assert progress.quarantined == 1
        assert progress.completed == 5


# --------------------------------------------------------------------------- quarantine scoring
def _quarantine_config(num_samples: int) -> EvaluationConfig:
    return EvaluationConfig(
        num_samples=num_samples,
        ks=(1,),
        temperatures=(0.2,),
        max_attempts=1,
        retry_backoff_s=0.001,
    )


class TestQuarantineScoring:
    """A quarantined unit is journaled as poison and left out of its task's
    samples: an infrastructure fault, not a failed candidate."""

    def test_quarantined_unit_is_journaled_and_left_out_of_its_task(self):
        install_faults([FaultSpec("raise", task_id="chaos_xor")])
        pipeline = HaVenPipeline(SaltedPerfectBackend(), use_sicot=False)
        engine = stub_engine(pipeline, _chaos_suite(), _quarantine_config(num_samples=2))

        poisoned = engine.run(max_units=1)  # chaos_xor sample 0 only
        assert (poisoned.executed, poisoned.quarantined) == (0, 1)
        [record] = engine.store.quarantined_records()
        assert (record["task"], record["sample"]) == ("chaos_xor", 0)
        assert record["quarantine"]["attempts"] == 1
        assert record["quarantine"]["error"].startswith("injected fault on ")

        clear_faults()
        rest = engine.run()
        assert (rest.executed, rest.skipped, rest.quarantined) == (5, 1, 0)
        by_task = {result.task_id: result for result in engine_result(engine).task_results}
        xor = by_task["chaos_xor"]
        assert (xor.num_samples, xor.num_functional_passes) == (1, 1)
        assert xor.failure_examples == []
        for task_id in ("chaos_and", "chaos_or"):
            assert (by_task[task_id].num_samples, by_task[task_id].num_functional_passes) == (2, 2)

    def test_one_record_per_quarantined_unit_and_resume_does_not_retry_it(self):
        """Every sample of a task quarantined: one journal record per unit key,
        the task drops out of the suite result, and a resume skips the poison."""
        install_faults([FaultSpec("raise", task_id="chaos_xor")])
        pipeline = HaVenPipeline(SaltedPerfectBackend(), use_sicot=False)
        engine = stub_engine(pipeline, _chaos_suite(), _quarantine_config(num_samples=2))

        stats = engine.run()
        assert (stats.executed, stats.quarantined) == (4, 2)
        records = engine.store.quarantined_records()
        assert sorted((r["task"], r["sample"]) for r in records) == [
            ("chaos_xor", 0),
            ("chaos_xor", 1),
        ]
        assert len({r["key"] for r in records}) == 2

        resumed = engine.run()  # the fault is still installed
        assert (resumed.executed, resumed.skipped, resumed.quarantined) == (0, 6, 0)
        assert len(engine.store.quarantined_records()) == 2
        result = engine_result(engine)
        assert [r.task_id for r in result.task_results] == ["chaos_and", "chaos_or"]
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_quarantine_is_not_memoized_and_the_next_group_rechecks_it(self):
        """A transient infra fault must not be permanently scored as a failure."""
        install_faults([FaultSpec("raise", task_id="chaos_xor")])
        pipeline = HaVenPipeline(SaltedPerfectBackend(), use_sicot=False)
        engine = stub_engine(
            pipeline, _chaos_suite(), _quarantine_config(num_samples=1), profiles=("a", "b")
        )

        first = engine.run(max_units=3)  # profile a's group: one unit per task
        assert (first.executed, first.quarantined) == (2, 1)
        assert [r.task_id for r in engine_result(engine, "a").task_results] == [
            "chaos_and",
            "chaos_or",
        ]
        # The synthetic failed verdict stays out of the run-wide memo...
        xor_key = _sample_design_key("chaos_xor", 0)
        assert all(key.design_key != xor_key for key in engine._verdicts)

        # ...so once the fault clears, profile b's group draws the same
        # candidate, checks it again and scores its real behaviour.
        clear_faults()
        second = engine.run()
        assert (second.executed, second.quarantined) == (3, 0)
        assert any(key.design_key == xor_key for key in engine._verdicts)
        xor = {r.task_id: r for r in engine_result(engine, "b").task_results}["chaos_xor"]
        assert (xor.num_samples, xor.num_functional_passes) == (1, 1)
