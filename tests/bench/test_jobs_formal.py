"""Formal-mode job execution: incremental sessions, k-induction, stats plumbing.

Covers the acceptance contract of the incremental formal engine at the bench
layer: clocked task families are *proven* (k-induction) under ``mode="formal"``
instead of silently degrading to simulation, combinational candidates ride the
per-worker equivalence session, SAT accounting travels on
``TestbenchResult.proof_stats`` into :class:`CheckOutcome`, and the durable
result keys stay byte-stable at default knob values.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from repro.bench.evaluator import EvaluationConfig, check_request_for, task_check_keys
from repro.bench.families import make_counter_task, make_expression_task
from repro.bench.jobs import (
    CheckOutcome,
    ResultKey,
    design_key,
    execute_check,
    mode_key,
    run_checks,
)
from repro.verilog.simulator.testbench import ExpectedTrace

#: Seed 1 → 4-bit counter, no enable, synchronous reset (inside the provable
#: sequential subset); seed 4 → enable flavour, also synchronous.
COUNTER_SEED = 1
COUNTER_EN_SEED = 4

#: Correct 4-bit counter, structurally different from the family reference
#: (adds through a subtract) so the proof is a real SAT query.
COUNTER_OK = """
module top_module(input clk, input rst, output reg [3:0] count);
    always @(posedge clk) begin
        if (rst) count <= 4'd0;
        else count <= count - 4'hF;
    end
endmodule
"""

#: Off-by-one increment: wrong from the second post-reset cycle on.
COUNTER_BAD = COUNTER_OK.replace("4'hF", "4'hE")


def _formal_request(task, code, **overrides):
    config = EvaluationConfig(
        num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal", **overrides
    )
    stimulus, stim_key, mkey = task_check_keys(task, config, 0.2)
    key = ResultKey(design_key=design_key(code), stimulus_key=stim_key, mode=mkey)
    expected = ExpectedTrace.record(task.golden(), stimulus)
    return check_request_for(task, code, key, stimulus, expected, config)


class TestModeKeyStability:
    def test_default_formal_key_is_unchanged(self):
        # Durable result stores index by this string: the new knobs must not
        # shift it at their default values.
        assert (
            mode_key(mode="formal", differential=False, formal_conflict_limit=50_000)
            == "formal:50000|batch=True|diff=False"
        )
        assert mode_key(mode="simulation", differential=False, formal_conflict_limit=None) == (
            "simulation|batch=True|diff=False"
        )

    def test_non_default_knobs_enter_the_key(self):
        assert mode_key(
            mode="formal", differential=False, formal_conflict_limit=50_000, induction_depth=7
        ).endswith("|induction=7")
        # Simulation mode ignores the formal knobs entirely.
        assert mode_key(
            mode="simulation", differential=False, formal_conflict_limit=None, induction_depth=9
        ) == "simulation|batch=True|diff=False"

    def test_positional_call_is_rejected(self):
        # The old signature took a use_batch flag second; a stale positional
        # call must fail loudly rather than bind its arguments one slot off.
        with pytest.raises(TypeError):
            mode_key("simulation", True, False, None)


class TestCheckOutcomeProofStats:
    def test_empty_proof_stats_keep_old_payload_shape(self):
        outcome = CheckOutcome(sample_index=0, temperature=0.2, syntax_ok=True)
        assert "proof_stats" not in outcome.to_dict()
        assert CheckOutcome.from_dict(outcome.to_dict()).proof_stats == {}

    def test_proof_stats_roundtrip(self):
        stats = {"method": "induction", "conflicts": 12, "decisions": 30}
        outcome = CheckOutcome(
            sample_index=1, temperature=0.5, syntax_ok=True, proof_stats=stats
        )
        payload = outcome.to_dict()
        assert payload["proof_stats"] == stats
        assert CheckOutcome.from_dict(payload).proof_stats == stats


class TestSequentialFormalMode:
    def test_clocked_counter_family_proven_by_induction(self):
        task = make_counter_task("counter_formal", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_OK)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats is not None
        assert result.proof_stats["method"] == "induction"
        # Differential gate: the scalar simulation path must agree.
        sim_request = _formal_request(task, COUNTER_OK)
        sim_request.mode = "simulation"
        _, sim_result = execute_check(sim_request)
        assert sim_result.passed

    def test_enable_counter_family_proven_by_induction(self):
        task = make_counter_task("counter_en_formal", "unit", seed=COUNTER_EN_SEED)
        code = task.reference_source.replace("count + 1'b1", "count - {4{1'b1}}")
        request = _formal_request(task, code)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats["method"] == "induction"

    def test_buggy_counter_refuted_and_simulation_agrees(self):
        task = make_counter_task("counter_bug", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_BAD)
        _, result = execute_check(request)
        assert not result.passed
        assert result.proof_stats is not None
        assert result.mismatches  # replayable counterexample, not an error
        sim_request = _formal_request(task, COUNTER_BAD)
        sim_request.mode = "simulation"
        _, sim_result = execute_check(sim_request)
        assert not sim_result.passed

    def test_zero_degradations_through_the_executor(self):
        # The fault-tolerant executor must score the clocked task formally in
        # one clean attempt: no retries, no formal->simulation degradation.
        task = make_counter_task("counter_clean", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_OK)
        report = run_checks([request], max_workers=1)
        execution = report.executions[request.key]
        assert execution.result.passed
        assert execution.attempts == 1
        assert execution.degradation == ()
        assert execution.result.proof_stats["method"] == "induction"

    def test_induction_depth_zero_restores_simulation_fallback(self):
        task = make_counter_task("counter_nodepth", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_OK, induction_depth=0)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats is None  # simulated, not proven


class TestCombinationalFormalMode:
    def test_candidates_ride_the_worker_session(self):
        from repro.bench import jobs

        task = make_expression_task("expr_formal", "unit", seed=3)
        jobs._worker_sessions.clear()
        request = _formal_request(task, task.reference_source)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats["method"] in ("sat", "structural")
        key = (
            design_key(task.reference_source),
            tuple(task.check_outputs) if task.check_outputs is not None else None,
        )
        assert key in jobs._worker_sessions
        # A second candidate against the same reference reuses the session.
        session = jobs._worker_sessions[key]
        _, again = execute_check(_formal_request(task, task.reference_source))
        assert again.passed
        assert jobs._worker_sessions[key] is session

    def test_proof_stats_keys(self):
        task = make_expression_task("expr_stats", "unit", seed=3)
        _, result = execute_check(_formal_request(task, task.reference_source))
        assert result.passed
        assert set(result.proof_stats) == {
            "method",
            "conflicts",
            "decisions",
            "propagations",
            "learned_clauses",
        }

    def test_journaled_fraig_merges_still_replay(self):
        # Outcomes journaled while simulation-guided fraiging existed carry a
        # ``fraig_merges`` count in ``proof_stats``; they must load unchanged.
        outcome = CheckOutcome(
            sample_index=0,
            temperature=0.2,
            syntax_ok=True,
            functional_passed=True,
            total_checks=1,
            proof_stats={"method": "sat", "conflicts": 3, "fraig_merges": 2},
        )
        payload = json.loads(json.dumps(outcome.to_dict()))
        restored = CheckOutcome.from_dict(payload)
        assert restored == outcome
        assert restored.proof_stats["fraig_merges"] == 2


class TestConfigSerialization:
    def test_removed_engine_knobs_are_ignored_on_load(self):
        # Manifests written before the engine-selection knobs went still load.
        payload = EvaluationConfig(mode="formal").to_dict()
        payload.update(use_batch_simulator=False, simulator_backend="interpret")
        assert EvaluationConfig.from_dict(payload) == EvaluationConfig(mode="formal")

    def test_every_field_roundtrips(self):
        config = EvaluationConfig(
            num_samples=3,
            ks=(1, 2),
            temperatures=(0.1, 0.9),
            seed=7,
            stimulus_seed=99,
            max_tasks=5,
            differential_oracle=True,
            mode="formal",
            formal_conflict_limit=123,
            induction_depth=6,
            max_workers=2,
            memoize_results=False,
            check_timeout_s=1.5,
            max_attempts=5,
            retry_backoff_s=0.5,
            retry_backoff_cap_s=4.0,
        )
        defaults = EvaluationConfig()
        for spec in fields(EvaluationConfig):
            assert getattr(config, spec.name) != getattr(defaults, spec.name), spec.name
        payload = json.loads(json.dumps(config.to_dict()))
        assert list(payload) == [spec.name for spec in fields(EvaluationConfig)]
        assert payload["ks"] == [1, 2] and payload["temperatures"] == [0.1, 0.9]
        assert EvaluationConfig.from_dict(payload) == config
        single = config.single_temperature()
        assert single.temperatures == (0.1,)
        assert single == replace(config, temperatures=(0.1,))

    def test_new_knobs_roundtrip(self):
        config = EvaluationConfig(
            num_samples=1,
            ks=(1,),
            temperatures=(0.2,),
            induction_depth=6,
        )
        restored = EvaluationConfig.from_dict(config.to_dict())
        assert restored.induction_depth == 6
        single = config.single_temperature()
        assert single.induction_depth == 6

    def test_old_payloads_get_defaults(self):
        payload = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,)
        ).to_dict()
        payload.pop("induction_depth")
        payload.pop("formal_conflict_limit")
        restored = EvaluationConfig.from_dict(payload)
        assert restored.induction_depth == 4
        assert restored.formal_conflict_limit is None

    def test_legacy_formal_incremental_payload_loads_on_the_default_key(self):
        task = make_expression_task("expr_legacy", "unit", seed=3)
        default = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        payload = default.to_dict()
        payload["formal_incremental"] = False
        legacy = EvaluationConfig.from_dict(payload)
        assert legacy == default
        assert (
            task_check_keys(task, legacy, 0.2)[2]
            == task_check_keys(task, default, 0.2)[2]
            == "formal:50000|batch=True|diff=False"
        )
