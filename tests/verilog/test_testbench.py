"""Tests for the testbench runner (DUT vs Python golden model)."""

from __future__ import annotations

import pytest

from repro.deadline import CheckTimeout, deadline_scope
from repro.verilog import codegen
from repro.verilog.simulator.testbench import (
    BatchTestbenchRunner,
    CombinationalGolden,
    ResetSpec,
    run_functional_check,
)
from repro.verilog.simulator.testbench import TestbenchRunner as Runner


class CounterGoldenLocal:
    """Minimal sequential golden model used by these tests."""

    is_sequential = True

    def __init__(self, width: int = 4):
        self.width = width
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def step(self, inputs):
        if inputs.get("rst"):
            self.value = 0
        elif inputs.get("en", 1):
            self.value = (self.value + 1) % (1 << self.width)
        return {"count": self.value}

    def eval(self, inputs):
        return {"count": self.value}


class TestCombinationalChecks:
    def test_correct_and_gate_passes(self):
        source = "module g(input a, input b, output y); assign y = a & b; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": ins["a"] & ins["b"]})
        stimulus = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        result = run_functional_check(source, golden, stimulus)
        assert result.passed
        assert result.total_checks == 4
        assert result.mismatches == []

    def test_wrong_operator_fails(self):
        source = "module g(input a, input b, output y); assign y = a | b; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": ins["a"] & ins["b"]})
        stimulus = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        result = run_functional_check(source, golden, stimulus)
        assert not result.passed
        assert result.mismatches
        assert "expected" in str(result.mismatches[0])

    def test_non_compiling_code_reports_error(self, broken_source):
        golden = CombinationalGolden(lambda ins: {"y": 0})
        result = run_functional_check(broken_source, golden, [{"a": 0}])
        assert not result.passed
        assert result.error is not None
        assert "simulation error" in result.failure_summary

    def test_missing_output_counts_as_mismatch(self):
        source = "module g(input a, output y); assign y = a; endmodule"
        golden = CombinationalGolden(lambda ins: {"z": ins["a"]})
        result = run_functional_check(source, golden, [{"a": 1}])
        assert not result.passed

    def test_x_output_counts_as_mismatch(self):
        source = "module g(input a, output reg y); always @(*) if (a) y = 1'b1; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": 1 if ins["a"] else 0})
        result = run_functional_check(source, golden, [{"a": 0}, {"a": 1}])
        assert not result.passed  # y is x when a == 0 (missing else branch)

    def test_empty_stimulus_does_not_pass(self):
        source = "module g(input a, output y); assign y = a; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": ins["a"]})
        result = run_functional_check(source, golden, [])
        assert not result.passed
        assert result.total_checks == 0

    def test_check_outputs_subset(self):
        source = "module g(input a, output y, output z); assign y = a; assign z = ~a; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": ins["a"], "z": 1})  # z model is wrong
        result = run_functional_check(source, golden, [{"a": 1}], check_outputs=["y"])
        assert result.passed


class TestSequentialChecks:
    def test_correct_counter_passes(self, counter_source):
        runner = Runner(clock="clk", reset=ResetSpec(signal="rst"))
        stimulus = [{"rst": 0, "en": 1} for _ in range(8)]
        result = runner.run(counter_source, CounterGoldenLocal(), stimulus)
        assert result.passed

    def test_counter_with_wrong_reset_polarity_fails(self, counter_source):
        broken = counter_source.replace("if (rst)", "if (!rst)")
        runner = Runner(clock="clk", reset=ResetSpec(signal="rst"))
        stimulus = [{"rst": 0, "en": 1} for _ in range(8)]
        result = runner.run(broken, CounterGoldenLocal(), stimulus)
        assert not result.passed

    def test_mid_run_reset_checked(self, counter_source):
        runner = Runner(clock="clk", reset=ResetSpec(signal="rst"))
        stimulus = [{"rst": 0, "en": 1}] * 4 + [{"rst": 1, "en": 1}] + [{"rst": 0, "en": 1}] * 3
        result = runner.run(counter_source, CounterGoldenLocal(), stimulus)
        assert result.passed

    def test_fsm_against_golden(self, fsm_source):
        class FSMGolden:
            is_sequential = True

            def __init__(self):
                self.state = 0

            def reset(self):
                self.state = 0

            def step(self, inputs):
                x = inputs.get("x", 0)
                if self.state == 0:
                    self.state = 0 if x else 1
                else:
                    self.state = 1 if x else 0
                return {"out": self.state}

            def eval(self, inputs):
                return {"out": self.state}

        runner = Runner(clock="clk", reset=ResetSpec(signal="rst"))
        stimulus = [{"x": bit, "rst": 0} for bit in [0, 1, 1, 0, 0, 1, 0]]
        result = runner.run(fsm_source, FSMGolden(), stimulus)
        assert result.passed

    def test_mismatch_limit_stops_early(self):
        source = "module g(input a, output y); assign y = ~a; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": ins["a"]})
        runner = Runner(max_mismatches=2)
        result = runner.run(source, golden, [{"a": 0}] * 10)
        assert not result.passed
        assert len(result.mismatches) == 2

    def test_failure_summary_mentions_step(self):
        source = "module g(input a, output y); assign y = ~a; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": ins["a"]})
        result = run_functional_check(source, golden, [{"a": 0}])
        assert "step 0" in result.failure_summary


# --------------------------------------------------------------------------- fused sequential runs
@pytest.fixture
def fused_cycles(monkeypatch):
    """Count the clock cycles that ran on the fused generated loop."""
    counter = {"cycles": 0}
    original = codegen.SequenceRun.cycle

    def counting(self, data):
        counter["cycles"] += 1
        return original(self, data)

    monkeypatch.setattr(codegen.SequenceRun, "cycle", counting)
    return counter


def _outcome(result):
    return result.passed, result.total_checks, result.failure_summary


def _agree(source, golden_factory, stimulus, **runner_options):
    """Run both runners; the fused path must reproduce the scalar outcome exactly."""
    check_outputs = runner_options.pop("check_outputs", None)
    scalar = Runner(**runner_options).run(
        source, golden_factory(), stimulus, check_outputs=check_outputs
    )
    fused = BatchTestbenchRunner(differential=True, **runner_options).run(
        source, golden_factory(), stimulus, check_outputs=check_outputs
    )
    assert _outcome(fused) == _outcome(scalar)
    assert [str(m) for m in fused.mismatches] == [str(m) for m in scalar.mismatches]
    return scalar


class _ResetCounterGolden:
    """4-bit counter whose active-low ``rst_n`` comes from the stimulus."""

    is_sequential = True

    def __init__(self):
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def step(self, inputs):
        self.value = (self.value + 1) % 16 if inputs.get("rst_n", 1) else 0
        return {"count": self.value}


ASYNC_LOW_COUNTER = """
module c(input clk, input rst_n, output reg [3:0] count);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n)
            count <= 4'd0;
        else
            count <= count + 4'd1;
    end
endmodule
"""


class _DelayGolden:
    """``q`` registers ``d`` (held while vectors omit it) on every clock."""

    is_sequential = True

    def __init__(self):
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def step(self, inputs):
        self.value = inputs.get("d", self.value)
        return {"q": self.value}


class TestFusedSequentialRuns:
    def test_suite_tasks_match_scalar_oracle(self, fused_cycles):
        """Every sequential task, reference and simulated-LLM candidates, five suites."""
        from repro.bench.symbolic_suite import build_symbolic_suite
        from repro.bench.verilogeval import SuiteConfig
        from repro.core.llm.base import GenerationConfig
        from repro.experiments import ExperimentScale, baseline_pipeline, build_suites

        suites = dict(build_suites(ExperimentScale.tiny()))
        suites["symbolic"] = build_symbolic_suite(SuiteConfig(num_tasks=16, seed=11))
        pipeline = baseline_pipeline("codellama-7b")
        checked = set()
        for suite in suites.values():
            for task in suite:
                if not task.golden().is_sequential:
                    continue
                generation = pipeline.generate(
                    prompt=task.prompt,
                    interface=task.interface,
                    reference_source=task.reference_source,
                    demands=task.demands,
                    config=GenerationConfig(temperature=0.8, num_samples=4, seed=0),
                    prompt_style=task.prompt_style,
                    task_id=task.task_id,
                )
                stimulus = task.stimulus(1234)
                for code in [task.reference_source] + [s.code for s in generation.samples]:
                    checked.add((task.task_id, code))
                    _agree(
                        code,
                        task.golden_factory,
                        stimulus,
                        clock=task.clock,
                        reset=task.reset,
                        check_outputs=task.check_outputs,
                    )
        assert len(checked) >= 20
        assert fused_cycles["cycles"] > 0

    def test_async_active_low_reset_from_stimulus(self, fused_cycles):
        stimulus = [{"rst_n": 1}] * 5 + [{"rst_n": 0}] + [{"rst_n": 1}] * 6
        result = _agree(
            ASYNC_LOW_COUNTER,
            _ResetCounterGolden,
            stimulus,
            reset=ResetSpec(signal="rst_n", active_low=True),
        )
        assert result.passed
        assert fused_cycles["cycles"] == len(stimulus)

    def test_async_reset_only_from_stimulus_hands_over_once_defined(self, fused_cycles):
        # No reset phase: the count stays x until the stimulus pulls rst_n
        # low (a negedge the process is sensitive to); only then may the
        # generated loop take over.
        stimulus = [{"rst_n": 1}] * 3 + [{"rst_n": 0}] + [{"rst_n": 1}] * 4
        result = _agree(ASYNC_LOW_COUNTER, _ResetCounterGolden, stimulus)
        assert not result.passed  # x before the first reset
        assert fused_cycles["cycles"] == 4

    def test_negedge_process(self, fused_cycles):
        # The negedge stage samples what the posedge stage captured in the
        # same cycle, so q tracks d only if each edge triggers its own process.
        source = """
        module n(input clk, input rst, input [3:0] d, output reg [3:0] q);
            reg [3:0] a;
            always @(posedge clk) a <= rst ? 4'd0 : d;
            always @(negedge clk) begin
                if (rst) q <= 4'd0;
                else q <= a;
            end
        endmodule
        """
        stimulus = [{"d": value} for value in (3, 9, 12, 0, 7)]
        result = _agree(source, _DelayGolden, stimulus, reset=ResetSpec(signal="rst"))
        assert result.passed
        assert fused_cycles["cycles"] == len(stimulus)

    def test_edge_input_stays_scalar_until_defined(self, fused_cycles):
        # `go` is an edge input nothing reads: the state is defined after one
        # cycle, but `go` is x until the stimulus drives it, and x -> 1 is a
        # posedge the two-state loop cannot see.  The handover waits until
        # the scalar engine has applied that edge.
        source = """
        module e(input clk, input go, input load, input [3:0] d, output reg [3:0] q);
            always @(posedge clk or posedge go)
                if (load) q <= d;
                else q <= q + 4'd1;
        endmodule
        """
        stimulus = [{"load": 1, "d": 5}, {"load": 0}, {"go": 1}, {"go": 0}, {}]

        class Golden(_DelayGolden):
            def step(self, inputs):
                return {"q": 0}

        result = _agree(source, Golden, stimulus)
        assert "got 4'b1000" in result.failure_summary  # two increments in step 2
        assert fused_cycles["cycles"] == 2

        # Defined from the first cycle, `go` no longer holds the loop back,
        # and the loop sees its edges.
        fused_cycles["cycles"] = 0
        result = _agree(source, Golden, [{"go": 0, "load": 1, "d": 5}] + stimulus[1:])
        assert "got 4'b1000" in result.failure_summary
        assert fused_cycles["cycles"] == len(stimulus) - 1

    def test_undriven_output_reads_x(self, fused_cycles):
        class Golden(_DelayGolden):
            def step(self, inputs):
                return {**super().step(inputs), "z": 0}

        undriven = """
        module u(input clk, input rst, input d, output reg q, output z);
            always @(posedge clk) q <= rst ? 1'b0 : d;
        endmodule
        """
        result = _agree(undriven, Golden, [{"d": 1}, {"d": 0}], reset=ResetSpec(signal="rst"))
        assert not result.passed
        assert "got 1'bx" in result.failure_summary
        # A never-assigned output is an undef source: the lowering rejects
        # the design, so it stays on the scalar engine.
        assert fused_cycles["cycles"] == 0

        # Set to x once by an initial block, z is no process's business: the
        # generated loop never touches it and it is read from the scalar store.
        initial_x = undriven.replace("output z);", "output reg z); initial z = 1'bx;")
        result = _agree(initial_x, Golden, [{"d": 1}, {"d": 0}], reset=ResetSpec(signal="rst"))
        assert not result.passed
        assert "got 1'bx" in result.failure_summary
        assert fused_cycles["cycles"] == 2

    def test_register_without_reset(self, fused_cycles):
        source = """
        module r(input clk, input [7:0] d, output reg [7:0] q);
            always @(posedge clk) q <= d;
        endmodule
        """
        stimulus = [{"d": value} for value in (5, 200, 17, 17, 0)]
        result = _agree(source, _DelayGolden, stimulus, reset=ResetSpec(signal="rst"))
        assert result.passed
        # Nothing resets q, so it is x after the reset phase: the first cycle
        # runs on the scalar engine, the rest on generated code.
        assert fused_cycles["cycles"] == len(stimulus) - 1

    def test_vectors_with_differing_key_sets(self, fused_cycles, counter_source):
        stimulus = [
            {"rst": 0, "en": 1},
            {"en": 1},
            {},
            {"rst": 1},
            {"rst": 0},
            {"en": 0},
            {"en": 1, "rst": 0},
        ]
        result = _agree(
            counter_source, CounterGoldenLocal, stimulus, reset=ResetSpec(signal="rst")
        )
        assert result.passed
        assert fused_cycles["cycles"] == len(stimulus)

    def test_design_missing_clock_stays_scalar(self, fused_cycles):
        source = """
        module m(input clock, input d, output reg q);
            always @(posedge clock) q <= d;
        endmodule
        """
        result = _agree(source, _DelayGolden, [{"d": 1}, {"d": 0}])
        assert not result.passed
        assert "undeclared signal 'clk'" in result.failure_summary
        assert fused_cycles["cycles"] == 0

    def test_mismatch_limit_stops_early(self, fused_cycles, counter_source):
        broken = counter_source.replace("count + 1'b1", "count + 2'd2")
        stimulus = [{"rst": 0, "en": 1}] * 40
        result = _agree(
            broken,
            CounterGoldenLocal,
            stimulus,
            reset=ResetSpec(signal="rst"),
            max_mismatches=3,
        )
        assert len(result.mismatches) == 3
        assert result.total_checks < len(stimulus)
        assert 0 < fused_cycles["cycles"] < 2 * len(stimulus)

    def test_internal_signal_check_reads_the_generated_state(self, fused_cycles, fsm_source):
        class Golden:
            is_sequential = True

            def reset(self):
                self.state = 0

            def step(self, inputs):
                self.state = self.state if inputs["x"] else 1 - self.state
                return {"state": self.state, "out": self.state}

        stimulus = [{"x": bit, "rst": 0} for bit in (0, 1, 1, 0, 0, 1, 0)]
        result = _agree(fsm_source, Golden, stimulus, reset=ResetSpec(signal="rst"))
        assert result.passed
        # x is undriven during reset, so next_state is x at the first
        # boundary: one scalar cycle, then generated code.
        assert fused_cycles["cycles"] == len(stimulus) - 1

    def test_deadline_interrupts_a_long_sequence(self, fused_cycles, counter_source):
        stimulus = [{"rst": 0, "en": 1}] * 400_000
        runner = BatchTestbenchRunner(reset=ResetSpec(signal="rst"))
        with pytest.raises(CheckTimeout):
            with deadline_scope(0.5):
                runner.run(counter_source, CounterGoldenLocal(), stimulus)
        assert 0 < fused_cycles["cycles"] < len(stimulus)

    def test_rejected_design_stays_scalar(self, fused_cycles, counter_source):
        # A clocked design the lowering rejects has no fused program: every
        # cycle runs on the scalar engine, with the scalar verdict.
        rejected = counter_source.replace("count + 1'b1", "(count + 1'b1) % 5'd16")
        stimulus = [{"rst": 0, "en": 1}] * 4
        result = _agree(rejected, CounterGoldenLocal, stimulus, reset=ResetSpec(signal="rst"))
        assert result.passed
        assert fused_cycles["cycles"] == 0
