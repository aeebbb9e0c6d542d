"""Codegen back end: lowering, equivalence, fallback recording.

The generated straight-line functions must be *observationally identical* to
the scalar simulator on every supported design — these tests pin the
contract at three levels: artifact generation (what is accepted, what is
rejected and why), runtime equivalence (codegen vs scalar oracle, lane by
lane), and the integration seams (fallback registry, deadline ticks,
disk-cached artifacts).
"""

from __future__ import annotations

import pytest

from repro.deadline import CheckTimeout, deadline_scope
from repro.verilog import codegen
from repro.verilog.design import DesignDatabase
from repro.verilog.simulator import (
    BatchSimulator,
    BatchTestbenchRunner,
    CombinationalGolden,
    LaneFallback,
    ModuleSimulator,
    ResetSpec,
    TestbenchRunner,
)

ALU = """
module alu(
    input [3:0] a,
    input [3:0] b,
    input [1:0] op,
    output reg [3:0] y,
    output reg carry
);
    reg [4:0] t;
    always @(*) begin
        t = 5'b0;
        case (op)
            2'b00: t = a + b;
            2'b01: t = a - b;
            2'b10: t = {1'b0, a & b};
            default: t = {1'b0, a | b};
        endcase
        y = t[3:0];
        carry = t[4];
    end
endmodule
"""

ACCUM = """
module accum(
    input clk,
    input rst,
    input [3:0] d,
    output reg [4:0] sum
);
    always @(posedge clk) begin
        if (rst)
            sum <= 5'b0;
        else
            sum <= sum + d;
    end
endmodule
"""


@pytest.fixture(autouse=True)
def _clean_fallback_registry():
    codegen.reset_fallback_stats()
    yield
    codegen.reset_fallback_stats()


def _columns(simulator: BatchSimulator, names: list[str]) -> dict[str, list[str]]:
    """Every output on every lane, as Verilog literals (x/z kept visible)."""
    out: dict[str, list[str]] = {}
    for name in names:
        vector = simulator.get(name)
        out[name] = [vector.lane(lane).to_verilog_literal() for lane in range(simulator.lanes)]
    return out


def _scalar_columns(source: str, lane_inputs: list[dict], names: list[str]) -> dict[str, list[str]]:
    """The same view from one fresh scalar simulator per lane (the oracle)."""
    out: dict[str, list[str]] = {name: [] for name in names}
    for inputs in lane_inputs:
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs(dict(inputs))
        for name in names:
            out[name].append(simulator.get(name).to_verilog_literal())
    return out


class _AccumGolden:
    """Python model of ACCUM: synchronous reset, accumulate ``d`` per cycle."""

    is_sequential = True

    def reset(self):
        self.sum = 0

    def step(self, inputs):
        self.sum = 0 if inputs["rst"] else (self.sum + inputs["d"]) % 32
        return {"sum": self.sum}


class TestGeneration:
    def test_supported_design_produces_sources(self):
        compiled = DesignDatabase().compile(ALU)
        artifact = compiled.codegen
        assert artifact is not None and artifact.supported
        assert "def codegen_settle" in artifact.settle_source
        assert set(artifact.settle_gate) == {"a", "b", "op"}
        assert {name for name, _ in artifact.settle_writes} == {"t", "y", "carry"}

    @pytest.mark.parametrize(
        "source, reason",
        [
            (
                "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
                " assign y = a / b; endmodule",
                "mul-div-mod",
            ),
            (
                "module s(input [3:0] a, input [1:0] n, output [3:0] y);"
                " assign y = a << n; endmodule",
                "non-constant-shift",
            ),
            (
                "module l(input sel, input d, output reg q);"
                " always @(*) begin if (sel) q = d; end endmodule",
                "latch",
            ),
            (
                "module u(input a, output y); wire dangling;"
                " assign y = a; endmodule",
                "undef-source",
            ),
            (
                "module t(input a, output reg y);"
                ' always @(*) begin y = a; $display("y"); end endmodule',
                "system-task",
            ),
            (
                "module c(input a, output wire p, output wire q);"
                " assign p = a ^ q; assign q = p; endmodule",
                "comb-cycle",
            ),
        ],
    )
    def test_reject_reasons(self, source, reason):
        compiled = DesignDatabase().compile(source)
        assert compiled.codegen is not None
        assert compiled.codegen.reject_reason == reason

    def test_clocked_design_gets_a_fused_run(self):
        program = DesignDatabase().compile(ACCUM).codegen.sequence
        assert program is not None
        assert "def codegen_run" in program.source
        assert [name for name, _ in program.inputs] == ["clk", "d", "rst"]
        assert program.outputs == (("sum", 5),)
        assert program.edge_inputs == ("clk",)
        assert [name for name, _ in program.state] == ["d", "rst", "sum"]
        assert DesignDatabase().compile(ALU).codegen.sequence is None

    def test_process_driven_input_gets_no_fused_run(self):
        source = (
            "module p(input clk, input a, output reg q);"
            " always @(posedge clk) begin q <= a; end"
            " assign a = q; endmodule"
        )
        artifact = DesignDatabase().compile(source).codegen
        assert artifact.supported
        assert artifact.sequence is None

    def test_rejected_design_raises_lane_fallback(self):
        source = (
            "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
            " assign y = a / b; endmodule"
        )
        with pytest.raises(LaneFallback, match="mul-div-mod") as excinfo:
            BatchSimulator.from_source(source, lanes=4)
        assert excinfo.value.reason == "mul-div-mod"

    def test_zero_lanes_rejected(self):
        from repro.verilog.errors import SimulationError

        with pytest.raises(SimulationError, match="at least one stimulus lane"):
            BatchSimulator.from_source(ALU, lanes=0)


class TestEquivalence:
    def test_combinational_matches_scalar_oracle(self):
        lanes = 64
        rng_inputs = {
            "a": [(7 * lane + 3) % 16 for lane in range(lanes)],
            "b": [(11 * lane + 5) % 16 for lane in range(lanes)],
            "op": [lane % 4 for lane in range(lanes)],
        }
        fast = BatchSimulator.from_source(ALU, lanes=lanes)
        fast.apply_inputs(rng_inputs)
        lane_inputs = [
            {name: values[lane] for name, values in rng_inputs.items()} for lane in range(lanes)
        ]
        assert _columns(fast, ["y", "carry"]) == _scalar_columns(ALU, lane_inputs, ["y", "carry"])
        assert codegen.fallback_stats()["total"] == 0

    def test_clocked_matches_scalar_oracle(self):
        stimulus = [{"rst": 0, "d": cycle % 16} for cycle in range(16)]
        stimulus += [{"rst": int(cycle % 5 == 0), "d": (3 * cycle + 1) % 16} for cycle in range(16)]
        options = {"reset": ResetSpec(signal="rst")}
        scalar = TestbenchRunner(**options).run(ACCUM, _AccumGolden(), stimulus)
        fused = BatchTestbenchRunner(differential=True, **options).run(
            ACCUM, _AccumGolden(), stimulus
        )
        assert scalar.passed
        assert (fused.passed, fused.total_checks) == (scalar.passed, scalar.total_checks)

    def test_xz_gate_refuses_then_a_defined_call_runs(self):
        # An undriven input is x: the gate refuses the generated settle and
        # the call raises; once every read input is driven the same
        # simulator settles on generated code.
        simulator = BatchSimulator.from_source(ALU, lanes=4)
        with pytest.raises(LaneFallback):
            simulator.apply_inputs({"a": 1, "b": 2})
        assert codegen.fallback_stats()["reasons"] == {codegen.XZ_STATE: 1}
        simulator.apply_inputs({"op": 0})
        assert codegen.fallback_stats()["total"] == 1
        assert simulator.get("y").lane(0).to_int() == 3


class TestFallbackRegistry:
    def test_design_rejection_is_recorded(self):
        source = (
            "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
            " assign y = a % b; endmodule"
        )
        with pytest.raises(LaneFallback):
            BatchSimulator.from_source(source, lanes=4)
        stats = codegen.fallback_stats()
        assert stats["total"] >= 1
        assert "mul-div-mod" in stats["reasons"]
        assert any("mul-div-mod" in reasons for reasons in stats["designs"].values())

    def test_one_record_per_check_that_leaves(self):
        source = (
            "module d(input [3:0] a, input [1:0] n, output [3:0] y);"
            " assign y = a << n; endmodule"
        )
        golden = CombinationalGolden(lambda ins: {"y": (ins["a"] << ins["n"]) & 15})
        stimulus = [{"a": a, "n": n} for a in range(4) for n in range(4)]
        for _ in range(3):
            assert BatchTestbenchRunner().run(source, golden, stimulus).passed
        assert codegen.fallback_stats()["reasons"] == {"non-constant-shift": 3}

    def test_fresh_simulator_records_no_fallback(self):
        # Nothing settles before inputs are driven, so a fresh simulator has
        # nothing to refuse.
        source = "module g(input a, input b, output y); assign y = a & b; endmodule"
        simulator = BatchSimulator.from_source(source, lanes=4)
        assert codegen.fallback_stats()["total"] == 0
        simulator.apply_inputs({"a": 1, "b": 0})
        assert codegen.fallback_stats()["total"] == 0


class TestCompileCache:
    def test_cache_evicts_oldest_beyond_the_cap(self, monkeypatch):
        monkeypatch.setattr(codegen, "COMPILE_CACHE_ENTRIES", 4)
        monkeypatch.setattr(codegen, "_COMPILE_CACHE", {})
        sources = [f"def fn():\n    return {index}\n" for index in range(10)]
        for source in sources:
            assert codegen._compiled_function(source, "fn")() == sources.index(source)
        assert list(codegen._COMPILE_CACHE) == sources[-4:]

    def test_cap_holds_a_full_design_database(self):
        assert codegen.COMPILE_CACHE_ENTRIES >= DesignDatabase().max_entries


class TestDeadline:
    def test_generated_settle_ticks_the_deadline(self):
        simulator = BatchSimulator.from_source(ALU, lanes=8)
        simulator.apply_inputs({"a": 1, "b": 2, "op": 0})
        with deadline_scope(0.0):
            with pytest.raises(CheckTimeout) as excinfo:
                simulator.settle()
        assert excinfo.value.site == "BatchSimulator.codegen_settle"

    def test_fused_run_ticks_the_deadline_per_cycle(self):
        compiled = DesignDatabase().compile(ACCUM)
        simulator = ModuleSimulator(compiled)
        simulator.apply_inputs({"clk": 0, "rst": 1, "d": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        run = codegen.SequenceRun(compiled.codegen.sequence, simulator.signals, "clk", "accum")
        run.cycle({"d": 3})
        assert run.read("sum").to_int() == 3
        with deadline_scope(0.0):
            with pytest.raises(CheckTimeout) as excinfo:
                run.cycle({"d": 1})
        assert excinfo.value.site == "codegen_run"

