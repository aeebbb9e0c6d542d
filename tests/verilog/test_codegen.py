"""Codegen back end: lowering, equivalence, fallback recording.

The generated straight-line functions must be *observationally identical* to
the interpreter on every supported design — these tests pin the contract at
three levels: artifact generation (what is accepted, what is rejected and
why), runtime equivalence (codegen vs interpreter, lane by lane), and the
integration seams (fallback registry, deadline ticks, disk-cached artifacts).
"""

from __future__ import annotations

import pytest

from repro.deadline import CheckTimeout, deadline_scope
from repro.verilog import codegen
from repro.verilog.design import DesignDatabase
from repro.verilog.simulator import BatchSimulator, ModuleSimulator
from repro.verilog.simulator.simulator import SimulationError

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


class TestGeneration:
    def test_supported_design_produces_sources(self):
        compiled = DesignDatabase().compile(ALU)
        artifact = compiled.codegen
        assert artifact is not None and artifact.supported
        assert "def codegen_settle" in artifact.settle_source
        assert "def codegen_sequential" in artifact.sequential_source
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

    def test_backend_codegen_raises_on_rejected_design(self):
        source = (
            "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
            " assign y = a / b; endmodule"
        )
        with pytest.raises(SimulationError, match="mul-div-mod"):
            BatchSimulator.from_source(source, lanes=4, backend="codegen")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="backend"):
            BatchSimulator.from_source(ALU, lanes=2, backend="jit")


class TestEquivalence:
    def test_combinational_matches_interpreter(self):
        lanes = 64
        rng_inputs = {
            "a": [(7 * lane + 3) % 16 for lane in range(lanes)],
            "b": [(11 * lane + 5) % 16 for lane in range(lanes)],
            "op": [lane % 4 for lane in range(lanes)],
        }
        fast = BatchSimulator.from_source(ALU, lanes=lanes, backend="codegen")
        slow = BatchSimulator.from_source(ALU, lanes=lanes, backend="interpret")
        assert fast._codegen is not None
        assert slow._codegen is None
        fast.apply_inputs(rng_inputs)
        slow.apply_inputs(dict(rng_inputs))
        assert _columns(fast, ["y", "carry"]) == _columns(slow, ["y", "carry"])

    def test_clocked_matches_interpreter(self):
        lanes = 16
        fast = BatchSimulator.from_source(ACCUM, lanes=lanes, backend="auto")
        slow = BatchSimulator.from_source(ACCUM, lanes=lanes, backend="interpret")
        stimulus = [
            {"clk": 0, "rst": 1, "d": [0] * lanes},
            {"clk": 1},
            {"clk": 0, "rst": 0, "d": [lane % 16 for lane in range(lanes)]},
            {"clk": 1},
            {"clk": 0, "d": [(3 * lane + 1) % 16 for lane in range(lanes)]},
            {"clk": 1},
        ]
        for step in stimulus:
            fast.apply_inputs(dict(step))
            slow.apply_inputs(dict(step))
            assert _columns(fast, ["sum"]) == _columns(slow, ["sum"])

    def test_xz_gate_falls_back_per_call_then_recovers(self):
        # Before the first reset the register is x: the gate refuses the
        # generated sequential pass and the interpreter runs that call.
        lanes = 4
        simulator = BatchSimulator.from_source(ACCUM, lanes=lanes, backend="auto")
        assert simulator._codegen is not None
        simulator.apply_inputs({"clk": 0, "rst": 0, "d": 1})
        simulator.apply_inputs({"clk": 1})
        stats = codegen.fallback_stats()
        assert stats["reasons"].get(codegen.XZ_STATE, 0) >= 1
        assert simulator.get("sum").lane(0).has_unknown
        # A reset cycle defines the state; from here the generated pass runs.
        simulator.apply_inputs({"clk": 0, "rst": 1})
        simulator.apply_inputs({"clk": 1})
        simulator.apply_inputs({"clk": 0, "rst": 0, "d": 3})
        simulator.apply_inputs({"clk": 1})
        before = codegen.fallback_stats()["total"]
        simulator.apply_inputs({"clk": 0, "d": 2})
        simulator.apply_inputs({"clk": 1})
        assert codegen.fallback_stats()["total"] == before
        assert simulator.get("sum").lane(0).to_int() == 5


class TestFallbackRegistry:
    def test_auto_records_design_rejection(self):
        source = (
            "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
            " assign y = a % b; endmodule"
        )
        simulator = BatchSimulator.from_source(source, lanes=4, backend="auto")
        assert simulator._codegen is None
        stats = codegen.fallback_stats()
        assert stats["total"] >= 1
        assert "mul-div-mod" in stats["reasons"]
        assert any("mul-div-mod" in reasons for reasons in stats["designs"].values())

    def test_interpret_backend_records_nothing(self):
        BatchSimulator.from_source(ALU, lanes=4, backend="interpret")
        assert codegen.fallback_stats()["total"] == 0

    def test_fresh_simulator_records_no_fallback(self):
        # The constructor settles before any input is driven; that x/z gate
        # failure is not a fallback (a per-call one still counts, see
        # test_xz_gate_falls_back_per_call_then_recovers).
        source = "module g(input a, input b, output y); assign y = a & b; endmodule"
        simulator = BatchSimulator.from_source(source, lanes=4, backend="auto")
        assert simulator._codegen is not None
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
        simulator = BatchSimulator.from_source(ALU, lanes=8, backend="codegen")
        runtime = simulator._codegen
        assert runtime is not None
        simulator.apply_inputs({"a": 1, "b": 2, "op": 0})
        with deadline_scope(0.0):
            with pytest.raises(CheckTimeout) as excinfo:
                runtime.try_settle(simulator.store, simulator._full_mask)
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

