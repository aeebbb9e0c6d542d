"""Tests for the module simulator (elaboration + execution)."""

from __future__ import annotations

import pytest

from repro.verilog.errors import ElaborationError, SimulationError
from repro.verilog.simulator.simulator import ModuleSimulator, simulate_combinational


class TestElaboration:
    def test_ports_and_widths(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        assert simulator.input_names() == ["clk", "rst", "en"]
        assert simulator.output_names() == ["count"]
        assert simulator.get("count").width == 4

    def test_parameter_override_changes_width(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source, parameter_overrides={"WIDTH": 8})
        assert simulator.get("count").width == 8

    def test_localparam_resolution(self, fsm_source):
        simulator = ModuleSimulator.from_source(fsm_source)
        assert simulator.design.parameters["A"] == 0
        assert simulator.design.parameters["B"] == 1

    def test_uninitialised_regs_are_x(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        assert simulator.get("count").has_unknown

    def test_net_initialiser_applied(self):
        simulator = ModuleSimulator.from_source(
            "module m(output [3:0] y); wire [3:0] t = 4'd9; assign y = t; endmodule"
        )
        assert simulator.get_int("y") == 9

    def test_initial_block_executes(self):
        simulator = ModuleSimulator.from_source(
            "module m(output [3:0] y); reg [3:0] r; initial r = 4'd5; assign y = r; endmodule"
        )
        assert simulator.get_int("y") == 5

    def test_memory_array_rejected(self):
        source = "module m(input clk, output y); reg [7:0] mem [0:3]; assign y = 1'b0; endmodule"
        with pytest.raises(ElaborationError):
            ModuleSimulator.from_source(source)

    def test_module_instance_rejected(self):
        source = "module m(input a, output y); sub u0 (a, y); endmodule"
        with pytest.raises(ElaborationError):
            ModuleSimulator.from_source(source)

    def test_port_without_direction_rejected(self):
        with pytest.raises(ElaborationError):
            ModuleSimulator.from_source("module m(a); wire a; endmodule")


class TestCombinational:
    def test_and_gate(self):
        source = "module g(input a, input b, output y); assign y = a & b; endmodule"
        results = simulate_combinational(source, [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)])
        values = [result["y"].to_int() for result in results]
        assert values == [0, 0, 0, 1]

    def test_always_star_block(self):
        source = """
        module g(input a, input b, output reg y);
            always @(*) begin
                if (a & b) y = 1'b1;
                else y = 1'b0;
            end
        endmodule
        """
        results = simulate_combinational(source, [{"a": 1, "b": 1}, {"a": 1, "b": 0}])
        assert [r["y"].to_int() for r in results] == [1, 0]

    def test_chained_combinational_settles(self):
        source = """
        module chain(input a, output y);
            wire t1, t2;
            assign t1 = ~a;
            assign t2 = ~t1;
            assign y = ~t2;
        endmodule
        """
        results = simulate_combinational(source, [{"a": 0}, {"a": 1}])
        assert [r["y"].to_int() for r in results] == [1, 0]

    def test_combinational_loop_detected(self):
        source = """
        module loop(input a, output y);
            reg t = 1'b0;
            always @(*) t = ~t;
            assign y = t & a;
        endmodule
        """
        with pytest.raises(SimulationError):
            ModuleSimulator.from_source(source)

    def test_x_feedback_loop_settles_to_x(self):
        # A feedback loop through undefined values settles (conservatively) at x
        # instead of looping forever.
        source = """
        module loop(input a, output y);
            wire t;
            assign t = ~t;
            assign y = t & a;
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"a": 1})
        assert simulator.get("y").has_unknown

    def test_case_statement_combinational(self):
        source = """
        module mux(input [1:0] sel, input [3:0] a, input [3:0] b, input [3:0] c, output reg [3:0] y);
            always @(*) begin
                case (sel)
                    2'd0: y = a;
                    2'd1: y = b;
                    default: y = c;
                endcase
            end
        endmodule
        """
        results = simulate_combinational(
            source,
            [{"sel": 0, "a": 1, "b": 2, "c": 3}, {"sel": 1, "a": 1, "b": 2, "c": 3}, {"sel": 3, "a": 1, "b": 2, "c": 3}],
        )
        assert [r["y"].to_int() for r in results] == [1, 2, 3]

    def test_adder_carry(self, adder_source):
        simulator = ModuleSimulator.from_source(adder_source)
        simulator.apply_inputs({"a": 9, "b": 8})
        assert simulator.get_int("sum") == 1
        assert simulator.get_int("carry_out") == 1

    def test_function_call_in_assign(self):
        source = """
        module f(input [3:0] a, output [3:0] y);
            function [3:0] double;
                input [3:0] value;
                double = value << 1;
            endfunction
            assign y = double(a);
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"a": 5})
        assert simulator.get_int("y") == 10


class TestSequential:
    def test_counter_counts(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "en": 0})
        simulator.clock_cycle()
        assert simulator.get_int("count") == 0
        simulator.apply_inputs({"rst": 0, "en": 1})
        for _ in range(5):
            simulator.clock_cycle()
        assert simulator.get_int("count") == 5

    def test_counter_enable_gates_updates(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "en": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0, "en": 0})
        for _ in range(3):
            simulator.clock_cycle()
        assert simulator.get_int("count") == 0

    def test_counter_wraps(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "en": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0, "en": 1})
        for _ in range(17):
            simulator.clock_cycle()
        assert simulator.get_int("count") == 1

    def test_async_reset_applies_without_clock(self, fsm_source):
        simulator = ModuleSimulator.from_source(fsm_source)
        simulator.apply_inputs({"clk": 0, "x": 0, "rst": 0})
        simulator.apply_inputs({"rst": 1})  # asynchronous reset edge, no clock edge
        assert simulator.get_int("out") == 0
        simulator.apply_inputs({"rst": 0})

    def test_fsm_trace_matches_reference(self, fsm_source):
        simulator = ModuleSimulator.from_source(fsm_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "x": 0})
        simulator.apply_inputs({"rst": 0})
        outputs = []
        for x in [0, 1, 0, 0, 1, 1]:
            simulator.apply_inputs({"x": x})
            simulator.apply_inputs({"clk": 1})
            simulator.apply_inputs({"clk": 0})
            outputs.append(simulator.get_int("out"))
        assert outputs == [1, 1, 0, 1, 1, 1]

    def test_nonblocking_swap_semantics(self):
        source = """
        module swap(input clk, input rst, output reg a, output reg b);
            always @(posedge clk) begin
                if (rst) begin
                    a <= 1'b0;
                    b <= 1'b1;
                end else begin
                    a <= b;
                    b <= a;
                end
            end
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"clk": 0, "rst": 1})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        simulator.clock_cycle()
        # Non-blocking semantics: values swap rather than both becoming equal.
        assert simulator.get_int("a") == 1
        assert simulator.get_int("b") == 0

    def test_negedge_clocking(self):
        source = """
        module d(input clk, input din, output reg q);
            always @(negedge clk) q <= din;
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"clk": 1, "din": 1})
        simulator.apply_inputs({"din": 1})
        simulator.apply_inputs({"clk": 0})  # falling edge captures din
        assert simulator.get_int("q") == 1

    def test_shift_register(self):
        source = """
        module sr(input clk, input rst, input din, output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= {q[2:0], din};
            end
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "din": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        for bit in [1, 0, 1, 1]:
            simulator.clock_cycle(inputs={"din": bit})
        assert simulator.get_int("q") == 0b1011

    def test_pulse_helper(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 0, "en": 1})
        simulator.clock_cycle()  # count becomes x+1 => x, then reset below
        simulator.apply_inputs({"rst": 1})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        assert simulator.get_int("count") == 0

    def test_unknown_input_raises(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        with pytest.raises(SimulationError):
            simulator.apply_inputs({"nonexistent": 1})

    def test_display_log_captured(self):
        source = """
        module m(input clk, output reg y);
            initial begin
                $display("hello");
                y = 1'b0;
            end
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        assert any("hello" in line for line in simulator.display_log)


class TestNetDeclarationAssignment:
    """``wire w = expr;`` drives ``w`` continuously; ``reg r = c;`` initialises ``r``."""

    DECLARED = (
        "module m(input [3:0] a, input [3:0] b, input [3:0] c, output [3:0] y, output [3:0] k);\n"
        "    wire [3:0] w = a & b;\n"
        "    reg [3:0] r = 4'd5;\n"
        "    assign y = w ^ c;\n"
        "    assign k = r;\n"
        "endmodule\n"
    )
    ASSIGNED = (
        "module m(input [3:0] a, input [3:0] b, input [3:0] c, output [3:0] y, output [3:0] k);\n"
        "    wire [3:0] w;\n"
        "    assign w = a & b;\n"
        "    assign y = w ^ c;\n"
        "    assign k = 4'd5;\n"
        "endmodule\n"
    )
    VECTORS = [{"a": a, "b": b, "c": c} for a in (0, 6, 15) for b in (3, 12) for c in (0, 9)]

    @staticmethod
    def _expected(vector):
        return {"y": (vector["a"] & vector["b"]) ^ vector["c"], "k": 5}

    def test_scalar_simulator_drives_the_net(self):
        simulator = ModuleSimulator.from_source(self.DECLARED)
        for vector in self.VECTORS:
            simulator.apply_inputs(dict(vector))
            assert simulator.get_int("w") == vector["a"] & vector["b"]
            assert {name: simulator.get_int(name) for name in ("y", "k")} == self._expected(vector)

    def test_batch_runner_matches_scalar_on_generated_code(self):
        from repro.verilog import codegen
        from repro.verilog.simulator.testbench import BatchTestbenchRunner, CombinationalGolden

        codegen.reset_fallback_stats()
        result = BatchTestbenchRunner(differential=True).run(
            self.DECLARED, CombinationalGolden(self._expected), self.VECTORS
        )
        assert result.passed and result.total_checks == 2 * len(self.VECTORS)
        assert codegen.fallback_stats()["total"] == 0

    def test_proven_equivalent_to_the_assign_form(self):
        from repro.bench.golden import formal_equivalence_check

        result = formal_equivalence_check(self.DECLARED, self.ASSIGNED)
        assert result.equivalent, result.counterexample

    def test_writer_round_trip_keeps_the_behaviour(self):
        from repro.verilog.parser import parse_module
        from repro.verilog.writer import write_module

        emitted = write_module(parse_module(self.DECLARED))
        assert "wire [3:0] w = a & b;" in emitted
        assert parse_module(emitted) == parse_module(self.DECLARED)
        vectors = [dict(vector) for vector in self.VECTORS]
        assert simulate_combinational(emitted, vectors) == simulate_combinational(
            self.DECLARED, vectors
        )
