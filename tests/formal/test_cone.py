"""Differential tests: the symbolic Verilog cone encoder vs the scalar simulator."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.formal.aig import AIG, FormalEncodingError
from repro.formal.cone import SequentialUnroller, build_combinational_cone
from repro.verilog.simulator import ModuleSimulator


def cone_outputs(source: str, assignment: dict[str, int]) -> dict[str, int]:
    """Evaluate a module's cone on one assignment via the AIG."""
    cone = build_combinational_cone(source)
    cone.check_defined()
    bits: dict[str, int] = {}
    for name, vector in cone.inputs.items():
        for position, literal in enumerate(vector.bits):
            bits[cone.aig.input_name(literal >> 1)] = (assignment[name] >> position) & 1
    result: dict[str, int] = {}
    for name, vector in cone.outputs.items():
        values = cone.aig.evaluate(vector.bits, bits)
        result[name] = sum(bit << position for position, bit in enumerate(values))
    return result


def simulator_outputs(source: str, assignment: dict[str, int]) -> dict[str, int]:
    simulator = ModuleSimulator.from_source(source)
    simulator.apply_inputs(dict(assignment))
    outputs: dict[str, int] = {}
    for name, value in simulator.output_values().items():
        assert not value.has_unknown, f"output {name} is x/z in simulation"
        outputs[name] = value.to_int()
    return outputs


def assert_differential(source: str, input_widths: dict[str, int], samples: int = 40, seed: int = 0):
    """Cone evaluation must match the scalar simulator on random stimuli."""
    rng = random.Random(seed)
    total = 1
    for width in input_widths.values():
        total *= 1 << width
    if total <= 256:
        vectors = [
            dict(zip(input_widths, values))
            for values in itertools.product(
                *[range(1 << width) for width in input_widths.values()]
            )
        ]
    else:
        vectors = [
            {name: rng.randrange(1 << width) for name, width in input_widths.items()}
            for _ in range(samples)
        ]
    for vector in vectors:
        assert cone_outputs(source, vector) == simulator_outputs(source, vector), vector


class TestCombinationalCones:
    def test_boolean_operators(self):
        source = """
        module m(input a, input b, input c, output o1, output o2, output o3);
            assign o1 = (a & b) | ~c;
            assign o2 = a ^ b ^ c;
            assign o3 = !(a && (b || c));
        endmodule
        """
        assert_differential(source, {"a": 1, "b": 1, "c": 1})

    def test_arithmetic_and_comparisons(self):
        source = """
        module m(input [3:0] a, input [3:0] b, output [4:0] sum, output [4:0] diff,
                 output eq, output lt, output ge);
            assign sum = a + b;
            assign diff = a - b;
            assign eq = a == b;
            assign lt = a < b;
            assign ge = a >= b;
        endmodule
        """
        assert_differential(source, {"a": 4, "b": 4})

    def test_carry_concat_idiom(self):
        source = """
        module m(input [3:0] a, input [3:0] b, input cin, output [3:0] sum, output cout);
            assign {cout, sum} = a + b + cin;
        endmodule
        """
        assert_differential(source, {"a": 4, "b": 4, "cin": 1})

    def test_multiplication(self):
        source = """
        module m(input [2:0] a, input [2:0] b, output [5:0] prod);
            assign prod = a * b;
        endmodule
        """
        assert_differential(source, {"a": 3, "b": 3})

    def test_shifts_constant_and_symbolic(self):
        source = """
        module m(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r,
                 output [7:0] ar, output [7:0] lc);
            assign l = a << n;
            assign r = a >> n;
            assign ar = $signed(a) >>> n;
            assign lc = a << 2;
        endmodule
        """
        assert_differential(source, {"a": 8, "n": 3}, samples=60)

    def test_reductions_and_unary(self):
        source = """
        module m(input [4:0] a, output rand_, output ror_, output rxor_, output [4:0] neg);
            assign rand_ = &a;
            assign ror_ = |a;
            assign rxor_ = ^a;
            assign neg = -a;
        endmodule
        """
        assert_differential(source, {"a": 5})

    def test_ternary_concat_replication(self):
        source = """
        module m(input sel, input [1:0] a, input [1:0] b, output [3:0] o, output [5:0] rep);
            assign o = sel ? {a, b} : {b, a};
            assign rep = {3{a}};
        endmodule
        """
        assert_differential(source, {"sel": 1, "a": 2, "b": 2})

    def test_bit_and_part_selects(self):
        source = """
        module m(input [7:0] bus, input [1:0] idx, output low, output [3:0] mid, output dyn);
            assign low = bus[0];
            assign mid = bus[5:2];
            assign dyn = bus[idx];
        endmodule
        """
        assert_differential(source, {"bus": 8, "idx": 2}, samples=60)

    def test_always_with_case(self):
        source = """
        module m(input [1:0] op, input [3:0] a, input [3:0] b, output reg [3:0] y);
            always @(*) begin
                case (op)
                    2'b00: y = a & b;
                    2'b01: y = a | b;
                    2'b10: y = a ^ b;
                    default: y = ~a;
                endcase
            end
        endmodule
        """
        assert_differential(source, {"op": 2, "a": 4, "b": 4}, samples=60)

    def test_casez_wildcards(self):
        source = """
        module m(input [3:0] req, output reg [1:0] grant);
            always @(*) begin
                casez (req)
                    4'b???1: grant = 2'd0;
                    4'b??10: grant = 2'd1;
                    4'b?100: grant = 2'd2;
                    4'b1000: grant = 2'd3;
                    default: grant = 2'd0;
                endcase
            end
        endmodule
        """
        assert_differential(source, {"req": 4})

    def test_for_loop_ripple_adder(self):
        source = """
        module m(input [5:0] a, input [5:0] b, output reg [6:0] sum);
            integer i;
            reg carry;
            always @(*) begin
                carry = 1'b0;
                for (i = 0; i < 6; i = i + 1) begin
                    sum[i] = a[i] ^ b[i] ^ carry;
                    carry = (a[i] & b[i]) | (carry & (a[i] ^ b[i]));
                end
                sum[6] = carry;
            end
        endmodule
        """
        assert_differential(source, {"a": 6, "b": 6}, samples=60)

    def test_user_function(self):
        source = """
        module m(input [3:0] a, input [3:0] b, output [3:0] y);
            function [3:0] pick_max;
                input [3:0] x;
                input [3:0] z;
                begin
                    pick_max = (x > z) ? x : z;
                end
            endfunction
            assign y = pick_max(a, b);
        endmodule
        """
        assert_differential(source, {"a": 4, "b": 4})

    def test_parameters_resolve(self):
        source = """
        module m #(parameter W = 4, parameter STEP = 3) (input [W-1:0] a, output [W:0] y);
            assign y = a + STEP;
        endmodule
        """
        assert_differential(source, {"a": 4})

    def test_intermediate_wires_settle(self):
        source = """
        module m(input a, input b, output o);
            wire t1, t2;
            assign o = t2 ^ a;
            assign t2 = t1 | b;
            assign t1 = a & b;
        endmodule
        """
        # Processes are listed in use-before-def order: needs fixpoint settling.
        assert_differential(source, {"a": 1, "b": 1})


class TestRejections:
    def test_sequential_module_rejected(self):
        source = "module m(input clk, input d, output reg q); always @(posedge clk) q <= d; endmodule"
        with pytest.raises(FormalEncodingError):
            build_combinational_cone(source)

    def test_latch_rejected(self):
        source = """
        module m(input en, input d, output reg q);
            always @(*) begin
                if (en)
                    q = d;
            end
        endmodule
        """
        with pytest.raises(FormalEncodingError):
            cone = build_combinational_cone(source)
            cone.check_defined()

    def test_undriven_output_rejected(self):
        source = "module m(input a, output o, output p); assign o = a; endmodule"
        cone = build_combinational_cone(source)
        with pytest.raises(FormalEncodingError):
            cone.check_defined(["p"])
        cone.check_defined(["o"])  # the driven output is fine

    def test_data_dependent_division_rejected(self):
        source = "module m(input [3:0] a, input [3:0] b, output [3:0] q); assign q = a / b; endmodule"
        with pytest.raises(FormalEncodingError):
            build_combinational_cone(source)

    def test_x_literal_rejected(self):
        source = "module m(input a, output o); assign o = a ? 1'bx : 1'b0; endmodule"
        with pytest.raises(FormalEncodingError):
            build_combinational_cone(source)


class TestSequentialUnroller:
    COUNTER = """
    module m(input clk, input rst, input en, output reg [3:0] count);
        always @(posedge clk) begin
            if (rst)
                count <= 4'd0;
            else if (en)
                count <= count + 4'd1;
        end
    endmodule
    """

    def test_unrolled_steps_match_scalar_simulation(self):
        rng = random.Random(3)
        aig = AIG()
        unroller = SequentialUnroller(self.COUNTER, aig)
        steps = 6
        step_inputs = unroller.make_step_inputs(steps)
        outputs, undefs = unroller.unroll(step_inputs)
        assert not undefs

        sequence = [{"en": rng.randrange(2)} for _ in range(steps)]
        bits: dict[str, int] = {}
        for step, inputs in enumerate(step_inputs):
            for name, vector in inputs.items():
                for position, literal in enumerate(vector.bits):
                    bits[aig.input_name(literal >> 1)] = (
                        sequence[step][name] >> position
                    ) & 1

        simulator = ModuleSimulator.from_source(self.COUNTER)
        simulator.apply_inputs({"rst": 1})
        for _ in range(2):
            simulator.apply_inputs({"clk": 1})
            simulator.apply_inputs({"clk": 0})
        simulator.apply_inputs({"rst": 0})
        for step in range(steps):
            simulator.clock_cycle("clk", dict(sequence[step]))
            expected = simulator.get("count").to_int()
            values = aig.evaluate(outputs[step]["count"].bits, bits)
            got = sum(bit << position for position, bit in enumerate(values))
            assert got == expected, f"step {step}"

    def test_mixed_clock_edges_rejected(self):
        source = """
        module m(input clk, input d, output reg q, output reg p);
            always @(posedge clk) q <= d;
            always @(negedge clk) p <= d;
        endmodule
        """
        with pytest.raises(FormalEncodingError):
            SequentialUnroller(source, AIG())

    def test_unclocked_sequential_rejected(self):
        source = """
        module m(input clk, input other, input d, output reg q);
            always @(posedge other) q <= d;
        endmodule
        """
        with pytest.raises(FormalEncodingError):
            SequentialUnroller(source, AIG())
