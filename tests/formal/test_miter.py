"""Tests for miter construction, equivalence proofs and counterexamples."""

from __future__ import annotations

import random

import pytest

from repro.bench.golden import VerilogGolden, formal_equivalence_check
from repro.formal import (
    FormalEncodingError,
    prove_combinational_equivalence,
    prove_expr_equivalence,
    prove_sequential_equivalence,
)
from repro.logic.expr import RandomExpressionGenerator, reference_equivalent
from repro.verilog.simulator import LogicVector
from scoring import design_mismatches


class TestExprEquivalence:
    def test_differential_against_legacy_oracle(self):
        generator = RandomExpressionGenerator(seed=13)
        names = ["a", "b", "c", "d"]
        disagreements = 0
        for _ in range(60):
            left = generator.generate(names, max_depth=4)
            right = generator.generate(names, max_depth=4)
            result = prove_expr_equivalence(left, right)
            assert result.equivalent == reference_equivalent(left, right)
            if not result.equivalent:
                disagreements += 1
                assignment = result.counterexample.inputs
                union = set(left.variables()) | set(right.variables())
                full = {name: assignment.get(name, 0) for name in union}
                assert left.evaluate(full) != right.evaluate(full)
        assert disagreements > 0  # the sample must exercise the SAT branch

    @pytest.mark.formal
    def test_wide_equivalence_beyond_bit_table_sweet_spot(self):
        from repro.logic.expr import Var, Xor, and_all, or_all

        # 24 variables: the 2**24-bit table would be 2 MiB of bitmask per
        # compile; the SAT proof is near-instant.
        wide = [Var(f"v{i}") for i in range(24)]
        left = or_all(wide)
        right = or_all(list(reversed(wide)))
        assert prove_expr_equivalence(left, right).equivalent
        result = prove_expr_equivalence(left, and_all(wide))
        assert not result.equivalent


EQUIVALENT_PAIRS = [
    (
        "module m(input a, input b, output o); assign o = a ^ b; endmodule",
        """
        module m(input a, input b, output o);
            assign o = (a & ~b) | (~a & b);
        endmodule
        """,
    ),
    (
        """
        module m(input [3:0] a, input [3:0] b, output [4:0] s);
            assign s = a + b;
        endmodule
        """,
        """
        module m(input [3:0] a, input [3:0] b, output reg [4:0] s);
            integer i;
            reg c;
            always @(*) begin
                c = 1'b0;
                for (i = 0; i < 4; i = i + 1) begin
                    s[i] = a[i] ^ b[i] ^ c;
                    c = (a[i] & b[i]) | (c & (a[i] ^ b[i]));
                end
                s[4] = c;
            end
        endmodule
        """,
    ),
]


class TestCombinationalMiters:
    @pytest.mark.parametrize("dut, reference", EQUIVALENT_PAIRS)
    def test_equivalent_pairs_prove_unsat(self, dut, reference):
        result = prove_combinational_equivalence(dut, reference)
        assert result.equivalent
        assert result.counterexample is None

    def test_counterexample_replays_on_batch_simulator(self):
        dut = "module m(input a, input b, input c, output o); assign o = a & (b | c); endmodule"
        reference = "module m(input a, input b, input c, output o); assign o = a & b | c; endmodule"
        result = prove_combinational_equivalence(dut, reference)
        assert not result.equivalent
        counterexample = result.counterexample
        assert counterexample.mismatching_outputs == [(0, "o")]
        (replayed,) = design_mismatches(dut, reference, [counterexample.inputs])
        assert replayed.output == "o"
        assert replayed.expected == counterexample.reference_outputs[0]["o"]
        actual = LogicVector.from_int(counterexample.dut_outputs[0]["o"], 1)
        assert replayed.actual == actual.to_verilog_literal()

    def test_missing_output_reported(self):
        dut = "module m(input a, output o); assign o = a; endmodule"
        reference = "module m(input a, output o, output p); assign o = a; assign p = ~a; endmodule"
        result = prove_combinational_equivalence(dut, reference)
        assert not result.equivalent
        assert result.method == "missing-output"
        assert result.counterexample.missing_outputs == ["p"]

    def test_width_mismatch_raises(self):
        dut = "module m(input [3:0] a, output o); assign o = |a; endmodule"
        reference = "module m(input [7:0] a, output o); assign o = |a; endmodule"
        with pytest.raises(FormalEncodingError):
            prove_combinational_equivalence(dut, reference)

    def test_multi_output_checks_subset(self):
        dut = "module m(input a, output good, output bad); assign good = a; assign bad = a; endmodule"
        reference = "module m(input a, output good, output bad); assign good = a; assign bad = ~a; endmodule"
        assert prove_combinational_equivalence(dut, reference, outputs=["good"]).equivalent
        assert not prove_combinational_equivalence(dut, reference).equivalent

    @pytest.mark.formal
    def test_wide_adder_miter_proof(self):
        # 24 primary inputs: an exhaustive 2**24 sweep is gated out of the
        # simulation engines; the SAT miter proves it outright.
        dut = """
        module m(input [11:0] a, input [11:0] b, output [12:0] s);
            wire [5:0] lo_a, lo_b, hi_a, hi_b;
            assign lo_a = a[5:0];
            assign lo_b = b[5:0];
            assign hi_a = a[11:6];
            assign hi_b = b[11:6];
            wire [6:0] lo_sum;
            wire [6:0] hi_sum0, hi_sum1;
            assign lo_sum = lo_a + lo_b;
            assign hi_sum0 = hi_a + hi_b;
            assign hi_sum1 = hi_a + hi_b + 6'd1;
            assign s = {(lo_sum[6] ? hi_sum1 : hi_sum0), lo_sum[5:0]};
        endmodule
        """
        reference = """
        module m(input [11:0] a, input [11:0] b, output [12:0] s);
            assign s = a + b;
        endmodule
        """
        result = prove_combinational_equivalence(dut, reference)
        assert result.equivalent


class TestSequentialMiters:
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

    def test_equivalent_rewrites(self):
        rewritten = self.COUNTER.replace(
            "else if (en)\n                count <= count + 4'd1;",
            "else\n                count <= en ? (count + 4'd1) : count;",
        )
        assert rewritten != self.COUNTER
        result = prove_sequential_equivalence(self.COUNTER, rewritten, steps=5)
        assert result.equivalent
        assert result.sequential_steps == 5

    @pytest.mark.formal
    def test_deep_difference_found_at_sufficient_depth(self):
        modulo_ten = self.COUNTER.replace(
            "count <= count + 4'd1;",
            "count <= (count == 4'd9) ? 4'd0 : (count + 4'd1);",
        )
        # The designs agree until the counter first reaches ten...
        assert prove_sequential_equivalence(modulo_ten, self.COUNTER, steps=9).equivalent
        # ...and an 11-step unrolling must find the enable-heavy run to ten.
        result = prove_sequential_equivalence(modulo_ten, self.COUNTER, steps=11)
        assert not result.equivalent
        counterexample = result.counterexample
        enables = sum(step.get("en", 0) for step in counterexample.steps)
        assert enables >= 10

    def test_async_vs_sync_reset_equivalent_after_pulse(self):
        asynchronous = self.COUNTER.replace(
            "always @(posedge clk)", "always @(posedge clk or posedge rst)"
        )
        assert prove_sequential_equivalence(asynchronous, self.COUNTER, steps=4).equivalent


class TestGoldenIntegration:
    def test_formal_equivalence_check_replays_counterexample(self):
        dut = "module m(input a, input b, output o); assign o = a | b; endmodule"
        reference = "module m(input a, input b, output o); assign o = a ^ b; endmodule"
        result = formal_equivalence_check(dut, reference)
        assert not result.equivalent
        # Replay already ran inside the call; the counterexample must be real.
        assert design_mismatches(dut, reference, [result.counterexample.inputs])

    def test_verilog_golden_prove_equivalent(self):
        reference = "module m(input a, input b, output o); assign o = ~(a & b); endmodule"
        golden = VerilogGolden(source=reference)
        nand_demorgan = "module m(input a, input b, output o); assign o = ~a | ~b; endmodule"
        assert golden.prove_equivalent(nand_demorgan).equivalent
        assert not golden.prove_equivalent(
            "module m(input a, input b, output o); assign o = a & b; endmodule"
        ).equivalent

    def test_sequential_golden_requires_steps(self):
        golden = VerilogGolden(
            source=TestSequentialMiters.COUNTER.replace("module m", "module m")
        )
        with pytest.raises(ValueError):
            golden.prove_equivalent(TestSequentialMiters.COUNTER)
        assert golden.prove_equivalent(
            TestSequentialMiters.COUNTER, sequential_steps=3
        ).equivalent

    def test_unprovable_design_raises_encoding_error(self):
        dut = "module m(input [3:0] a, input [3:0] b, output [3:0] q); assign q = a / b; endmodule"
        with pytest.raises(FormalEncodingError):
            formal_equivalence_check(dut, dut)
