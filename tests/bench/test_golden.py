"""Tests for the benchmark golden models and stimulus helpers."""

from __future__ import annotations

import pytest

from repro.bench.golden import (
    ClockDividerGolden,
    CounterGolden,
    EdgeDetectorGolden,
    ExpressionGolden,
    InvertedInputsGolden,
    RegisterGolden,
    SequenceDetectorGolden,
    ShiftRegisterGolden,
    TableGolden,
    VectorFunctionGolden,
    VerilogGolden,
    batch_equivalence_check,
    exhaustive_vectors,
    random_vectors,
)
from repro.logic.expr import And, Var


class TestCombinationalGoldens:
    def test_expression_golden(self):
        golden = ExpressionGolden(And(Var("a"), Var("b")))
        assert golden.eval({"a": 1, "b": 1}) == {"out": 1}
        assert golden.eval({"a": 1, "b": 0}) == {"out": 0}
        assert not golden.is_sequential

    def test_table_golden_defaults_missing_rows_to_zero(self):
        golden = TableGolden(["a", "b"], {3: 1})
        assert golden.eval({"a": 1, "b": 1}) == {"out": 1}
        assert golden.eval({"a": 0, "b": 1}) == {"out": 0}

    def test_vector_function_golden(self):
        golden = VectorFunctionGolden(lambda ins: {"y": ins["a"] + 1})
        assert golden.eval({"a": 3}) == {"y": 4}


class TestSequentialGoldens:
    def test_counter_counts_and_resets(self):
        golden = CounterGolden(width=4, has_enable=True)
        golden.reset()
        assert golden.step({"rst": 0, "en": 1})["count"] == 1
        assert golden.step({"rst": 0, "en": 0})["count"] == 1
        assert golden.step({"rst": 1, "en": 1})["count"] == 0

    def test_counter_wraps_at_width(self):
        golden = CounterGolden(width=2)
        golden.reset()
        values = [golden.step({"rst": 0})["count"] for _ in range(5)]
        assert values == [1, 2, 3, 0, 1]

    def test_counter_modulo(self):
        golden = CounterGolden(width=4, modulo=10)
        golden.reset()
        values = [golden.step({"rst": 0})["count"] for _ in range(11)]
        assert values[9] == 0

    def test_up_down_counter(self):
        golden = CounterGolden(width=4, up_down=True)
        golden.reset()
        golden.step({"rst": 0, "up_down": 1})
        assert golden.step({"rst": 0, "up_down": 0})["count"] == 0

    def test_shift_register_left(self):
        golden = ShiftRegisterGolden(width=4)
        golden.reset()
        for bit in (1, 0, 1, 1):
            result = golden.step({"rst": 0, "din": bit})
        assert result["q"] == 0b1011

    def test_shift_register_right(self):
        golden = ShiftRegisterGolden(width=4, shift_left=False)
        golden.reset()
        golden.step({"rst": 0, "din": 1})
        assert golden.step({"rst": 0, "din": 0})["q"] == 0b0100

    def test_register_with_active_low_enable(self):
        golden = RegisterGolden(width=8, has_enable=True, enable_active_low=True, enable_input="en_n")
        golden.reset()
        assert golden.step({"rst": 0, "en_n": 1, "d": 42})["q"] == 0
        assert golden.step({"rst": 0, "en_n": 0, "d": 42})["q"] == 42

    def test_clock_divider_toggles(self):
        golden = ClockDividerGolden(divisor=2)
        golden.reset()
        outputs = [golden.step({"rst": 0})["clk_out"] for _ in range(8)]
        assert outputs == [0, 1, 1, 0, 0, 1, 1, 0]

    def test_sequence_detector(self):
        golden = SequenceDetectorGolden(pattern=(1, 0, 1))
        golden.reset()
        outputs = [golden.step({"rst": 0, "din": bit})["detected"] for bit in (1, 0, 1, 0, 1)]
        assert outputs == [0, 0, 1, 0, 1]

    def test_edge_detector(self):
        golden = EdgeDetectorGolden()
        golden.reset()
        outputs = [golden.step({"rst": 0, "din": bit})["pulse"] for bit in (0, 1, 1, 0, 1)]
        assert outputs == [0, 1, 0, 0, 1]

    def test_inverted_inputs_wrapper(self):
        inner = RegisterGolden(width=4, reset_input="rst_n")
        wrapped = InvertedInputsGolden(inner, ("rst_n",))
        wrapped.reset()
        # rst_n=1 means "not in reset" externally; the wrapper inverts it for the
        # active-high inner model.
        assert wrapped.step({"rst_n": 1, "d": 5})["q"] == 5
        assert wrapped.step({"rst_n": 0, "d": 7})["q"] == 0
        assert wrapped.is_sequential


class TestOutOfRangeInputsRejected:
    """Regression: _mask-based stepping silently truncated oversized stimulus.

    An out-of-range value means the harness drove the DUT and the golden model
    with *different* stimuli; the goldens must fail loudly instead of scoring
    against the truncation.
    """

    def test_register_rejects_oversized_data(self):
        golden = RegisterGolden(width=4)
        golden.reset()
        with pytest.raises(ValueError, match="does not fit"):
            golden.step({"rst": 0, "d": 16})
        # In-range values still work, including the maximum.
        assert golden.step({"rst": 0, "d": 15})["q"] == 15

    def test_shift_register_rejects_wide_serial_bit(self):
        golden = ShiftRegisterGolden(width=4)
        golden.reset()
        with pytest.raises(ValueError, match="din"):
            golden.step({"rst": 0, "din": 2})

    def test_sequence_detector_rejects_wide_serial_bit(self):
        golden = SequenceDetectorGolden(pattern=(1, 0))
        golden.reset()
        with pytest.raises(ValueError, match="din"):
            golden.step({"rst": 0, "din": 3})

    def test_edge_detector_rejects_wide_input(self):
        golden = EdgeDetectorGolden()
        golden.reset()
        with pytest.raises(ValueError, match="din"):
            golden.step({"rst": 0, "din": 2})

    def test_table_golden_rejects_multibit_input(self):
        golden = TableGolden(["a", "b"], {3: 1})
        with pytest.raises(ValueError, match="'a'"):
            golden.eval({"a": 2, "b": 1})

    def test_expression_golden_rejects_multibit_input(self):
        golden = ExpressionGolden(And(Var("a"), Var("b")))
        with pytest.raises(ValueError, match="does not fit"):
            golden.eval({"a": 2, "b": 1})

    def test_negative_values_rejected(self):
        golden = RegisterGolden(width=4)
        golden.reset()
        with pytest.raises(ValueError, match="does not fit"):
            golden.step({"rst": 0, "d": -1})


class TestVerilogGolden:
    ADDER = (
        "module ref(input [3:0] a, input [3:0] b, output [3:0] sum, output cout);\n"
        "    assign {cout, sum} = a + b;\n"
        "endmodule\n"
    )
    COUNTER = (
        "module ref(input clk, input rst, output reg [3:0] count);\n"
        "    always @(posedge clk) begin\n"
        "        if (rst) count <= 4'd0; else count <= count + 1'b1;\n"
        "    end\n"
        "endmodule\n"
    )

    def test_combinational_reference_as_golden(self):
        golden = VerilogGolden(self.ADDER)
        assert not golden.is_sequential
        assert golden.eval({"a": 9, "b": 8}) == {"sum": 1, "cout": 1}

    def test_sequential_reference_as_golden(self):
        golden = VerilogGolden(self.COUNTER)
        assert golden.is_sequential
        golden.step({"rst": 1})
        assert golden.step({"rst": 0})["count"] == 1
        assert golden.step({"rst": 0})["count"] == 2
        golden.reset()
        golden.step({"rst": 1})
        assert golden.step({"rst": 0})["count"] == 1

    def test_undefined_outputs_are_omitted(self):
        source = "module ref(input a, output y, output z); assign y = a; endmodule"
        golden = VerilogGolden(source)
        observed = golden.eval({"a": 1})
        assert observed == {"y": 1}  # z never driven -> stays x -> unconstrained

    def test_eval_matches_scalar_simulator_exhaustively(self):
        from repro.verilog.design import compile_design
        from repro.verilog.simulator import ModuleSimulator

        source = (
            "module ref(input [2:0] a, input inv, output [2:0] y, output p);\n"
            "    assign y = inv ? ~a : a;\n"
            "    assign p = ^a;\n"
            "endmodule\n"
        )
        golden = VerilogGolden(source)
        scalar = ModuleSimulator(compile_design(source))
        for a in range(8):
            for inv in range(2):
                scalar.apply_inputs({"a": a, "inv": inv})
                expected = {"y": scalar.get_int("y"), "p": scalar.get_int("p")}
                assert golden.eval({"a": a, "inv": inv}) == expected

    def test_partial_and_out_of_range_stimuli_follow_the_simulator(self):
        from repro.verilog.design import compile_design
        from repro.verilog.simulator import ModuleSimulator

        golden = VerilogGolden(self.ADDER)
        scalar = ModuleSimulator(compile_design(self.ADDER))
        # Full vectors, a vector that drives only one port (the other keeps
        # its last value), and values wider than the 4-bit ports.
        stimuli = ({"a": 9, "b": 8}, {"a": 1}, {"b": 3}, {"a": 16, "b": 0}, {"a": -1})
        for stimulus in stimuli:
            scalar.apply_inputs(dict(stimulus))
            expected = {"sum": scalar.get_int("sum"), "cout": scalar.get_int("cout")}
            assert golden.eval(stimulus) == expected, stimulus
        assert golden.eval({"a": 1}) == {"sum": 1, "cout": 0}

    def test_reset_forgets_driven_inputs(self):
        source = "module ref(input a, input b, output y); assign y = a & b; endmodule"
        golden = VerilogGolden(source)
        assert golden.eval({"a": 1, "b": 1}) == {"y": 1}
        assert golden.eval({"a": 1}) == {"y": 1}  # b is still driven
        golden.reset()
        assert golden.eval({"a": 1}) == {}  # b is x again: y is unconstrained

    def test_combinational_proofs_share_one_session(self):
        from repro.formal import prove_combinational_equivalence

        golden = VerilogGolden(self.ADDER)
        session = golden.equivalence_session()
        swapped = self.ADDER.replace("a + b", "b + a")
        wrong = self.ADDER.replace("a + b", "a - b")
        for dut, expected in ((swapped, True), (wrong, False), (self.ADDER, True)):
            assert golden.prove_equivalent(dut).equivalent is expected
            fresh = prove_combinational_equivalence(dut, self.ADDER)
            assert fresh.equivalent is expected
        assert golden.equivalence_session() is session
        assert session.proofs == 3


class TestBatchEquivalenceCheck:
    REFERENCE = (
        "module ref(input [3:0] a, input [3:0] b, output gt, output eq);\n"
        "    assign gt = a > b;\n"
        "    assign eq = a == b;\n"
        "endmodule\n"
    )

    def test_equivalent_designs_report_no_mismatches(self):
        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt, output eq);\n"
            "    assign eq = ~(a < b) & ~(a > b);\n"
            "    assign gt = (a > b);\n"
            "endmodule\n"
        )
        vectors = [{"a": a, "b": b} for a in range(8) for b in range(8)]
        assert batch_equivalence_check(dut, self.REFERENCE, vectors) == []

    def test_inequivalent_designs_report_mismatching_vectors(self):
        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt, output eq);\n"
            "    assign gt = a >= b;\n"  # wrong on a == b
            "    assign eq = a == b;\n"
            "endmodule\n"
        )
        vectors = [{"a": a, "b": b} for a in range(4) for b in range(4)]
        mismatched = batch_equivalence_check(dut, self.REFERENCE, vectors)
        expected = [index for index, v in enumerate(vectors) if v["a"] == v["b"]]
        assert mismatched == expected

    def test_missing_output_counts_as_mismatch(self):
        dut = "module dut(input [3:0] a, input [3:0] b, output gt); assign gt = a > b; endmodule"
        vectors = [{"a": 1, "b": 2}]
        assert batch_equivalence_check(dut, self.REFERENCE, vectors) == [0]


class TestBatchEquivalenceMismatches:
    """Regression tests for the structured counterexample records.

    ``batch_equivalence_check`` used to return bare lane indices and fold
    "DUT output missing" into generic lane mismatches; the structured API
    exposes the stimulus, the expected/actual values and the missing-output
    flag, with the index list kept as a thin wrapper over it.
    """

    REFERENCE = TestBatchEquivalenceCheck.REFERENCE

    def test_records_carry_inputs_and_values(self):
        from repro.bench.golden import batch_equivalence_mismatches

        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt, output eq);\n"
            "    assign gt = a >= b;\n"  # wrong exactly when a == b
            "    assign eq = a == b;\n"
            "endmodule\n"
        )
        vectors = [{"a": a, "b": b} for a in range(4) for b in range(4)]
        mismatches = batch_equivalence_mismatches(dut, self.REFERENCE, vectors)
        assert mismatches, "expected mismatching lanes"
        for mismatch in mismatches:
            assert mismatch.inputs == vectors[mismatch.lane]
            assert mismatch.inputs["a"] == mismatch.inputs["b"]
            assert mismatch.expected == {"gt": 0}
            assert mismatch.actual == {"gt": 1}
            assert not mismatch.has_missing_output
            assert "gt expected 0 got 1" in str(mismatch)

    def test_missing_output_is_flagged_not_folded(self):
        from repro.bench.golden import batch_equivalence_mismatches

        dut = "module dut(input [3:0] a, input [3:0] b, output gt); assign gt = a > b; endmodule"
        vectors = [{"a": 1, "b": 2}]
        (mismatch,) = batch_equivalence_mismatches(dut, self.REFERENCE, vectors)
        assert mismatch.lane == 0
        assert mismatch.missing_outputs == ["eq"]
        assert mismatch.has_missing_output
        assert "eq missing from DUT" in str(mismatch)
        # The correctly-driven output is not reported as mismatching.
        assert "gt" not in mismatch.expected

    def test_xz_dut_output_reported_as_literal(self):
        from repro.bench.golden import batch_equivalence_mismatches

        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt, output eq);\n"
            "    assign gt = a > b;\n"
            "    assign eq = 1'bx;\n"
            "endmodule\n"
        )
        vectors = [{"a": 2, "b": 2}]
        (mismatch,) = batch_equivalence_mismatches(dut, self.REFERENCE, vectors)
        assert mismatch.expected == {"eq": 1}
        assert mismatch.actual == {"eq": "1'bx"}

    def test_index_list_api_is_a_thin_wrapper(self):
        from repro.bench.golden import batch_equivalence_mismatches

        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt, output eq);\n"
            "    assign gt = a >= b;\n"
            "    assign eq = a == b;\n"
            "endmodule\n"
        )
        vectors = [{"a": a, "b": b} for a in range(4) for b in range(4)]
        lanes = [m.lane for m in batch_equivalence_mismatches(dut, self.REFERENCE, vectors)]
        assert batch_equivalence_check(dut, self.REFERENCE, vectors) == lanes


class TestRejectedDesignReplay:
    """A design generated code rejects replays on one scalar simulator per vector.

    The expected lists were produced by the batch interpreter this path
    replaced; the scalar lanes must reproduce them record for record.
    """

    REFERENCE = TestBatchEquivalenceCheck.REFERENCE

    def test_non_constant_shift_dut(self):
        from repro.bench.golden import LaneMismatch, batch_equivalence_mismatches
        from repro.verilog import codegen

        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt, output eq);\n"
            "    assign gt = (a >> b[1:0]) > (b >> 2);\n"
            "    assign eq = a == b;\n"
            "endmodule\n"
        )
        vectors = [{"a": a, "b": b} for a in (0, 3, 9, 14) for b in (0, 2, 5, 13)]
        codegen.reset_fallback_stats()
        assert batch_equivalence_mismatches(dut, self.REFERENCE, vectors) == [
            LaneMismatch(lane=5, inputs={"a": 3, "b": 2}, expected={"gt": 1}, actual={"gt": 0}),
            LaneMismatch(lane=11, inputs={"a": 9, "b": 13}, expected={"gt": 0}, actual={"gt": 1}),
        ]
        assert codegen.fallback_stats()["reasons"] == {"non-constant-shift": 1}
        codegen.reset_fallback_stats()

    def test_xz_literal_dut_with_missing_output(self):
        from repro.bench.golden import LaneMismatch, batch_equivalence_mismatches

        dut = (
            "module dut(input [3:0] a, input [3:0] b, output gt);\n"
            "    assign gt = b[3] ? 1'bx : (a >> b[1:0]) > b;\n"
            "endmodule\n"
        )
        vectors = [{"a": 0, "b": 13}, {"a": 3, "b": 2}, {"a": 0, "b": 0}]
        assert batch_equivalence_mismatches(dut, self.REFERENCE, vectors) == [
            LaneMismatch(
                lane=0,
                inputs={"a": 0, "b": 13},
                expected={"gt": 0},
                actual={"gt": "1'bx"},
                missing_outputs=["eq"],
            ),
            LaneMismatch(
                lane=1,
                inputs={"a": 3, "b": 2},
                expected={"gt": 1},
                actual={"gt": 0},
                missing_outputs=["eq"],
            ),
            LaneMismatch(lane=2, inputs={"a": 0, "b": 0}, missing_outputs=["eq"]),
        ]


class TestStimulusHelpers:
    def test_random_vectors_deterministic(self):
        first = random_vectors({"a": 4, "b": 2}, 10, seed=3)
        second = random_vectors({"a": 4, "b": 2}, 10, seed=3)
        assert first == second
        assert len(first) == 10
        assert all(0 <= v["a"] < 16 and 0 <= v["b"] < 4 for v in first)

    def test_exhaustive_vectors_small_space(self):
        vectors = exhaustive_vectors({"a": 2, "b": 1})
        assert len(vectors) == 8
        assert {tuple(sorted(v.items())) for v in vectors} == {
            tuple(sorted({"a": a, "b": b}.items())) for a in range(4) for b in range(2)
        }

    def test_exhaustive_vectors_fall_back_to_random(self):
        vectors = exhaustive_vectors({"a": 16, "b": 16}, limit=64)
        assert len(vectors) == 64
