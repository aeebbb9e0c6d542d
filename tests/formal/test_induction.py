"""k-induction tests: unbounded sequential proofs, gated against simulation.

Every verdict is differentially checked against long-horizon scalar
simulation: a design pair the induction proves equivalent must never mismatch
over a random stimulus horizon far beyond the unrolling depth, and a refuted
pair must actually mismatch when its counterexample (or any long sweep) is
replayed.
"""

from __future__ import annotations

import random

import pytest

from repro.formal import InductionInconclusive, prove_sequential_by_induction
from repro.verilog.simulator import ModuleSimulator
from repro.verilog.simulator.testbench import ResetSpec

RESET = ResetSpec(signal="rst")

COUNTER_REF = """
module counter(input clk, input rst, output reg [3:0] count);
    always @(posedge clk) begin
        if (rst) count <= 4'd0;
        else count <= count + 4'd1;
    end
endmodule
"""

#: Structurally different but equivalent: increments via two nibble adds.
COUNTER_DUT = """
module counter(input clk, input rst, output reg [3:0] count);
    always @(posedge clk) begin
        if (rst) count <= 4'd0;
        else count <= count + 4'd2 - 4'd1;
    end
endmodule
"""

#: Off-by-one bug: skips every other value.
COUNTER_BAD = COUNTER_DUT.replace("4'd2 - 4'd1", "4'd2")

#: One-hot ring counter: equivalent to the mod-3 reference from reset, but
#: NOT k-inductive at any depth (the dead state 3'b000 is unreachable yet
#: self-sustaining, so the inductive step always finds a spurious run).
RING = """
module ring(input clk, input rst, output out);
    reg [2:0] s;
    always @(posedge clk) begin
        if (rst) s <= 3'b001;
        else s <= {s[1:0], s[2]};
    end
    assign out = s[0];
endmodule
"""

MOD3 = """
module ring(input clk, input rst, output out);
    reg [1:0] r;
    always @(posedge clk) begin
        if (rst) r <= 2'd0;
        else r <= (r == 2'd2) ? 2'd0 : r + 2'd1;
    end
    assign out = (r == 2'd0);
endmodule
"""


def _long_horizon_mismatch(
    dut_source: str,
    reference_source: str,
    outputs: list[str],
    cycles: int = 64,
    seed: int = 0,
    inputs: dict[str, int] | None = None,
) -> bool:
    """Drive both designs from reset for ``cycles``; True iff any output differs."""
    rng = random.Random(seed)
    widths = dict(inputs or {})
    dut = ModuleSimulator.from_source(dut_source)
    reference = ModuleSimulator.from_source(reference_source)
    for simulator in (dut, reference):
        simulator.apply_inputs({"rst": 1})
        simulator.clock_cycle("clk")
        simulator.clock_cycle("clk")
        simulator.apply_inputs({"rst": 0})
    for _ in range(cycles):
        stimulus = {name: rng.randrange(1 << width) for name, width in widths.items()}
        stimulus["rst"] = 0
        dut.clock_cycle("clk", dict(stimulus))
        reference.clock_cycle("clk", dict(stimulus))
        for name in outputs:
            expected = reference.get(name)
            actual = dut.get(name)
            if expected.has_unknown or actual.has_unknown:
                continue
            if expected.to_int() != actual.to_int():
                return True
    return False


def test_equivalent_counters_proven_unbounded():
    result = prove_sequential_by_induction(
        COUNTER_DUT, COUNTER_REF, depth=2, reset=RESET
    )
    assert result.equivalent
    assert result.method == "induction"
    assert result.sequential_steps == 2
    # Differential gate: the unbounded verdict must agree with a simulation
    # horizon 32x deeper than the unrolling.
    assert not _long_horizon_mismatch(COUNTER_DUT, COUNTER_REF, ["count"])


def test_buggy_counter_refuted_with_real_counterexample():
    result = prove_sequential_by_induction(
        COUNTER_BAD, COUNTER_REF, depth=3, reset=RESET
    )
    assert not result.equivalent
    assert result.counterexample is not None
    assert _long_horizon_mismatch(COUNTER_BAD, COUNTER_REF, ["count"])


def test_non_inductive_pair_is_inconclusive_never_wrong():
    # Equivalent from reset (the simulators agree over a long horizon) …
    assert not _long_horizon_mismatch(RING, MOD3, ["out"], cycles=96)
    # … but the inductive step fails from the unreachable dead state, so the
    # engine must refuse to answer rather than refute.
    with pytest.raises(InductionInconclusive):
        prove_sequential_by_induction(RING, MOD3, depth=2, reset=RESET)


def test_inconclusive_induction_falls_back_to_bounded_proof():
    from repro.bench.golden import formal_equivalence_check

    result = formal_equivalence_check(
        RING,
        MOD3,
        reset=RESET,
        induction_depth=2,
        sequential_steps=8,
    )
    assert result.equivalent  # bounded 8-cycle proof from reset
    assert result.method != "induction"
    assert result.sequential_steps == 8


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        prove_sequential_by_induction(COUNTER_DUT, COUNTER_REF, depth=0, reset=RESET)


def test_enable_counter_with_data_inputs():
    ref = """
    module c(input clk, input rst, input en, output reg [3:0] q);
        always @(posedge clk) begin
            if (rst) q <= 4'd0;
            else if (en) q <= q + 4'd1;
        end
    endmodule
    """
    dut = ref.replace("q + 4'd1", "q - 4'hF")
    result = prove_sequential_by_induction(dut, ref, depth=2, reset=RESET)
    assert result.equivalent and result.method == "induction"
    assert not _long_horizon_mismatch(dut, ref, ["q"], inputs={"en": 1})


def test_registry_counts_induction_verdicts():
    from repro.formal import proof_stats, reset_proof_stats

    reset_proof_stats()
    try:
        prove_sequential_by_induction(COUNTER_DUT, COUNTER_REF, depth=2, reset=RESET)
        prove_sequential_by_induction(COUNTER_BAD, COUNTER_REF, depth=2, reset=RESET)
        with pytest.raises(InductionInconclusive):
            prove_sequential_by_induction(RING, MOD3, depth=1, reset=RESET)
        stats = proof_stats()
        assert stats["total"] == 3
        assert stats["results"] == {
            "equivalent": 1,
            "counterexample": 1,
            "unknown": 1,
        }
    finally:
        reset_proof_stats()
