"""Formal equivalence end to end: prove, refute, replay, classify.

This example walks the `repro.formal` user journey:

1. prove two structurally different combinational designs equivalent with a
   complete SAT miter proof (no stimulus sweep, every input assignment);
2. refute a buggy variant and extract the concrete counterexample;
3. replay the counterexample on the testbench runner (the differential
   oracle: the buggy design scored against the reference's recorded outputs)
   and minimise the failing logic with Quine–McCluskey;
4. classify the hallucination behind the bug, letting the counterexample
   sharpen the Table II subtype split;
5. bounded sequential equivalence: unroll two counters from reset and find
   the first input sequence on which they diverge.

Run with::

    python examples/formal_equivalence.py
"""

from __future__ import annotations

from repro.bench.golden import formal_equivalence_check
from repro.core.hallucination_detector import classify_generation
from repro.formal import prove_sequential_equivalence
from repro.logic.expr import And, Not, Or, Var
from repro.logic.minimize import minimize_expression
from repro.verilog.design import compile_design
from repro.verilog.simulator.testbench import BatchTestbenchRunner, ReplayGolden

# --------------------------------------------------------------------------- designs
REFERENCE = """
module majority(input a, input b, input c, output out);
    assign out = (a & b) | (a & c) | (b & c);
endmodule
"""

# A different implementation of the same function: sum the bits, compare.
RESTRUCTURED = """
module majority(input a, input b, input c, output out);
    wire [1:0] ones;
    assign ones = a + b + c;
    assign out = ones >= 2'd2;
endmodule
"""

# A hallucinated variant: drops the (b & c) product term.
BUGGY = """
module majority(input a, input b, input c, output out);
    assign out = (a & b) | (a & c);
endmodule
"""

PROMPT = """Implement a 3-input majority voter matching this truth table:

a | b | c | out
0 | 0 | 0 | 0
0 | 0 | 1 | 0
0 | 1 | 0 | 0
0 | 1 | 1 | 1
1 | 0 | 0 | 0
1 | 0 | 1 | 1
1 | 1 | 0 | 1
1 | 1 | 1 | 1
"""


def main() -> None:
    # ------------------------------------------------------------- 1. prove
    proof = formal_equivalence_check(RESTRUCTURED, REFERENCE)
    print("== Complete combinational proof ==")
    print(f"equivalent: {proof.equivalent} (method: {proof.method})")
    print(
        f"solver work: {proof.stats.decisions} decisions, "
        f"{proof.stats.conflicts} conflicts, {proof.stats.propagations} propagations"
    )

    # ------------------------------------------------------------- 2. refute
    refutation = formal_equivalence_check(BUGGY, REFERENCE)
    counterexample = refutation.counterexample
    print("\n== Refutation of the buggy variant ==")
    print(f"equivalent: {refutation.equivalent}")
    print(f"counterexample: {counterexample.describe()}")

    # ------------------------------------------------------------- 3. replay + minimise
    # formal_equivalence_check already replayed the counterexample before
    # returning it; doing it again explicitly shows the differential-oracle
    # loop: record the reference's outputs on the counterexample, then score
    # the buggy design against them.
    runner = BatchTestbenchRunner()
    stimulus = [counterexample.inputs]
    trace = runner.record(compile_design(REFERENCE), stimulus, ["out"], sequential=False)
    (replayed,) = runner.run(
        BUGGY, ReplayGolden(trace), stimulus, check_outputs=["out"]
    ).mismatches
    print("\n== Replay on the testbench runner ==")
    print(f"simulator confirms: {replayed}")

    a, b, c = Var("a"), Var("b"), Var("c")
    missing_term = And(
        Not(Or(And(a, b), And(a, c))),  # not covered by the buggy code...
        Or(And(a, b), Or(And(a, c), And(b, c))),  # ...but required by majority
    )
    print(f"minimised missing cover: {minimize_expression(missing_term).to_verilog()}")

    # ------------------------------------------------------------- 4. classify
    report = classify_generation(PROMPT, BUGGY, counterexample=counterexample)
    print("\n== Hallucination classification ==")
    print(f"subtype: {report.primary.subtype.value}")
    print(f"evidence: {report.primary.evidence}")

    # ------------------------------------------------------------- 5. sequential
    counter = """
    module counter(input clk, input rst, input en, output reg [3:0] count);
        always @(posedge clk) begin
            if (rst)
                count <= 4'd0;
            else if (en)
                count <= count + 4'd1;
        end
    endmodule
    """
    saturating = counter.replace(
        "count <= count + 4'd1;",
        "count <= (count == 4'd15) ? 4'd15 : (count + 4'd1);",
    )
    print("\n== Bounded sequential equivalence (unrolled from reset) ==")
    shallow = prove_sequential_equivalence(saturating, counter, steps=8)
    print(f"wrap-vs-saturate @ 8 steps:  equivalent={shallow.equivalent}")
    deep = prove_sequential_equivalence(saturating, counter, steps=16)
    print(f"wrap-vs-saturate @ 16 steps: equivalent={deep.equivalent}")
    if not deep.equivalent:
        enables = sum(step.get("en", 0) for step in deep.counterexample.steps)
        print(
            f"divergence needs {enables} enabled cycles "
            f"(found automatically by the SAT search)"
        )


if __name__ == "__main__":
    main()
