"""Cross-engine agreement: SAT miters vs bit-table sweeps vs batched simulation.

The property under test: for random ``BoolExpr`` pairs rendered to Verilog
(through :mod:`repro.logic.synth` and a :class:`repro.verilog.writer`
round-trip), all three equivalence engines must return the same verdict —

* the **SAT miter** (:func:`prove_combinational_equivalence`),
* the **bit-parallel truth table** (:meth:`BitTable.equivalent`),
* the **batched simulation sweep** (the DUT scored against the reference's
  recorded outputs, :func:`scoring.design_mismatches`, exhaustive at these
  widths),

and every SAT counterexample must reproduce as a *real* mismatch on the
batched simulator (the differential-oracle requirement of the formal layer).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.formal import prove_combinational_equivalence, prove_expr_equivalence
from repro.logic.bittable import BitTable
from repro.logic.expr import RandomExpressionGenerator
from repro.logic.synth import STYLES, SynthesisRequest, expression_to_module
from repro.verilog.parser import parse_source
from repro.verilog.writer import write_source
from scoring import design_mismatches

VARIABLES = ["a", "b", "c", "d"]


def render(expression, style: str) -> str:
    """BoolExpr → Verilog source → AST → writer round-trip."""
    source = expression_to_module(
        expression, SynthesisRequest(module_name="dut", style=style)
    )
    return write_source(parse_source(source))


def generate_full_support(generator: RandomExpressionGenerator, max_depth: int):
    """A random expression *functionally* depending on every variable.

    Keeps both rendered modules on the same port list (so the batched sweep can
    drive identical stimulus into DUT and reference) even after QM
    minimisation, which drops functionally irrelevant variables.
    """
    from repro.logic.minimize import minimize_expression

    while True:
        candidate = generator.generate_nontrivial(VARIABLES, max_depth=max_depth)
        if candidate.variables() != VARIABLES:
            continue
        minimised = minimize_expression(candidate)
        if minimised.variables() == VARIABLES:
            return candidate, minimised


def exhaustive_vectors(names):
    return [
        dict(zip(names, bits)) for bits in itertools.product((0, 1), repeat=len(names))
    ]


class TestCrossEngineAgreement:
    @pytest.mark.formal
    def test_three_engines_agree_on_random_pairs(self):
        generator = RandomExpressionGenerator(seed=23)
        rng = random.Random(23)
        verdicts = {True: 0, False: 0}
        for trial in range(30):
            left, minimised = generate_full_support(generator, max_depth=4)
            if trial % 2 == 0:
                # Equivalent-by-construction pair: the minimised cover of
                # ``left`` is a structurally different, equal function.
                right = minimised
            else:
                right, _ = generate_full_support(generator, max_depth=4)
            style_left = rng.choice(STYLES)
            style_right = rng.choice(STYLES)
            dut = render(left, style_left)
            reference = render(right, style_right)

            table_verdict = BitTable.from_expr(left, variables=VARIABLES).equivalent(
                BitTable.from_expr(right, variables=VARIABLES)
            )
            sat_result = prove_combinational_equivalence(dut, reference)
            sweep = design_mismatches(dut, reference, exhaustive_vectors(VARIABLES))
            context = (trial, style_left, style_right, left.to_verilog(), right.to_verilog())
            assert sat_result.equivalent == table_verdict, context
            assert (not sweep) == table_verdict, context
            verdicts[table_verdict] += 1

            if not sat_result.equivalent:
                # The SAT counterexample must be a real mismatch on the batched
                # simulator (not just a formal-model artefact).
                counterexample = sat_result.counterexample
                replayed = design_mismatches(dut, reference, [counterexample.inputs])
                assert replayed, context
                assert all(mismatch.inputs == counterexample.inputs for mismatch in replayed)
                # And the sweep must list the very same assignment among its
                # mismatching lanes.
                mismatching_assignments = [mismatch.inputs for mismatch in sweep]
                assert counterexample.inputs in mismatching_assignments, context
        # The random sample must exercise both verdicts to mean anything.
        assert verdicts[True] > 0 and verdicts[False] > 0, verdicts

    @pytest.mark.formal
    def test_expr_and_verilog_miters_agree(self):
        generator = RandomExpressionGenerator(seed=31)
        for trial in range(15):
            left, _ = generate_full_support(generator, max_depth=3)
            right, _ = generate_full_support(generator, max_depth=3)
            expr_verdict = prove_expr_equivalence(left, right).equivalent
            verilog_verdict = prove_combinational_equivalence(
                render(left, "assign"), render(right, "assign")
            ).equivalent
            assert expr_verdict == verilog_verdict, (trial, left, right)

    def test_equivalent_to_auto_matches_sat(self):
        generator = RandomExpressionGenerator(seed=37)
        for _ in range(20):
            left = generator.generate(VARIABLES, max_depth=4)
            right = generator.generate(VARIABLES, max_depth=4)
            assert left.equivalent_to(right) == left.equivalent_to(right, method="sat")
