"""Tests for the taxonomy-keyed corruption injector."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.core.llm.corruption import CorruptionInjector, remove_span_keeping_structure
from repro.core.taxonomy import HallucinationSubtype
from repro.experiments import ExperimentScale, build_suites
from repro.verilog.design import DesignDatabase, set_default_database
from repro.verilog.syntax_checker import SyntaxChecker, compiles
from repro.verilog.simulator.testbench import CombinationalGolden, ResetSpec, run_functional_check
from repro.symbolic.state_diagram import parse_state_diagram

AND_MODULE = "module g(input a, input b, output y);\n    assign y = a & b;\nendmodule\n"

SD_TEXT = """A[out=0]--[x=0]->B
A[out=0]--[x=1]->A
B[out=1]--[x=0]->A
B[out=1]--[x=1]->B"""


@pytest.fixture
def injector() -> CorruptionInjector:
    return CorruptionInjector(random.Random(1))


class TestIndividualCorruptions:
    def test_every_subtype_changes_the_code(self, fsm_source, injector):
        for subtype in HallucinationSubtype:
            outcome = CorruptionInjector(random.Random(3)).inject(fsm_source, subtype)
            assert outcome.applied, subtype
            assert outcome.code != fsm_source
            assert outcome.record.subtype is subtype

    def test_syntax_corruption_breaks_compilation(self, counter_source):
        for seed in range(5):
            outcome = CorruptionInjector(random.Random(seed)).inject(
                counter_source, HallucinationSubtype.VERILOG_SYNTAX_MISAPPLICATION
            )
            assert outcome.applied
            assert not compiles(outcome.code)

    def test_operator_flip_still_compiles_but_fails(self, injector):
        outcome = injector.inject(AND_MODULE, HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION)
        assert outcome.applied
        assert compiles(outcome.code)
        golden = CombinationalGolden(lambda ins: {"y": ins["a"] & ins["b"]})
        stimulus = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        assert not run_functional_check(outcome.code, golden, stimulus).passed

    def test_state_swap_breaks_fsm_behaviour(self):
        diagram = parse_state_diagram(SD_TEXT)
        reference = diagram.to_verilog(module_name="fsm_ref")
        outcome = CorruptionInjector(random.Random(0)).inject(
            reference, HallucinationSubtype.STATE_DIAGRAM_MISINTERPRETATION
        )
        assert outcome.applied
        assert compiles(outcome.code)
        stimulus = [{"x": bit, "rst": 0} for bit in [0, 1, 1, 0, 0, 1, 0]]
        result = run_functional_check(
            outcome.code, diagram.to_golden_model(), stimulus, reset=ResetSpec(signal="rst")
        )
        assert not result.passed

    def test_attribute_flip_inverts_reset_polarity(self, counter_source, injector):
        outcome = injector.inject(
            counter_source, HallucinationSubtype.VERILOG_ATTRIBUTE_MISUNDERSTANDING
        )
        assert outcome.applied
        assert "if (!rst)" in outcome.code
        assert compiles(outcome.code)

    def test_drop_default_removes_arm(self, fsm_source, injector):
        outcome = injector.inject(fsm_source, HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING)
        assert outcome.applied
        assert outcome.code.count("default") < fsm_source.count("default")
        assert compiles(outcome.code)

    def test_fsm_convention_break_freezes_state(self, fsm_source, injector):
        outcome = injector.inject(fsm_source, HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION)
        assert outcome.applied
        assert "state <= state;" in outcome.code or "state =" in outcome.code
        assert compiles(outcome.code)

    def test_condition_corruption_swaps_logical_operator(self, injector):
        source = (
            "module m(input a, input b, output reg y);\n"
            "    always @(*) begin\n"
            "        if (a == 1'b1 && b == 1'b0) y = 1'b1;\n"
            "        else y = 1'b0;\n"
            "    end\n"
            "endmodule\n"
        )
        outcome = injector.inject(source, HallucinationSubtype.INSTRUCTIONAL_LOGIC_FAILURE)
        assert outcome.applied
        assert "||" in outcome.code
        assert compiles(outcome.code)

    def test_fallback_on_inapplicable_corruption(self, injector):
        # A pure-assign module has no default arm; the injector falls back to a
        # different defect rather than silently returning the original code.
        outcome = injector.inject(AND_MODULE, HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING)
        assert outcome.applied
        assert outcome.code != AND_MODULE

    def test_deterministic_for_seeded_rng(self, fsm_source):
        first = CorruptionInjector(random.Random(7)).inject(
            fsm_source, HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION
        )
        second = CorruptionInjector(random.Random(7)).inject(
            fsm_source, HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION
        )
        assert first.code == second.code


class TestCorruptionVsDetector:
    def test_injected_defects_are_classified_in_same_family(self, fsm_source):
        """Corruptions injected for a sub-type are recognised by the detector as
        hallucinations (usually of the same top-level type)."""
        from repro.core.hallucination_detector import HallucinationDetector
        from repro.core.taxonomy import type_of

        detector = HallucinationDetector()
        prompt = "Implement this FSM with the conventional structure.\n" + SD_TEXT
        agreements = 0
        checked = 0
        for subtype in (
            HallucinationSubtype.VERILOG_SYNTAX_MISAPPLICATION,
            HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING,
            HallucinationSubtype.STATE_DIAGRAM_MISINTERPRETATION,
        ):
            outcome = CorruptionInjector(random.Random(2)).inject(fsm_source, subtype)
            if not outcome.applied:
                continue
            checked += 1
            report = detector.classify(prompt, outcome.code, functional_passed=False)
            if report.primary is not None and type_of(report.primary.subtype) is type_of(subtype):
                agreements += 1
        assert checked >= 2
        assert agreements >= checked - 1


#: sha256 of ``inject(reference, subtype)`` (code, applied flag and record) for
#: every tiny-scale reference of the five suites × every sub-type, each on a
#: fresh ``random.Random(0)``; recorded before the corruption injector's
#: structure check moved onto the shared parse tier.
TINY_INJECTION_DIGEST = "03808f126f7e38b96704f6f91306c86225dd38da021ec0c194e8e433c005a6ab"


class TestParseOnce:
    def test_injection_output_is_pinned(self):
        scale = ExperimentScale.tiny()
        suites = dict(build_suites(scale))
        suites["symbolic"] = build_symbolic_suite(
            SuiteConfig(num_tasks=scale.human_tasks, seed=scale.seed + 11)
        )
        rows = []
        for name, suite in suites.items():
            for task in suite.tasks:
                for subtype in HallucinationSubtype:
                    outcome = CorruptionInjector(random.Random(0)).inject(task.reference_source, subtype)
                    record = outcome.record
                    rows.append(
                        [name, task.task_id, subtype.value, outcome.code, outcome.applied,
                         record.subtype.value, record.description, record.evidence]
                    )
        assert len(rows) == 24 * len(HallucinationSubtype)
        digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == TINY_INJECTION_DIGEST

    def _remove(self, source: str, pattern: str) -> str | None:
        match = re.search(pattern, source)
        assert match is not None
        return remove_span_keeping_structure(source, match)

    def test_span_removal_keeps_a_parsable_candidate(self, fsm_source):
        candidate = self._remove(fsm_source, r"default\s*:.*")
        assert candidate is not None and "default" not in candidate
        assert compiles(candidate)

    def test_span_removal_that_breaks_the_parse_returns_none(self):
        assert self._remove(AND_MODULE, r"endmodule") is None

    def test_span_removal_that_leaves_no_module_returns_none(self):
        source = "// only a comment survives\n" + AND_MODULE
        assert self._remove(source, r"module[\s\S]*endmodule") is None

    def test_span_removal_of_an_unclosed_begin_returns_none(self):
        assert self._remove(AND_MODULE + "// begin\n", r"// begin") is None

    def test_structure_check_rides_the_shared_parse_tier(self, fsm_source):
        """The syntax checker reuses the parse the structure check made."""
        database = DesignDatabase()
        previous = set_default_database(database)
        try:
            candidate = self._remove(fsm_source, r"default\s*:.*")
            assert SyntaxChecker().check(candidate).ok
        finally:
            set_default_database(previous)
        assert database.stats.parse_hits == 1
