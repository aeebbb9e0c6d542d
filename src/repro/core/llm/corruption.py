"""Taxonomy-keyed code corruption (the behavioural model of hallucinations).

When the behavioural CodeGen backend decides that a generation fails along a
taxonomy axis, it does not simply mark the sample as failed: it *produces code
containing the corresponding defect*, exactly as Table II describes them (swapped
FSM states, ``|`` instead of ``&``, missing ``default`` arm, synchronous reset
where an asynchronous one was requested, ``def`` instead of ``module``...).  The
benchmark evaluator then compiles and simulates that code, so pass/fail is decided
mechanistically by the toolchain rather than asserted.

All corruptions operate on source text and are deterministic given the random
generator handed in by the caller.  Where a corruption must still parse, the
check goes through the shared parse tier of
:class:`~repro.verilog.design.DesignDatabase`, so a candidate the syntax
checker later scores is lexed and parsed once.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from ...verilog.design import get_default_database
from ...verilog.errors import VerilogError
from ..taxonomy import HallucinationRecord, HallucinationSubtype


@dataclass
class CorruptionOutcome:
    """The result of applying a corruption to a source snippet."""

    code: str
    record: HallucinationRecord
    applied: bool = True


class CorruptionInjector:
    """Apply taxonomy-specific defects to correct Verilog source."""

    def __init__(self, rng: random.Random | None = None):
        self.rng = rng or random.Random(0)

    # ------------------------------------------------------------------ public API
    def inject(self, source: str, subtype: HallucinationSubtype) -> CorruptionOutcome:
        """Inject a defect of the given sub-type, falling back to related defects.

        The fallback chain guarantees the returned code differs from the input so
        that an intended failure rarely slips through as a silent pass.
        """
        handlers = {
            HallucinationSubtype.STATE_DIAGRAM_MISINTERPRETATION: self._swap_states,
            HallucinationSubtype.WAVEFORM_MISINTERPRETATION: self._flip_operator,
            HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION: self._flip_operator,
            HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION: self._break_fsm_convention,
            HallucinationSubtype.VERILOG_SYNTAX_MISAPPLICATION: self._break_syntax,
            HallucinationSubtype.VERILOG_ATTRIBUTE_MISUNDERSTANDING: self._flip_attribute,
            HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION: self._flip_operator,
            HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING: self._drop_default,
            HallucinationSubtype.INSTRUCTIONAL_LOGIC_FAILURE: self._corrupt_condition,
        }
        primary = handlers[subtype]
        corrupted = primary(source)
        if corrupted is None:
            # Fall back to progressively more generic corruptions.
            for fallback in (self._flip_operator, self._flip_literal, self._break_syntax):
                corrupted = fallback(source)
                if corrupted is not None:
                    break
        if corrupted is None or corrupted == source:
            return CorruptionOutcome(
                code=source,
                record=HallucinationRecord(subtype=subtype, description="corruption not applicable"),
                applied=False,
            )
        return CorruptionOutcome(
            code=corrupted,
            record=HallucinationRecord(
                subtype=subtype, description=f"injected {subtype.value} defect"
            ),
        )

    # ------------------------------------------------------------------ symbolic
    def _swap_states(self, source: str) -> str | None:
        """Swap two state constants in next-state assignments (Table II, row 1)."""
        state_names = re.findall(r"localparam\s+(\w+)\s*=", source)
        if len(state_names) < 2:
            return self._flip_operator(source)
        first, second = self.rng.sample(state_names, 2)

        # Swap the two states only on the right-hand side of next-state assignments
        # so the module still compiles but transitions go to the wrong state.
        pattern = re.compile(rf"(next_state\s*(?:<=|=)\s*)({first}|{second})\b")
        seen = {"count": 0}

        def replace(match: re.Match[str]) -> str:
            seen["count"] += 1
            target = match.group(2)
            swapped = second if target == first else first
            return match.group(1) + swapped

        corrupted = pattern.sub(replace, source)
        if seen["count"] == 0:
            # No explicit next_state signal; swap the states in case-arm bodies.
            pattern = re.compile(rf"(state\s*<=\s*)({first}|{second})\b")
            corrupted = pattern.sub(replace, source)
        return corrupted if seen["count"] else self._flip_operator(source)

    def _flip_operator(self, source: str) -> str | None:
        """Replace one logical/arithmetic operator with a wrong one (rows 2, 3, 7)."""
        replacements = [
            (r"&&", "||"),
            (r"\|\|", "&&"),
            (r"(?<![&|^~<>=!])&(?![&=])", "|"),
            (r"(?<![&|^~<>=!])\|(?![|=])", "&"),
            (r"\^", "|"),
            (r"(?<![+<>])\+(?![+:])", "&"),
            (r"==", "!="),
        ]
        candidates = []
        for pattern, substitute in replacements:
            for match in re.finditer(pattern, source):
                # Only corrupt occurrences on assignment right-hand sides or in
                # conditions, i.e. after '=' or '(' on the same line.
                line_start = source.rfind("\n", 0, match.start()) + 1
                line = source[line_start : match.start()]
                if "=" in line or "(" in line or "assign" in line:
                    candidates.append((match.start(), match.end(), substitute))
        if not candidates:
            return None
        start, end, substitute = self.rng.choice(candidates)
        return source[:start] + substitute + source[end:]

    def _flip_literal(self, source: str) -> str | None:
        """Flip a single-bit literal 1'b0 <-> 1'b1."""
        matches = list(re.finditer(r"1'b([01])", source))
        if not matches:
            return None
        match = self.rng.choice(matches)
        flipped = "1'b1" if match.group(1) == "0" else "1'b0"
        return source[: match.start()] + flipped + source[match.end() :]

    # ------------------------------------------------------------------ knowledge
    def _break_fsm_convention(self, source: str) -> str | None:
        """Collapse next-state logic into the state register (Table II, row 4)."""
        if "next_state" not in source:
            return self._flip_operator(source)
        # Assigning state directly from the state register freezes the FSM, which is
        # the functional symptom of missing next-state logic.
        corrupted = re.sub(r"state\s*<=\s*next_state\s*;", "state <= state;", source, count=1)
        if corrupted == source:
            corrupted = source.replace("next_state =", "state =", 1)
        return corrupted if corrupted != source else None

    def _break_syntax(self, source: str) -> str | None:
        """Introduce a syntax error (Table II, row 5)."""
        choice = self.rng.choice(["def", "missing_semicolon", "missing_endmodule", "missing_paren"])
        if choice == "def" and "module" in source:
            return source.replace("module", "def", 1)
        if choice == "missing_semicolon" and ";" in source:
            index = source.find(";")
            return source[:index] + source[index + 1 :]
        if choice == "missing_endmodule" and "endmodule" in source:
            return source.replace("endmodule", "end", 1)
        if "(" in source:
            index = source.find("(")
            return source[:index] + source[index + 1 :]
        return None

    def _flip_attribute(self, source: str) -> str | None:
        """Misunderstand a Verilog-specific attribute (Table II, row 6).

        Preference order: invert the reset polarity (always functionally visible),
        then turn an asynchronous reset into a synchronous one, then invert an
        enable polarity.
        """
        # Invert reset polarity: `if (rst)` <-> `if (!rst)` for reset-like names.
        match = re.search(r"if\s*\(\s*(!?)\s*(\w*(?:rst|reset)\w*)\s*\)", source, re.IGNORECASE)
        if match:
            bang, name = match.group(1), match.group(2)
            replacement = f"if ({name})" if bang else f"if (!{name})"
            return source[: match.start()] + replacement + source[match.end() :]
        # Demote an asynchronous reset to synchronous by dropping it from the list.
        match = re.search(r"always\s*@\s*\(\s*(pos|neg)edge\s+\w+\s+or\s+(pos|neg)edge\s+(\w+)\s*\)", source)
        if match:
            kept = re.sub(r"\s+or\s+(pos|neg)edge\s+\w+", "", match.group(0))
            return source[: match.start()] + kept + source[match.end() :]
        # Invert an enable polarity.
        match = re.search(r"if\s*\(\s*(!?)\s*(en\w*|\w*enable\w*)\s*\)", source, re.IGNORECASE)
        if match:
            bang, name = match.group(1), match.group(2)
            replacement = f"if ({name})" if bang else f"if (!{name})"
            return source[: match.start()] + replacement + source[match.end() :]
        return None

    # ------------------------------------------------------------------ logical
    def _drop_default(self, source: str) -> str | None:
        """Remove the default arm of a case statement (Table II, row 8)."""
        pattern = re.compile(r"^\s*default\s*:.*?$(\n\s*.*?;\s*$)?", re.MULTILINE)
        match = pattern.search(source)
        if match is None:
            # No case default; drop a final else branch instead.
            else_pattern = re.compile(r"^\s*else\b(?!\s+if).*?$(\n\s*.*?;\s*$)?", re.MULTILINE)
            match = else_pattern.search(source)
            if match is None:
                return None
            return self._remove_span_keeping_structure(source, match)
        return self._remove_span_keeping_structure(source, match)

    def _remove_span_keeping_structure(self, source: str, match: re.Match[str]) -> str | None:
        snippet = match.group(0)
        # If the arm opens a begin...end block, remove up to the matching end.
        if "begin" in snippet:
            end_index = source.find("end", match.end())
            if end_index == -1:
                return None
            candidate = source[: match.start()] + source[end_index + len("end") :]
        else:
            candidate = source[: match.start()] + source[match.end() :]
        try:
            get_default_database().parse_module(candidate)
        except VerilogError:
            return None
        return candidate

    def _corrupt_condition(self, source: str) -> str | None:
        """Corrupt an if-condition (Table II, row 9): && <-> || inside an if."""
        matches = [
            match
            for match in re.finditer(r"if\s*\(([^()]*)\)", source)
            if "&&" in match.group(1) or "||" in match.group(1)
        ]
        if matches:
            match = self.rng.choice(matches)
            condition = match.group(1)
            if "&&" in condition:
                corrupted_condition = condition.replace("&&", "||", 1)
            else:
                corrupted_condition = condition.replace("||", "&&", 1)
            return source[: match.start(1)] + corrupted_condition + source[match.end(1) :]
        return self._flip_operator(source)
