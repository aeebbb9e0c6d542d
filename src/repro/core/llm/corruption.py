"""Taxonomy-keyed code corruption (the behavioural model of hallucinations).

When the behavioural CodeGen backend decides that a generation fails along a
taxonomy axis, it does not simply mark the sample as failed: it *produces code
containing the corresponding defect*, exactly as Table II describes them (swapped
FSM states, ``|`` instead of ``&``, missing ``default`` arm, synchronous reset
where an asynchronous one was requested, ``def`` instead of ``module``...).  The
benchmark evaluator then compiles and simulates that code, so pass/fail is decided
mechanistically by the toolchain rather than asserted.

All corruptions operate on source text and are deterministic given the random
generator handed in by the caller.  Everything a corruption needs that no
random draw changes is kept per reference source in a :class:`CorruptionTable`:
each handler's candidate sites (operators, literals, ``if`` conditions, state
pairs, the four syntax breaks) with the corrupted text each site yields, built
on first pick, and the fixed results of the draw-free handlers (dropping a
``default`` arm, collapsing FSM next-state logic, flipping an attribute).  A
sample then costs only its draws: the ``choice``/``sample`` calls consume the
generator exactly as a scan of the source would.  :func:`corruption_table`
keeps the tables of the most recently corrupted sources in a bounded LRU, so a
long-lived worker does not grow without limit.

Where a corruption must still parse, the check goes through the shared parse
tier of :class:`~repro.verilog.design.DesignDatabase`, so a candidate the
syntax checker later scores is lexed and parsed once.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass

from ...verilog.design import get_default_database
from ...verilog.errors import VerilogError
from ..taxonomy import HallucinationRecord, HallucinationSubtype

#: Reference sources whose corruption tables one process keeps.
TABLE_CACHE_ENTRIES = 512

#: (pattern, substitute) of every operator flip (Table II rows 2, 3 and 7).
#: Patterns stay strings: ``re`` compiles each on first use, not at import.
_OPERATOR_FLIPS = (
    (r"&&", "||"),
    (r"\|\|", "&&"),
    (r"(?<![&|^~<>=!])&(?![&=])", "|"),
    (r"(?<![&|^~<>=!])\|(?![|=])", "&"),
    (r"\^", "|"),
    (r"(?<![+<>])\+(?![+:])", "&"),
    (r"==", "!="),
)
_LITERAL = r"1'b([01])"
_STATE_NAME = r"localparam\s+(\w+)\s*="
_IF_CONDITION = r"if\s*\(([^()]*)\)"
_STATE_FROM_NEXT = r"state\s*<=\s*next_state\s*;"
_RESET_CONDITION = r"if\s*\(\s*(!?)\s*(\w*(?:rst|reset)\w*)\s*\)"
_ASYNC_RESET = r"always\s*@\s*\(\s*(pos|neg)edge\s+\w+\s+or\s+(pos|neg)edge\s+(\w+)\s*\)"
_SENSITIVITY_TAIL = r"\s+or\s+(pos|neg)edge\s+\w+"
_ENABLE_CONDITION = r"if\s*\(\s*(!?)\s*(en\w*|\w*enable\w*)\s*\)"
_DEFAULT_ARM = r"^\s*default\s*:.*?$(\n\s*.*?;\s*$)?"
_FINAL_ELSE = r"^\s*else\b(?!\s+if).*?$(\n\s*.*?;\s*$)?"

#: The syntax breaks ``break_syntax`` picks from, in pick order: (first
#: occurrence replaced, replacement).  ``def`` instead of ``module``, a missing
#: semicolon, a missing ``endmodule``, a missing parenthesis.
_SYNTAX_BREAKS = (("module", "def"), (";", ""), ("endmodule", "end"), ("(", ""))

#: The record description of an applied defect, by sub-type.
_DESCRIPTIONS = {subtype: f"injected {subtype.value} defect" for subtype in HallucinationSubtype}


@dataclass
class CorruptionOutcome:
    """The result of applying a corruption to a source snippet."""

    code: str
    record: HallucinationRecord
    applied: bool = True


class _Sites:
    """A handler's candidate edits of one source, picked by one ``rng.choice``.

    ``edits`` holds ``(start, end, replacement)`` spans in scan order (``None``
    for a pick that yields no corruption); the corrupted text of an edit is
    built the first time it is picked.
    """

    __slots__ = ("source", "edits", "texts", "_indices")

    def __init__(self, source: str, edits: list[tuple[int, int, str] | None]):
        self.source = source
        self.edits = edits
        self.texts: list[str | None] = [None] * len(edits)
        # ``choice`` consumes the generator by the sequence's length alone.
        self._indices = range(len(edits))

    def pick(self, rng: random.Random) -> str | None:
        if not self.edits:
            return None
        index = rng.choice(self._indices)
        text = self.texts[index]
        if text is None:
            edit = self.edits[index]
            if edit is None:
                return None
            start, end, replacement = edit
            text = self.texts[index] = self.source[:start] + replacement + self.source[end:]
        return text


class CorruptionTable:
    """Every draw-independent part of corrupting one reference source.

    Each handler takes the caller's generator and consumes it exactly as a
    fresh scan of the source would; what the scan finds is computed on first
    use and kept.  Obtain tables through :func:`corruption_table`.
    """

    def __init__(self, source: str):
        self.source = source
        #: ``(first, second)`` state pair → the swapped source, or ``None``
        #: when no next-state assignment names either state.
        self._state_swaps: dict[tuple[str, str], str | None] = {}

    def inject(self, subtype: HallucinationSubtype, rng: random.Random) -> CorruptionOutcome:
        """Inject a defect of the given sub-type, falling back to related defects.

        The fallback chain guarantees the returned code differs from the input so
        that an intended failure rarely slips through as a silent pass.
        """
        corrupted = _HANDLERS[subtype](self, rng)
        if corrupted is None:
            # Fall back to progressively more generic corruptions.
            corrupted = self.flip_operator(rng)
            if corrupted is None:
                corrupted = self.flip_literal(rng)
            if corrupted is None:
                corrupted = self.break_syntax(rng)
        if corrupted is None or corrupted == self.source:
            return CorruptionOutcome(
                code=self.source,
                record=HallucinationRecord(subtype=subtype, description="corruption not applicable"),
                applied=False,
            )
        return CorruptionOutcome(
            code=corrupted,
            record=HallucinationRecord(subtype=subtype, description=_DESCRIPTIONS[subtype]),
        )

    # ------------------------------------------------------------------ symbolic
    @functools.cached_property
    def _state_names(self) -> list[str]:
        return re.findall(_STATE_NAME, self.source)

    def swap_states(self, rng: random.Random) -> str | None:
        """Swap two state constants in next-state assignments (Table II, row 1)."""
        if len(self._state_names) < 2:
            return self.flip_operator(rng)
        pair = tuple(rng.sample(self._state_names, 2))
        if pair not in self._state_swaps:
            self._state_swaps[pair] = _swap_state_pair(self.source, *pair)
        swapped = self._state_swaps[pair]
        return swapped if swapped is not None else self.flip_operator(rng)

    @functools.cached_property
    def _operators(self) -> _Sites:
        source = self.source
        edits = []
        for pattern, substitute in _OPERATOR_FLIPS:
            for match in re.finditer(pattern, source):
                # Only corrupt occurrences on assignment right-hand sides or in
                # conditions, i.e. after '=' or '(' on the same line.
                line_start = source.rfind("\n", 0, match.start()) + 1
                line = source[line_start : match.start()]
                if "=" in line or "(" in line or "assign" in line:
                    edits.append((match.start(), match.end(), substitute))
        return _Sites(source, edits)

    def flip_operator(self, rng: random.Random) -> str | None:
        """Replace one logical/arithmetic operator with a wrong one (rows 2, 3, 7)."""
        return self._operators.pick(rng)

    @functools.cached_property
    def _literals(self) -> _Sites:
        return _Sites(
            self.source,
            [
                (match.start(), match.end(), "1'b1" if match.group(1) == "0" else "1'b0")
                for match in re.finditer(_LITERAL, self.source)
            ],
        )

    def flip_literal(self, rng: random.Random) -> str | None:
        """Flip a single-bit literal 1'b0 <-> 1'b1."""
        return self._literals.pick(rng)

    # ------------------------------------------------------------------ knowledge
    @functools.cached_property
    def _fsm_convention_break(self) -> str | None:
        # Assigning state directly from the state register freezes the FSM, which is
        # the functional symptom of missing next-state logic.
        source = self.source
        corrupted = re.sub(_STATE_FROM_NEXT, "state <= state;", source, count=1)
        if corrupted == source:
            corrupted = source.replace("next_state =", "state =", 1)
        return corrupted if corrupted != source else None

    def break_fsm_convention(self, rng: random.Random) -> str | None:
        """Collapse next-state logic into the state register (Table II, row 4)."""
        if "next_state" not in self.source:
            return self.flip_operator(rng)
        return self._fsm_convention_break

    @functools.cached_property
    def _syntax_breaks(self) -> _Sites:
        # ``def`` for the first ``module``, drop the first ';', ``end`` for the
        # first ``endmodule``, drop the first '('.  A break that does not
        # apply falls through to dropping the first '('.
        edits: list[tuple[int, int, str] | None] = []
        for target, replacement in _SYNTAX_BREAKS:
            index = self.source.find(target)
            if index == -1:
                index, target, replacement = self.source.find("("), "(", ""
            edits.append((index, index + len(target), replacement) if index != -1 else None)
        return _Sites(self.source, edits)

    def break_syntax(self, rng: random.Random) -> str | None:
        """Introduce a syntax error (Table II, row 5)."""
        return self._syntax_breaks.pick(rng)

    @functools.cached_property
    def _attribute_flip(self) -> str | None:
        # Preference order: invert the reset polarity (always functionally
        # visible), then turn an asynchronous reset into a synchronous one,
        # then invert an enable polarity.
        source = self.source
        match = re.search(_RESET_CONDITION, source, re.IGNORECASE)
        if match:
            bang, name = match.group(1), match.group(2)
            replacement = f"if ({name})" if bang else f"if (!{name})"
            return source[: match.start()] + replacement + source[match.end() :]
        # Demote an asynchronous reset to synchronous by dropping it from the list.
        match = re.search(_ASYNC_RESET, source)
        if match:
            kept = re.sub(_SENSITIVITY_TAIL, "", match.group(0))
            return source[: match.start()] + kept + source[match.end() :]
        match = re.search(_ENABLE_CONDITION, source, re.IGNORECASE)
        if match:
            bang, name = match.group(1), match.group(2)
            replacement = f"if ({name})" if bang else f"if (!{name})"
            return source[: match.start()] + replacement + source[match.end() :]
        return None

    def flip_attribute(self, rng: random.Random) -> str | None:
        """Misunderstand a Verilog-specific attribute (Table II, row 6)."""
        return self._attribute_flip

    # ------------------------------------------------------------------ logical
    @functools.cached_property
    def _default_dropped(self) -> str | None:
        match = re.search(_DEFAULT_ARM, self.source, re.MULTILINE)
        if match is None:
            # No case default; drop a final else branch instead.
            match = re.search(_FINAL_ELSE, self.source, re.MULTILINE)
            if match is None:
                return None
        return remove_span_keeping_structure(self.source, match)

    def drop_default(self, rng: random.Random) -> str | None:
        """Remove the default arm of a case statement (Table II, row 8)."""
        return self._default_dropped

    @functools.cached_property
    def _conditions(self) -> _Sites:
        edits = []
        for match in re.finditer(_IF_CONDITION, self.source):
            condition = match.group(1)
            if "&&" in condition:
                edits.append((match.start(1), match.end(1), condition.replace("&&", "||", 1)))
            elif "||" in condition:
                edits.append((match.start(1), match.end(1), condition.replace("||", "&&", 1)))
        return _Sites(self.source, edits)

    def corrupt_condition(self, rng: random.Random) -> str | None:
        """Corrupt an if-condition (Table II, row 9): && <-> || inside an if."""
        corrupted = self._conditions.pick(rng)
        return corrupted if corrupted is not None else self.flip_operator(rng)


_HANDLERS = {
    HallucinationSubtype.STATE_DIAGRAM_MISINTERPRETATION: CorruptionTable.swap_states,
    HallucinationSubtype.WAVEFORM_MISINTERPRETATION: CorruptionTable.flip_operator,
    HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION: CorruptionTable.flip_operator,
    HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION: CorruptionTable.break_fsm_convention,
    HallucinationSubtype.VERILOG_SYNTAX_MISAPPLICATION: CorruptionTable.break_syntax,
    HallucinationSubtype.VERILOG_ATTRIBUTE_MISUNDERSTANDING: CorruptionTable.flip_attribute,
    HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION: CorruptionTable.flip_operator,
    HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING: CorruptionTable.drop_default,
    HallucinationSubtype.INSTRUCTIONAL_LOGIC_FAILURE: CorruptionTable.corrupt_condition,
}


@functools.lru_cache(maxsize=TABLE_CACHE_ENTRIES)
def corruption_table(source: str) -> CorruptionTable:
    """The :class:`CorruptionTable` of ``source``, shared by this process."""
    return CorruptionTable(source)


def _swap_state_pair(source: str, first: str, second: str) -> str | None:
    """Swap ``first`` and ``second`` on the right of next-state assignments.

    The module still compiles but transitions go to the wrong state.  ``None``
    when no assignment names either state.
    """
    seen = {"count": 0}

    def replace(match: re.Match[str]) -> str:
        seen["count"] += 1
        target = match.group(2)
        swapped = second if target == first else first
        return match.group(1) + swapped

    pattern = re.compile(rf"(next_state\s*(?:<=|=)\s*)({first}|{second})\b")
    corrupted = pattern.sub(replace, source)
    if seen["count"] == 0:
        # No explicit next_state signal; swap the states in case-arm bodies.
        pattern = re.compile(rf"(state\s*<=\s*)({first}|{second})\b")
        corrupted = pattern.sub(replace, source)
    return corrupted if seen["count"] else None


def remove_span_keeping_structure(source: str, match: re.Match[str]) -> str | None:
    """``source`` without the span of ``match``, or ``None`` if it stops parsing.

    An arm that opens a ``begin`` block is removed up to the next ``end``.
    """
    snippet = match.group(0)
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


class CorruptionInjector:
    """Apply taxonomy-specific defects to correct Verilog source."""

    def __init__(self, rng: random.Random | None = None):
        self.rng = rng or random.Random(0)

    def inject(self, source: str, subtype: HallucinationSubtype) -> CorruptionOutcome:
        """Inject a defect of ``subtype`` into ``source`` (see :meth:`CorruptionTable.inject`)."""
        return corruption_table(source).inject(subtype, self.rng)
