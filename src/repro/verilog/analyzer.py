"""Topic and attribute analysis of Verilog modules.

This module stands in for ``slang`` in step 6 of the K-dataset generation flow
(Fig. 2 of the paper): given a Verilog module it identifies *topics* (the class of
hardware the module implements — FSM, counter, shift register, ALU, clock divider,
multiplexer, …) and *attributes* (Verilog-specific design features — synchronous vs
asynchronous reset, clock edge, enable polarity, combinational vs sequential).

Topics and attributes are matched against the curated exemplar library
(:mod:`repro.core.exemplars`) to decide which exemplar should guide the rewriting
of a vanilla instruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import ast_nodes as ast
from .design import get_default_database


class Topic(enum.Enum):
    """Hardware design topic detected in a module."""

    FSM = "fsm"
    COUNTER = "counter"
    SHIFT_REGISTER = "shift_register"
    ALU = "alu"
    CLOCK_DIVIDER = "clock_divider"
    MULTIPLEXER = "multiplexer"
    DECODER = "decoder"
    ENCODER = "encoder"
    ADDER = "adder"
    COMPARATOR = "comparator"
    REGISTER = "register"
    MEMORY = "memory"
    COMBINATIONAL = "combinational"


class Attribute(enum.Enum):
    """Verilog-specific design attribute detected in a module."""

    SYNC_RESET = "sync_reset"
    ASYNC_RESET = "async_reset"
    POSEDGE_CLOCK = "posedge_clock"
    NEGEDGE_CLOCK = "negedge_clock"
    ACTIVE_HIGH_ENABLE = "active_high_enable"
    ACTIVE_LOW_ENABLE = "active_low_enable"
    SEQUENTIAL = "sequential"
    COMBINATIONAL_ONLY = "combinational_only"
    PARAMETERIZED = "parameterized"


_CLOCK_NAMES = {"clk", "clock", "clk_in", "sysclk", "clk_i"}
_RESET_NAMES = {"rst", "reset", "rst_n", "reset_n", "arst", "arst_n", "nrst", "resetn", "rst_i"}
_ENABLE_NAMES = {"en", "enable", "ce", "en_i", "wen", "ren", "load_en"}

_TOPIC_NAME_HINTS: dict[Topic, tuple[str, ...]] = {
    Topic.FSM: ("fsm", "state_machine", "statemachine", "moore", "mealy", "sequencer"),
    Topic.COUNTER: ("counter", "count", "cnt"),
    Topic.SHIFT_REGISTER: ("shift", "shifter", "sipo", "piso", "lfsr"),
    Topic.ALU: ("alu", "arith_logic"),
    Topic.CLOCK_DIVIDER: ("clk_div", "clock_div", "divider", "clkdiv", "prescaler"),
    Topic.MULTIPLEXER: ("mux", "multiplexer", "selector"),
    Topic.DECODER: ("decoder", "decode", "demux"),
    Topic.ENCODER: ("encoder", "encode", "priority_enc"),
    Topic.ADDER: ("adder", "add", "sum", "subtractor"),
    Topic.COMPARATOR: ("comparator", "compare", "cmp"),
    Topic.REGISTER: ("register", "regfile", "dff", "flipflop", "flip_flop", "latch"),
    Topic.MEMORY: ("memory", "ram", "rom", "fifo"),
}


@dataclass
class AnalysisResult:
    """Topics and attributes extracted from a module."""

    module_name: str
    topics: set[Topic] = field(default_factory=set)
    attributes: set[Attribute] = field(default_factory=set)
    state_signals: list[str] = field(default_factory=list)
    clock_signals: list[str] = field(default_factory=list)
    reset_signals: list[str] = field(default_factory=list)
    enable_signals: list[str] = field(default_factory=list)

    @property
    def primary_topic(self) -> Topic:
        """The most specific detected topic, falling back to combinational logic."""
        priority = [
            Topic.FSM,
            Topic.ALU,
            Topic.SHIFT_REGISTER,
            Topic.CLOCK_DIVIDER,
            Topic.COUNTER,
            Topic.MEMORY,
            Topic.REGISTER,
            Topic.MULTIPLEXER,
            Topic.DECODER,
            Topic.ENCODER,
            Topic.ADDER,
            Topic.COMPARATOR,
            Topic.COMBINATIONAL,
        ]
        for topic in priority:
            if topic in self.topics:
                return topic
        return Topic.COMBINATIONAL

    def has_identifiable_topic(self) -> bool:
        """Whether a topic other than generic combinational logic was detected."""
        return bool(self.topics - {Topic.COMBINATIONAL})


class ModuleAnalyzer:
    """Analyze a parsed module for topics and attributes."""

    def analyze(self, module: ast.Module) -> AnalysisResult:
        """Analyze a module AST and return the detected topics and attributes."""
        result = AnalysisResult(module_name=module.name)
        names = self._gather_identifier_names(module)
        lowered_names = {name.lower() for name in names}
        lowered_module = module.name.lower()

        self._detect_clock_reset_enable(module, result)
        self._detect_structural_attributes(module, result)
        self._detect_topics_by_name(lowered_module, lowered_names, result)
        self._detect_topics_by_structure(module, result)
        if not result.topics:
            result.topics.add(Topic.COMBINATIONAL)
        return result

    def analyze_source(self, source: str, name: str | None = None) -> AnalysisResult:
        """Parse ``source`` and analyze the selected (or first) module.

        The parse goes through the default design database's shared parse tier.
        """
        return self.analyze(get_default_database().parse_module(source, name))

    # ------------------------------------------------------------------ helpers
    def _gather_identifier_names(self, module: ast.Module) -> set[str]:
        names: set[str] = set(module.port_names())
        for item in module.items:
            if isinstance(item, ast.NetDeclaration):
                names.update(item.names)
            elif isinstance(item, ast.ParameterDeclaration):
                names.update(item.names.keys())
        names.update(module.parameters.keys())
        return names

    def _detect_clock_reset_enable(self, module: ast.Module, result: AnalysisResult) -> None:
        for port in module.ports:
            lowered = port.name.lower()
            if lowered in _CLOCK_NAMES or lowered.startswith("clk"):
                result.clock_signals.append(port.name)
            elif lowered in _RESET_NAMES or "rst" in lowered or "reset" in lowered:
                result.reset_signals.append(port.name)
            elif lowered in _ENABLE_NAMES or lowered.endswith("_en") or lowered.startswith("en_"):
                result.enable_signals.append(port.name)

    def _detect_structural_attributes(self, module: ast.Module, result: AnalysisResult) -> None:
        has_sequential = False
        reset_in_sensitivity = False
        for item in module.items:
            if not isinstance(item, ast.AlwaysBlock):
                continue
            for entry in item.sensitivity:
                if entry.edge is ast.EdgeKind.POSEDGE:
                    name = _signal_name(entry.signal)
                    if name is not None and name in result.clock_signals:
                        result.attributes.add(Attribute.POSEDGE_CLOCK)
                        has_sequential = True
                    elif name is not None and (name in result.reset_signals):
                        reset_in_sensitivity = True
                elif entry.edge is ast.EdgeKind.NEGEDGE:
                    name = _signal_name(entry.signal)
                    if name is not None and name in result.clock_signals:
                        result.attributes.add(Attribute.NEGEDGE_CLOCK)
                        has_sequential = True
                    elif name is not None and name in result.reset_signals:
                        reset_in_sensitivity = True
        if has_sequential:
            result.attributes.add(Attribute.SEQUENTIAL)
            if result.reset_signals:
                if reset_in_sensitivity:
                    result.attributes.add(Attribute.ASYNC_RESET)
                else:
                    result.attributes.add(Attribute.SYNC_RESET)
        else:
            result.attributes.add(Attribute.COMBINATIONAL_ONLY)
        if result.enable_signals:
            active_low = any(name.lower().endswith("_n") or name.lower().startswith("n") for name in result.enable_signals)
            result.attributes.add(
                Attribute.ACTIVE_LOW_ENABLE if active_low else Attribute.ACTIVE_HIGH_ENABLE
            )
        if module.parameters:
            result.attributes.add(Attribute.PARAMETERIZED)

    def _detect_topics_by_name(
        self, module_name: str, identifier_names: set[str], result: AnalysisResult
    ) -> None:
        searchable = {module_name} | identifier_names
        for topic, hints in _TOPIC_NAME_HINTS.items():
            for hint in hints:
                if any(hint in name for name in searchable):
                    result.topics.add(topic)
                    break

    def _detect_topics_by_structure(self, module: ast.Module, result: AnalysisResult) -> None:
        state_like = [
            name
            for name in self._gather_identifier_names(module)
            if "state" in name.lower() or name.lower() in {"ps", "ns", "cs"}
        ]
        result.state_signals = sorted(state_like)
        has_case = _contains_case(module)
        if state_like and has_case:
            result.topics.add(Topic.FSM)
        if self._looks_like_counter(module):
            result.topics.add(Topic.COUNTER)
        if self._looks_like_shift_register(module):
            result.topics.add(Topic.SHIFT_REGISTER)
        if has_case and not state_like and len(module.ports) >= 3:
            # A case over an opcode-like input with arithmetic in the arms is ALU-like.
            if _case_contains_arithmetic(module):
                result.topics.add(Topic.ALU)

    def _looks_like_counter(self, module: ast.Module) -> bool:
        for item in module.items:
            if not isinstance(item, ast.AlwaysBlock):
                continue
            if not any(entry.edge in (ast.EdgeKind.POSEDGE, ast.EdgeKind.NEGEDGE) for entry in item.sensitivity):
                continue
            for assign in _iter_assignments(item.body):
                target = _signal_name(assign.target)
                value = assign.value
                if (
                    target is not None
                    and isinstance(value, ast.BinaryOp)
                    and value.op in ("+", "-")
                    and isinstance(value.left, ast.Identifier)
                    and value.left.name == target
                    and isinstance(value.right, ast.Number)
                ):
                    return True
        return False

    def _looks_like_shift_register(self, module: ast.Module) -> bool:
        for item in module.items:
            if not isinstance(item, ast.AlwaysBlock):
                continue
            for assign in _iter_assignments(item.body):
                target = _signal_name(assign.target)
                value = assign.value
                if target is None:
                    continue
                if isinstance(value, ast.Concat) and any(
                    isinstance(part, ast.PartSelect) and _signal_name(part.target) == target
                    for part in value.parts
                ):
                    return True
                if (
                    isinstance(value, ast.BinaryOp)
                    and value.op in ("<<", ">>", "<<<", ">>>")
                    and isinstance(value.left, ast.Identifier)
                    and value.left.name == target
                ):
                    return True
        return False


def _signal_name(expression: ast.Expression | None) -> str | None:
    if isinstance(expression, ast.Identifier):
        return expression.name
    if isinstance(expression, (ast.BitSelect, ast.PartSelect)):
        return _signal_name(expression.target)
    return None


def _iter_assignments(statement: ast.Statement | None):
    """Yield every blocking/non-blocking assignment below ``statement``."""
    if statement is None:
        return
    if isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
        yield statement
    elif isinstance(statement, ast.Block):
        for inner in statement.statements:
            yield from _iter_assignments(inner)
    elif isinstance(statement, ast.IfStatement):
        yield from _iter_assignments(statement.then_branch)
        yield from _iter_assignments(statement.else_branch)
    elif isinstance(statement, ast.CaseStatement):
        for item in statement.items:
            yield from _iter_assignments(item.body)
    elif isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
        yield from _iter_assignments(statement.body)
    elif isinstance(statement, (ast.DelayStatement, ast.EventWait)):
        yield from _iter_assignments(statement.body)


def _contains_case(module: ast.Module) -> bool:
    def statement_has_case(statement: ast.Statement | None) -> bool:
        if statement is None:
            return False
        if isinstance(statement, ast.CaseStatement):
            return True
        if isinstance(statement, ast.Block):
            return any(statement_has_case(inner) for inner in statement.statements)
        if isinstance(statement, ast.IfStatement):
            return statement_has_case(statement.then_branch) or statement_has_case(statement.else_branch)
        if isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop, ast.DelayStatement, ast.EventWait)):
            return statement_has_case(statement.body)
        return False

    for item in module.items:
        if isinstance(item, (ast.AlwaysBlock, ast.InitialBlock)) and statement_has_case(item.body):
            return True
    return False


def _case_contains_arithmetic(module: ast.Module) -> bool:
    arithmetic_ops = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"}

    def check_statement(statement: ast.Statement | None) -> bool:
        if statement is None:
            return False
        if isinstance(statement, ast.CaseStatement):
            count = 0
            for item in statement.items:
                for assign in _iter_assignments(item.body):
                    if isinstance(assign.value, ast.BinaryOp) and assign.value.op in arithmetic_ops:
                        count += 1
            return count >= 2
        if isinstance(statement, ast.Block):
            return any(check_statement(inner) for inner in statement.statements)
        if isinstance(statement, ast.IfStatement):
            return check_statement(statement.then_branch) or check_statement(statement.else_branch)
        return False

    for item in module.items:
        if isinstance(item, (ast.AlwaysBlock, ast.InitialBlock)) and check_statement(item.body):
            return True
    return False


def analyze_source(source: str, name: str | None = None) -> AnalysisResult:
    """Analyze the first (or named) module in ``source``."""
    return ModuleAnalyzer().analyze_source(source, name)


def analyze_module(module: ast.Module) -> AnalysisResult:
    """Analyze an already-parsed module."""
    return ModuleAnalyzer().analyze(module)
