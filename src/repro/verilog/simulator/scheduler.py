"""Process model and statement execution for the Verilog simulator.

The simulator models a module as a set of *processes*:

* combinational processes — continuous assignments and ``always @(*)`` /
  level-sensitive ``always`` blocks, re-evaluated until the design settles;
* sequential processes — ``always`` blocks with edge-triggered sensitivity
  (``posedge``/``negedge``), executed when one of their edges fires, with
  non-blocking assignments committed after all triggered processes ran;
* initial processes — ``initial`` blocks executed once at time zero.

:class:`StatementExecutor` interprets procedural statements against a signal
store, queueing non-blocking assignments for later commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .. import ast_nodes as ast
from ..errors import SimulationError
from .eval import EvalContext, ExpressionEvaluator
from .values import LogicVector

#: Upper bound on loop iterations inside a single process activation.  Real RTL in
#: the supported subset never needs more; the cap converts accidental infinite
#: loops in generated code into a simulation error (a functional failure).
MAX_LOOP_ITERATIONS = 4096


class ProcessKind(enum.Enum):
    """Classification of a process for scheduling purposes."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"
    INITIAL = "initial"


@dataclass
class Process:
    """A schedulable process extracted from a module item."""

    kind: ProcessKind
    body: ast.Statement | None
    sensitivity: list[ast.SensitivityItem] = field(default_factory=list)
    label: str = ""

    def edge_signals(self) -> list[tuple[ast.EdgeKind, str]]:
        """Return ``(edge, signal_name)`` pairs for edge-triggered entries."""
        edges: list[tuple[ast.EdgeKind, str]] = []
        for item in self.sensitivity:
            if item.edge in (ast.EdgeKind.POSEDGE, ast.EdgeKind.NEGEDGE) and isinstance(
                item.signal, ast.Identifier
            ):
                edges.append((item.edge, item.signal.name))
        return edges


@dataclass
class SignalStore:
    """Mutable value store for all signals of an elaborated module."""

    widths: dict[str, int] = field(default_factory=dict)
    values: dict[str, LogicVector] = field(default_factory=dict)

    def declare(self, name: str, width: int, initial: LogicVector | None = None) -> None:
        """Declare a signal with the given width, defaulting to all-x."""
        self.widths[name] = width
        self.values[name] = initial.resized(width) if initial is not None else LogicVector.unknown(width)

    def get(self, name: str) -> LogicVector:
        if name not in self.values:
            raise SimulationError(f"read of undeclared signal {name!r}")
        return self.values[name]

    def set(self, name: str, value: LogicVector) -> bool:
        """Set a signal value (resized to its width); return ``True`` if it changed."""
        if name not in self.values:
            raise SimulationError(f"write to undeclared signal {name!r}")
        resized = value.resized(self.widths[name])
        changed = resized != self.values[name]
        self.values[name] = resized
        return changed

    def snapshot(self) -> dict[str, LogicVector]:
        """Return a shallow copy of the current values."""
        return dict(self.values)


class StatementExecutor:
    """Interpret procedural statements against a signal store."""

    def __init__(
        self,
        store: SignalStore,
        parameters: dict[str, int],
        functions: dict[str, ast.FunctionDeclaration],
    ):
        self.store = store
        self.parameters = parameters
        self.functions = functions
        self.nonblocking_updates: list[tuple[ast.Expression, LogicVector]] = []
        self.display_log: list[str] = []

    # ------------------------------------------------------------------ evaluation plumbing
    def _make_evaluator(self, local_signals: dict[str, LogicVector] | None = None) -> ExpressionEvaluator:
        signals = dict(self.store.values)
        if local_signals:
            signals.update(local_signals)
        context = EvalContext(
            signals=signals,
            parameters=self.parameters,
            functions=self.functions,
            function_evaluator=self._call_function,
        )
        return ExpressionEvaluator(context)

    def _call_function(self, name: str, args: list[LogicVector]) -> LogicVector:
        function = self.functions.get(name)
        if function is None:
            raise SimulationError(f"call to unknown function {name!r}")
        width = 1
        if function.range is not None:
            evaluator = self._make_evaluator()
            msb = evaluator.evaluate_constant(function.range.msb)
            lsb = evaluator.evaluate_constant(function.range.lsb)
            width = abs(msb - lsb) + 1
        local_store = SignalStore()
        local_store.declare(function.name, width)
        argument_index = 0
        for declaration in function.inputs:
            for input_name in declaration.names:
                input_width = 1
                if declaration.range is not None:
                    evaluator = self._make_evaluator()
                    msb = evaluator.evaluate_constant(declaration.range.msb)
                    lsb = evaluator.evaluate_constant(declaration.range.lsb)
                    input_width = abs(msb - lsb) + 1
                value = args[argument_index] if argument_index < len(args) else LogicVector.unknown(input_width)
                local_store.declare(input_name, input_width, value)
                argument_index += 1
        for declaration in function.locals:
            for local_name in declaration.names:
                local_width = 1
                if declaration.range is not None:
                    evaluator = self._make_evaluator()
                    msb = evaluator.evaluate_constant(declaration.range.msb)
                    lsb = evaluator.evaluate_constant(declaration.range.lsb)
                    local_width = abs(msb - lsb) + 1
                if declaration.net_type is ast.NetType.INTEGER:
                    local_width = 32
                local_store.declare(local_name, local_width)
        nested = StatementExecutor(local_store, self.parameters, self.functions)
        # Bring the outer signals into scope for reads inside the function body.
        for name, value in self.store.values.items():
            if name not in local_store.values:
                local_store.widths[name] = value.width
                local_store.values[name] = value
        nested.execute(function.body, allow_nonblocking=False)
        return local_store.get(function.name)

    # ------------------------------------------------------------------ statement execution
    def execute(self, statement: ast.Statement | None, allow_nonblocking: bool = True) -> None:
        """Execute a single statement (recursively)."""
        if statement is None or isinstance(statement, ast.NullStatement):
            return
        if isinstance(statement, ast.Block):
            for inner in statement.statements:
                self.execute(inner, allow_nonblocking)
            return
        if isinstance(statement, ast.BlockingAssign):
            value = self._make_evaluator().evaluate(statement.value)
            self._assign(statement.target, value)
            return
        if isinstance(statement, ast.NonBlockingAssign):
            value = self._make_evaluator().evaluate(statement.value)
            if allow_nonblocking:
                self.nonblocking_updates.append((statement.target, value))
            else:
                self._assign(statement.target, value)
            return
        if isinstance(statement, ast.IfStatement):
            condition = self._make_evaluator().evaluate(statement.condition).is_true()
            if condition is True:
                self.execute(statement.then_branch, allow_nonblocking)
            elif condition is False:
                self.execute(statement.else_branch, allow_nonblocking)
            else:
                # Unknown condition: neither branch executes (conservative, keeps x).
                pass
            return
        if isinstance(statement, ast.CaseStatement):
            self._execute_case(statement, allow_nonblocking)
            return
        if isinstance(statement, ast.ForLoop):
            self._execute_for(statement, allow_nonblocking)
            return
        if isinstance(statement, ast.WhileLoop):
            iterations = 0
            while True:
                condition = self._make_evaluator().evaluate(statement.condition).is_true()
                if condition is not True:
                    break
                self.execute(statement.body, allow_nonblocking)
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise SimulationError("while loop exceeded the iteration limit")
            return
        if isinstance(statement, ast.RepeatLoop):
            count_value = self._make_evaluator().evaluate(statement.count)
            count = count_value.to_int_or(0)
            if count > MAX_LOOP_ITERATIONS:
                raise SimulationError("repeat loop exceeded the iteration limit")
            for _ in range(count):
                self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.DelayStatement):
            # Delays are ignored in the zero-delay functional model; the delayed
            # statement itself still executes.
            self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.EventWait):
            # Event controls inside procedural code are not supported by the
            # functional model (they only appear in testbench-style code).
            self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.SystemTaskCall):
            self._execute_system_task(statement)
            return
        raise SimulationError(f"unsupported statement {type(statement).__name__}")

    def commit_nonblocking(self) -> bool:
        """Apply queued non-blocking assignments; return whether anything changed."""
        changed = False
        for target, value in self.nonblocking_updates:
            changed |= self._assign(target, value)
        self.nonblocking_updates.clear()
        return changed

    # ------------------------------------------------------------------ helpers
    def _execute_case(self, statement: ast.CaseStatement, allow_nonblocking: bool) -> None:
        evaluator = self._make_evaluator()
        subject = evaluator.evaluate(statement.subject)
        default_item: ast.CaseItem | None = None
        for item in statement.items:
            if item.is_default:
                default_item = item
                continue
            for expression in item.expressions:
                candidate = evaluator.evaluate(expression)
                if self._case_matches(statement.kind, subject, candidate):
                    self.execute(item.body, allow_nonblocking)
                    return
        if default_item is not None:
            self.execute(default_item.body, allow_nonblocking)

    def _case_matches(self, kind: str, subject: LogicVector, candidate: LogicVector) -> bool:
        width = max(subject.width, candidate.width)
        subject = subject.resized(width)
        candidate = candidate.resized(width)
        for index in range(width):
            subject_bit = subject.bit(index)
            candidate_bit = candidate.bit(index)
            if kind == "casez":
                if candidate_bit == "z" or subject_bit == "z":
                    continue
            elif kind == "casex":
                if candidate_bit in "xz" or subject_bit in "xz":
                    continue
            if subject_bit != candidate_bit:
                return False
        return True

    def _execute_for(self, statement: ast.ForLoop, allow_nonblocking: bool) -> None:
        self.execute(statement.init, allow_nonblocking)
        iterations = 0
        while True:
            condition = self._make_evaluator().evaluate(statement.condition).is_true()
            if condition is not True:
                break
            self.execute(statement.body, allow_nonblocking)
            self.execute(statement.step, allow_nonblocking)
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise SimulationError("for loop exceeded the iteration limit")

    def _execute_system_task(self, statement: ast.SystemTaskCall) -> None:
        if statement.name in ("$display", "$write", "$monitor", "$strobe"):
            rendered: list[str] = []
            evaluator = self._make_evaluator()
            for argument in statement.args:
                if isinstance(argument, ast.StringLiteral):
                    rendered.append(argument.value)
                else:
                    try:
                        rendered.append(str(evaluator.evaluate(argument)))
                    except SimulationError:
                        rendered.append("<error>")
            self.display_log.append(" ".join(rendered))
        # $finish/$stop and unknown tasks are no-ops in the functional model.

    def _assign(self, target: ast.Expression, value: LogicVector) -> bool:
        if isinstance(target, ast.Identifier):
            return self.store.set(target.name, value)
        if isinstance(target, ast.BitSelect):
            name = _target_name(target)
            index_value = self._make_evaluator().evaluate(target.index)
            if index_value.has_unknown:
                return False
            index = index_value.to_int()
            current = self.store.get(name)
            return self.store.set(name, current.replaced(index, index, value))
        if isinstance(target, ast.PartSelect):
            name = _target_name(target)
            evaluator = self._make_evaluator()
            current = self.store.get(name)
            if target.mode == ":":
                msb = evaluator.evaluate_constant(target.msb)
                lsb = evaluator.evaluate_constant(target.lsb)
            else:
                base = evaluator.evaluate_constant(target.msb)
                width = evaluator.evaluate_constant(target.lsb)
                if target.mode == "+:":
                    msb, lsb = base + width - 1, base
                else:
                    msb, lsb = base, base - width + 1
            return self.store.set(name, current.replaced(msb, lsb, value))
        if isinstance(target, ast.Concat):
            # Assign MSB-first across the concatenation parts.
            changed = False
            widths = []
            for part in target.parts:
                widths.append(self._target_width(part))
            total = sum(widths)
            value = value.resized(total)
            offset = total
            for part, width in zip(target.parts, widths):
                offset -= width
                changed |= self._assign(part, value.slice(offset + width - 1, offset))
            return changed
        raise SimulationError(f"unsupported assignment target {type(target).__name__}")

    def _target_width(self, target: ast.Expression) -> int:
        if isinstance(target, ast.Identifier):
            return self.store.widths.get(target.name, 1)
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            evaluator = self._make_evaluator()
            if target.mode == ":":
                msb = evaluator.evaluate_constant(target.msb)
                lsb = evaluator.evaluate_constant(target.lsb)
                return abs(msb - lsb) + 1
            return evaluator.evaluate_constant(target.lsb)
        if isinstance(target, ast.Concat):
            return sum(self._target_width(part) for part in target.parts)
        raise SimulationError(f"unsupported assignment target {type(target).__name__}")


def _target_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.Identifier):
        return expression.name
    if isinstance(expression, (ast.BitSelect, ast.PartSelect)):
        return _target_name(expression.target)
    raise SimulationError("assignment target must be a simple signal reference")
