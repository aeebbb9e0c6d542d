"""Expression evaluation for the Verilog simulator.

The evaluator computes :class:`~repro.verilog.simulator.values.LogicVector` results
for AST expressions against an *environment*: a mapping from signal names to their
current values, plus parameter constants and user-defined functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import ast_nodes as ast
from ..errors import SimulationError
from .values import LogicVector, concat_all


@dataclass
class EvalContext:
    """Evaluation environment for expressions.

    Attributes:
        signals: current signal values by name.
        parameters: constant parameter values by name.
        functions: user-defined function ASTs by name.
        loop_variables: integer loop variables (for-loop induction variables).
    """

    signals: dict[str, LogicVector] = field(default_factory=dict)
    parameters: dict[str, int] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDeclaration] = field(default_factory=dict)
    loop_variables: dict[str, int] = field(default_factory=dict)
    function_evaluator: Callable[[str, list[LogicVector]], LogicVector] | None = None

    def lookup(self, name: str) -> LogicVector:
        """Resolve an identifier to its current value."""
        if name in self.signals:
            return self.signals[name]
        if name in self.loop_variables:
            return LogicVector.from_int(self.loop_variables[name], 32)
        if name in self.parameters:
            return LogicVector.from_int(self.parameters[name], 32)
        raise SimulationError(f"reference to unknown signal {name!r}")


class ExpressionEvaluator:
    """Evaluate AST expressions to four-state values."""

    def __init__(self, context: EvalContext):
        self.context = context

    # ------------------------------------------------------------------ public API
    def evaluate(self, expression: ast.Expression) -> LogicVector:
        """Evaluate ``expression`` and return its value."""
        if isinstance(expression, ast.Number):
            width = expression.width if expression.width is not None else 32
            return LogicVector(width=width, value=expression.value, xz_mask=expression.xz_mask)
        if isinstance(expression, ast.Identifier):
            return self.context.lookup(expression.name)
        if isinstance(expression, ast.StringLiteral):
            # Strings only appear as $display arguments in the supported subset.
            return LogicVector.from_int(0, 1)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression)
        if isinstance(expression, ast.Ternary):
            return self._evaluate_ternary(expression)
        if isinstance(expression, ast.Concat):
            return concat_all([self.evaluate(part) for part in expression.parts])
        if isinstance(expression, ast.Replication):
            count_value = self.evaluate(expression.count)
            count = count_value.to_int_or(0)
            if count <= 0:
                raise SimulationError("replication count must be positive")
            base = self.evaluate(expression.value)
            return concat_all([base] * count)
        if isinstance(expression, ast.BitSelect):
            target = self.evaluate(expression.target)
            index_value = self.evaluate(expression.index)
            if index_value.has_unknown:
                return LogicVector.unknown(1)
            return target.slice(index_value.to_int(), index_value.to_int())
        if isinstance(expression, ast.PartSelect):
            return self._evaluate_part_select(expression)
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_call(expression)
        raise SimulationError(f"cannot evaluate expression of type {type(expression).__name__}")

    def evaluate_constant(self, expression: ast.Expression) -> int:
        """Evaluate a constant expression (parameters, ranges) to a Python int."""
        value = self.evaluate(expression)
        if value.has_unknown:
            raise SimulationError("constant expression evaluated to x/z")
        return value.to_int()

    # ------------------------------------------------------------------ operators
    def _evaluate_unary(self, expression: ast.UnaryOp) -> LogicVector:
        operand = self.evaluate(expression.operand)
        op = expression.op
        if op == "+":
            return operand
        if op == "-":
            if operand.has_unknown:
                return LogicVector.unknown(operand.width)
            return LogicVector.from_int(-operand.to_int(), operand.width)
        if op == "!":
            truth = operand.is_true()
            if truth is None:
                return LogicVector.unknown(1)
            return LogicVector.from_int(0 if truth else 1, 1)
        if op == "~":
            return LogicVector(
                width=operand.width,
                value=(~operand.value) & ((1 << operand.width) - 1) | operand.xz_mask & operand.value,
                xz_mask=operand.xz_mask,
            )
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            return self._evaluate_reduction(op, operand)
        raise SimulationError(f"unsupported unary operator {op!r}")

    def _evaluate_reduction(self, op: str, operand: LogicVector) -> LogicVector:
        bits = [operand.bit(i) for i in range(operand.width)]
        if op in ("&", "~&"):
            if "0" in bits:
                result: str = "0"
            elif all(bit == "1" for bit in bits):
                result = "1"
            else:
                result = "x"
            if op == "~&" and result in "01":
                result = "1" if result == "0" else "0"
        elif op in ("|", "~|"):
            if "1" in bits:
                result = "1"
            elif all(bit == "0" for bit in bits):
                result = "0"
            else:
                result = "x"
            if op == "~|" and result in "01":
                result = "1" if result == "0" else "0"
        else:  # xor family
            if any(bit in "xz" for bit in bits):
                result = "x"
            else:
                parity = sum(1 for bit in bits if bit == "1") % 2
                result = "1" if parity else "0"
            if op in ("~^", "^~") and result in "01":
                result = "1" if result == "0" else "0"
        return LogicVector.from_string(result)

    def _evaluate_binary(self, expression: ast.BinaryOp) -> LogicVector:
        op = expression.op
        left = self.evaluate(expression.left)
        right = self.evaluate(expression.right)
        width = max(left.width, right.width)

        if op in ("&&", "||"):
            return self._evaluate_logical(op, left, right)
        if op in ("===", "!=="):
            same = (
                left.resized(width).value == right.resized(width).value
                and left.resized(width).xz_mask == right.resized(width).xz_mask
            )
            result = same if op == "===" else not same
            return LogicVector.from_int(1 if result else 0, 1)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if left.has_unknown or right.has_unknown:
                return LogicVector.unknown(1)
            lhs, rhs = left.to_int(), right.to_int()
            outcome = {
                "==": lhs == rhs,
                "!=": lhs != rhs,
                "<": lhs < rhs,
                "<=": lhs <= rhs,
                ">": lhs > rhs,
                ">=": lhs >= rhs,
            }[op]
            return LogicVector.from_int(1 if outcome else 0, 1)
        if op in ("&", "|", "^", "~^", "^~"):
            return self._evaluate_bitwise(op, left.resized(width), right.resized(width))
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._evaluate_shift(op, left, right)
        if op in ("+", "-", "*", "/", "%", "**"):
            return self._evaluate_arithmetic(op, left, right, width)
        raise SimulationError(f"unsupported binary operator {op!r}")

    def _evaluate_logical(self, op: str, left: LogicVector, right: LogicVector) -> LogicVector:
        lhs, rhs = left.is_true(), right.is_true()
        if op == "&&":
            if lhs is False or rhs is False:
                return LogicVector.from_int(0, 1)
            if lhs is True and rhs is True:
                return LogicVector.from_int(1, 1)
            return LogicVector.unknown(1)
        if lhs is True or rhs is True:
            return LogicVector.from_int(1, 1)
        if lhs is False and rhs is False:
            return LogicVector.from_int(0, 1)
        return LogicVector.unknown(1)

    def _evaluate_bitwise(self, op: str, left: LogicVector, right: LogicVector) -> LogicVector:
        width = left.width
        value = 0
        xz_mask = 0
        for index in range(width):
            a = left.bit(index)
            b = right.bit(index)
            bit = _bitwise_table(op, a, b)
            if bit == "1":
                value |= 1 << index
            elif bit in "xz":
                xz_mask |= 1 << index
        return LogicVector(width=width, value=value, xz_mask=xz_mask)

    def _evaluate_shift(self, op: str, left: LogicVector, right: LogicVector) -> LogicVector:
        if right.has_unknown:
            return LogicVector.unknown(left.width)
        amount = right.to_int()
        if left.has_unknown:
            # Shift x bits along with the value plane.
            value = left.value
            xz = left.xz_mask
            if op in ("<<", "<<<"):
                return LogicVector(width=left.width, value=value << amount, xz_mask=xz << amount)
            return LogicVector(width=left.width, value=value >> amount, xz_mask=xz >> amount)
        value = left.to_int()
        if op in ("<<", "<<<"):
            return LogicVector.from_int(value << amount, left.width)
        if op == ">>":
            return LogicVector.from_int(value >> amount, left.width)
        # Arithmetic right shift preserves the sign bit.
        signed = left.to_signed_int()
        return LogicVector.from_int(signed >> amount, left.width)

    def _evaluate_arithmetic(
        self, op: str, left: LogicVector, right: LogicVector, width: int
    ) -> LogicVector:
        if left.has_unknown or right.has_unknown:
            return LogicVector.unknown(width if op not in ("**",) else max(width, 32))
        lhs, rhs = left.to_int(), right.to_int()
        # Addition/subtraction/multiplication keep enough headroom that carries are
        # preserved; assignment truncates to the target width (so idioms such as
        # ``assign {cout, sum} = a + b;`` observe the carry bit).
        if op == "+":
            return LogicVector.from_int(lhs + rhs, width + 1)
        if op == "-":
            return LogicVector.from_int(lhs - rhs, width + 1)
        if op == "*":
            return LogicVector.from_int(lhs * rhs, max(2 * width, 1))
        if op == "/":
            if rhs == 0:
                return LogicVector.unknown(width)
            return LogicVector.from_int(lhs // rhs, width)
        if op == "%":
            if rhs == 0:
                return LogicVector.unknown(width)
            return LogicVector.from_int(lhs % rhs, width)
        if op == "**":
            return LogicVector.from_int(lhs**rhs, max(width, 32))
        raise SimulationError(f"unsupported arithmetic operator {op!r}")

    def _evaluate_ternary(self, expression: ast.Ternary) -> LogicVector:
        condition = self.evaluate(expression.condition).is_true()
        if condition is not None:
            # IEEE 1364 sizes ``?:`` to its wider branch, taken or not; the
            # branch not taken only lends its width, so what it raises is dropped.
            chosen, other = (
                (expression.if_true, expression.if_false)
                if condition
                else (expression.if_false, expression.if_true)
            )
            value = self.evaluate(chosen)
            try:
                width = self.evaluate(other).width
            except Exception:
                return value
            return value.resized(width) if width > value.width else value
        true_value = self.evaluate(expression.if_true)
        false_value = self.evaluate(expression.if_false)
        width = max(true_value.width, false_value.width)
        true_value = true_value.resized(width)
        false_value = false_value.resized(width)
        value = 0
        xz_mask = 0
        for index in range(width):
            a, b = true_value.bit(index), false_value.bit(index)
            if a == b and a in "01":
                if a == "1":
                    value |= 1 << index
            else:
                xz_mask |= 1 << index
        return LogicVector(width=width, value=value, xz_mask=xz_mask)

    def _evaluate_part_select(self, expression: ast.PartSelect) -> LogicVector:
        target = self.evaluate(expression.target)
        if expression.mode == ":":
            msb = self.evaluate(expression.msb)
            lsb = self.evaluate(expression.lsb)
            if msb.has_unknown or lsb.has_unknown:
                return LogicVector.unknown(1)
            return target.slice(msb.to_int(), lsb.to_int())
        base = self.evaluate(expression.msb)
        width_value = self.evaluate(expression.lsb)
        if base.has_unknown or width_value.has_unknown:
            return LogicVector.unknown(1)
        width = width_value.to_int()
        start = base.to_int()
        if expression.mode == "+:":
            return target.slice(start + width - 1, start)
        return target.slice(start, start - width + 1)

    def _evaluate_call(self, expression: ast.FunctionCall) -> LogicVector:
        name = expression.name
        args = [self.evaluate(argument) for argument in expression.args]
        if name in ("$signed", "$unsigned"):
            return args[0] if args else LogicVector.unknown(1)
        if name == "$clog2":
            if not args or args[0].has_unknown:
                return LogicVector.unknown(32)
            value = args[0].to_int()
            return LogicVector.from_int(max(0, (value - 1).bit_length()), 32)
        if name.startswith("$"):
            # Unknown system functions return x rather than failing the whole run.
            return LogicVector.unknown(32)
        if self.context.function_evaluator is not None:
            return self.context.function_evaluator(name, args)
        raise SimulationError(f"call to unknown function {name!r}")


_BITWISE_AND = {
    ("0", "0"): "0",
    ("0", "1"): "0",
    ("1", "0"): "0",
    ("1", "1"): "1",
}


def _bitwise_table(op: str, a: str, b: str) -> str:
    """Four-state truth tables for the bitwise operators."""
    a = "x" if a == "z" else a
    b = "x" if b == "z" else b
    if op == "&":
        if a == "0" or b == "0":
            return "0"
        if a == "1" and b == "1":
            return "1"
        return "x"
    if op == "|":
        if a == "1" or b == "1":
            return "1"
        if a == "0" and b == "0":
            return "0"
        return "x"
    if op == "^":
        if a in "01" and b in "01":
            return "1" if a != b else "0"
        return "x"
    # xnor
    if a in "01" and b in "01":
        return "1" if a == b else "0"
    return "x"
