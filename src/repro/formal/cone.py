"""Bit-blast Verilog combinational cones (and k-step unrollings) into AIGs.

This is the formal front end for the Verilog subset: it reuses the simulator's
:func:`~repro.verilog.simulator.simulator.elaborate_module` (so widths,
parameters and processes are resolved exactly once, identically to both
simulators) and then *symbolically executes* the processes, producing one
:class:`~repro.formal.aig.SymVector` of AIG literals per signal instead of a
concrete value:

* expressions mirror :class:`~repro.verilog.simulator.eval.ExpressionEvaluator`
  operator by operator under **two-valued** semantics (widths, carries and
  comparison rules are kept bit-exact with the scalar engine);
* control flow is *if-converted*: both branches execute on copies of the store
  and every signal they touch is merged through a mux on the condition;
* combinational processes are settled to a fixpoint — hash-consed AND gates
  make structural equality of settle iterations a cheap tuple compare;
* signals read before any assignment become tagged "undef" inputs; an output
  whose cone of influence contains one cannot be proven two-valued and raises
  :class:`~repro.formal.aig.FormalEncodingError` (callers fall back to the
  four-state simulators).

Sequential designs are symbolically executed once per clocking, into a
:class:`TransitionRelation` (one clock step over free state and data inputs);
:class:`SequentialUnroller` builds every time frame of a proof as a
substituted copy of it, from the concrete post-reset state of the task's
:class:`~repro.verilog.simulator.testbench.ResetSpec` (the testbench's own
:func:`~repro.verilog.simulator.testbench.reset_state`) or from a symbolic one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..verilog import ast_nodes as ast
from ..verilog.design import CompiledDesign, coerce_compiled
from ..verilog.simulator.scheduler import MAX_LOOP_ITERATIONS, ProcessKind
from ..verilog.simulator.simulator import MAX_SETTLE_ITERATIONS, ElaboratedModule
from ..verilog.simulator.testbench import ResetSpec, reset_pin, reset_state
from .aig import AIG, FALSE, TRUE, FormalEncodingError, SymVector, concat_sym

#: Key prefix for the shadow next-state entries used by non-blocking assigns.
_NB_PREFIX = "\x00nb\x00"


def _nb_key(name: str) -> str:
    return _NB_PREFIX + name


@dataclass
class ConeResult:
    """A combinational cone lowered into an AIG.

    Attributes:
        aig: the graph the cone was built into (possibly shared with others).
        inputs: input port name → vector of input literals.
        outputs: output port name → vector of cone literals.
        undef_inputs: names of tagged undef AIG inputs created for signals read
            before assignment; outputs whose support intersects this set are
            rejected by :meth:`check_defined`.
    """

    aig: AIG
    inputs: dict[str, SymVector]
    outputs: dict[str, SymVector]
    undef_inputs: set[str] = field(default_factory=set)

    def output_literals(self, names: Sequence[str] | None = None) -> list[int]:
        chosen = names if names is not None else sorted(self.outputs)
        literals: list[int] = []
        for name in chosen:
            literals.extend(self.outputs[name].bits)
        return literals

    def check_defined(self, names: Sequence[str] | None = None) -> None:
        """Raise unless every checked output is a pure function of real inputs."""
        support = self.aig.support(self.output_literals(names))
        tainted = support & self.undef_inputs
        if tainted:
            raise FormalEncodingError(
                "output cone depends on undriven or latched signal bits: "
                + ", ".join(sorted(tainted)[:4])
            )


class SymbolicExecutor:
    """Two-valued symbolic interpreter over one elaborated module."""

    def __init__(
        self,
        design: ElaboratedModule,
        aig: AIG,
        input_literals: Mapping[str, SymVector] | None = None,
        undef_prefix: str = "",
    ):
        self.design = design
        self.aig = aig
        self.parameters = design.parameters
        self.functions = design.functions
        self.undef_prefix = undef_prefix
        self.undef_inputs: set[str] = set()
        self.widths: dict[str, int] = dict(design.store.widths)
        self.values: dict[str, SymVector] = {}
        self.input_vectors: dict[str, SymVector] = {}
        provided = dict(input_literals or {})
        input_names = {port.name for port in design.input_ports()}
        for name, width in self.widths.items():
            if name in provided:
                vector = provided[name]
                if vector.width != width:
                    raise FormalEncodingError(
                        f"provided literals for {name!r} have width {vector.width}, "
                        f"expected {width}"
                    )
                self.values[name] = vector
                if name in input_names:
                    self.input_vectors[name] = vector
            elif name in input_names:
                vector = SymVector(
                    tuple(
                        self.aig.add_input(f"{undef_prefix}{name}[{bit}]")
                        for bit in range(width)
                    )
                )
                self.values[name] = vector
                self.input_vectors[name] = vector
            else:
                self.values[name] = self._initial_vector(name, width)

    # ------------------------------------------------------------------ initial state
    def _initial_vector(self, name: str, width: int) -> SymVector:
        """Seed a non-input signal from its elaborated value (x bits → undef)."""
        concrete = self.design.store.values.get(name)
        bits: list[int] = []
        for bit in range(width):
            if concrete is not None and not ((concrete.xz_mask >> bit) & 1):
                bits.append(TRUE if (concrete.value >> bit) & 1 else FALSE)
            else:
                undef_name = f"__undef__{self.undef_prefix}{name}[{bit}]"
                bits.append(self.aig.add_input(undef_name))
                self.undef_inputs.add(undef_name)
        return SymVector(tuple(bits))

    def set_concrete(self, name: str, value: int) -> None:
        """Force a signal to a constant (clock/reset pins during unrolling)."""
        self.values[name] = SymVector.constant(value, self.widths[name])

    # ------------------------------------------------------------------ process driving
    def run_initial_blocks(self) -> None:
        for process in self.design.processes:
            if process.kind is ProcessKind.INITIAL:
                self.execute(process.body, allow_nonblocking=False)

    def settle(self) -> None:
        """Re-run combinational processes until the symbolic store is stable."""
        for _ in range(MAX_SETTLE_ITERATIONS):
            changed = False
            for process in self.design.processes:
                if process.kind is not ProcessKind.COMBINATIONAL:
                    continue
                before = dict(self.values)
                self.execute(process.body, allow_nonblocking=False)
                changed |= self.values != before
            if not changed:
                return
        raise FormalEncodingError(
            f"combinational logic in module {self.design.name!r} did not reach a "
            "symbolic fixpoint (combinational loop or inferred latch)"
        )

    def clock_step(self) -> None:
        """Execute every sequential process once and commit non-blocking updates.

        Models one active clock edge: callers are responsible for holding the
        clock/reset pins constant and for calling :meth:`settle` before/after.
        """
        targets: set[str] = set()
        for process in self.design.processes:
            if process.kind is ProcessKind.SEQUENTIAL:
                targets |= _nonblocking_targets(process.body)
        for name in targets:
            key = _nb_key(name)
            self.widths[key] = self.widths[name]
            self.values[key] = self.values[name]
        for process in self.design.processes:
            if process.kind is ProcessKind.SEQUENTIAL:
                self.execute(process.body, allow_nonblocking=True)
        for name in targets:
            key = _nb_key(name)
            self.values[name] = self.values.pop(key)
            del self.widths[key]

    # ------------------------------------------------------------------ statements
    def execute(self, statement: ast.Statement | None, allow_nonblocking: bool) -> None:
        if statement is None or isinstance(statement, ast.NullStatement):
            return
        if isinstance(statement, ast.Block):
            for inner in statement.statements:
                self.execute(inner, allow_nonblocking)
            return
        if isinstance(statement, ast.BlockingAssign):
            self._assign(statement.target, self.evaluate(statement.value))
            return
        if isinstance(statement, ast.NonBlockingAssign):
            value = self.evaluate(statement.value)
            if allow_nonblocking:
                self._assign(statement.target, value, shadow=True)
            else:
                self._assign(statement.target, value)
            return
        if isinstance(statement, ast.IfStatement):
            condition = self._truth(self.evaluate(statement.condition))
            self._execute_guarded(
                condition, statement.then_branch, statement.else_branch, allow_nonblocking
            )
            return
        if isinstance(statement, ast.CaseStatement):
            self._execute_case(statement, allow_nonblocking)
            return
        if isinstance(statement, ast.ForLoop):
            self.execute(statement.init, allow_nonblocking)
            iterations = 0
            while True:
                condition = self._constant_truth(statement.condition, "for-loop condition")
                if not condition:
                    break
                self.execute(statement.body, allow_nonblocking)
                self.execute(statement.step, allow_nonblocking)
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise FormalEncodingError("for loop exceeded the iteration limit")
            return
        if isinstance(statement, ast.WhileLoop):
            iterations = 0
            while self._constant_truth(statement.condition, "while-loop condition"):
                self.execute(statement.body, allow_nonblocking)
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise FormalEncodingError("while loop exceeded the iteration limit")
            return
        if isinstance(statement, ast.RepeatLoop):
            count = self._constant_int(statement.count, "repeat count")
            if count > MAX_LOOP_ITERATIONS:
                raise FormalEncodingError("repeat loop exceeded the iteration limit")
            for _ in range(count):
                self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, (ast.DelayStatement, ast.EventWait)):
            self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.SystemTaskCall):
            return  # $display and friends have no formal meaning
        raise FormalEncodingError(f"unsupported statement {type(statement).__name__}")

    def _execute_guarded(
        self,
        condition: int,
        then_branch: ast.Statement | None,
        else_branch: ast.Statement | None,
        allow_nonblocking: bool,
    ) -> None:
        """If-conversion: run both branches and mux every touched signal."""
        if condition == TRUE:
            self.execute(then_branch, allow_nonblocking)
            return
        if condition == FALSE:
            self.execute(else_branch, allow_nonblocking)
            return
        before = dict(self.values)
        self.execute(then_branch, allow_nonblocking)
        then_values = self.values
        self.values = dict(before)
        self.execute(else_branch, allow_nonblocking)
        self._merge(condition, then_values)

    def _execute_case(self, statement: ast.CaseStatement, allow_nonblocking: bool) -> None:
        subject = self.evaluate(statement.subject)
        arms: list[tuple[int, ast.Statement | None]] = []
        default_body: ast.Statement | None = None
        for item in statement.items:
            if item.is_default:
                default_body = item.body
                continue
            match = FALSE
            for expression in item.expressions:
                match = self.aig.OR(
                    match, self._case_match(statement.kind, subject, expression)
                )
            arms.append((match, item.body))
        self._execute_arms(arms, default_body, allow_nonblocking)

    def _execute_arms(
        self,
        arms: list[tuple[int, ast.Statement | None]],
        default_body: ast.Statement | None,
        allow_nonblocking: bool,
    ) -> None:
        """Priority-encode case arms as nested if-conversion (first match wins)."""
        if not arms:
            self.execute(default_body, allow_nonblocking)
            return
        condition, body = arms[0]
        if condition == TRUE:
            self.execute(body, allow_nonblocking)
            return
        if condition == FALSE:
            self._execute_arms(arms[1:], default_body, allow_nonblocking)
            return
        before = dict(self.values)
        self.execute(body, allow_nonblocking)
        taken = self.values
        self.values = dict(before)
        self._execute_arms(arms[1:], default_body, allow_nonblocking)
        self._merge(condition, taken)

    def _merge(self, condition: int, taken: dict[str, SymVector]) -> None:
        """Join the store ``taken`` under ``condition`` with the current one."""
        merged: dict[str, SymVector] = {}
        for name, skipped_vector in self.values.items():
            taken_vector = taken[name]
            if taken_vector is skipped_vector or taken_vector == skipped_vector:
                merged[name] = taken_vector
            else:
                merged[name] = self._mux_vector(condition, taken_vector, skipped_vector)
        self.values = merged

    def _case_match(
        self, kind: str, subject: SymVector, expression: ast.Expression
    ) -> int:
        """Literal: does the case subject match one arm expression?"""
        if isinstance(expression, ast.Number) and expression.xz_mask:
            width = max(subject.width, expression.width or 32)
            subject = subject.resized(width)
            value = expression.value
            xz = expression.xz_mask
            terms: list[int] = []
            for bit in range(width):
                bit_value = (value >> bit) & 1
                bit_xz = (xz >> bit) & 1
                if bit_xz:
                    is_z_digit = bool(bit_value)  # z encodes as xz=1, value=1
                    if kind == "casex" or (kind == "casez" and is_z_digit):
                        continue  # wildcard digit
                    # A non-wildcard x/z digit can never equal a two-valued bit.
                    return FALSE
                subject_bit = subject.bits[bit] if bit < subject.width else FALSE
                terms.append(subject_bit if bit_value else self.aig.NOT(subject_bit))
            return self.aig.and_all(terms)
        candidate = self.evaluate(expression)
        width = max(subject.width, candidate.width)
        subject = subject.resized(width)
        candidate = candidate.resized(width)
        return self.aig.and_all(
            self.aig.XNOR(subject.bits[bit], candidate.bits[bit]) for bit in range(width)
        )

    # ------------------------------------------------------------------ assignment
    def _assign(
        self, target: ast.Expression, value: SymVector, shadow: bool = False
    ) -> None:
        rename: Callable[[str], str] = _nb_key if shadow else (lambda name: name)
        self._assign_renamed(target, value, rename)

    def _assign_renamed(
        self, target: ast.Expression, value: SymVector, rename: Callable[[str], str]
    ) -> None:
        if isinstance(target, ast.Identifier):
            key = rename(target.name)
            if key not in self.values:
                key = target.name  # blocking write to a non-register target
            if key not in self.values:
                raise FormalEncodingError(f"write to undeclared signal {target.name!r}")
            self.values[key] = value.resized(self.widths[key])
            return
        if isinstance(target, ast.BitSelect):
            name = _target_base_name(target)
            key = rename(name) if rename(name) in self.values else name
            current = self.values[key]
            index = self.evaluate(target.index)
            constant = index.constant_value()
            if constant is not None:
                if not 0 <= constant < current.width:
                    return  # out-of-range write: no effect (scalar drops it too)
                self.values[key] = _replace_bits(current, constant, constant, value)
                return
            bits = list(current.bits)
            for position in range(min(current.width, 1 << index.width)):
                equal = self._equals_constant(index, position)
                bits[position] = self.aig.MUX(equal, value.bits[0], bits[position])
            self.values[key] = SymVector(tuple(bits))
            return
        if isinstance(target, ast.PartSelect):
            name = _target_base_name(target)
            key = rename(name) if rename(name) in self.values else name
            current = self.values[key]
            msb, lsb = self._part_select_bounds(target)
            self.values[key] = _replace_bits(current, msb, lsb, value)
            return
        if isinstance(target, ast.Concat):
            widths = [self._target_width(part) for part in target.parts]
            total = sum(widths)
            value = value.resized(total)
            offset = total
            for part, width in zip(target.parts, widths):
                offset -= width
                self._assign_renamed(
                    part, value.slice(offset + width - 1, offset), rename
                )
            return
        raise FormalEncodingError(
            f"unsupported assignment target {type(target).__name__}"
        )

    def _target_width(self, target: ast.Expression) -> int:
        if isinstance(target, ast.Identifier):
            return self.widths.get(target.name, 1)
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            msb, lsb = self._part_select_bounds(target)
            return abs(msb - lsb) + 1
        if isinstance(target, ast.Concat):
            return sum(self._target_width(part) for part in target.parts)
        raise FormalEncodingError(
            f"unsupported assignment target {type(target).__name__}"
        )

    def _part_select_bounds(self, target: ast.PartSelect) -> tuple[int, int]:
        first = self._constant_int(target.msb, "part-select bound")
        second = self._constant_int(target.lsb, "part-select bound")
        if target.mode == ":":
            return first, second
        if target.mode == "+:":
            return first + second - 1, first
        return first, first - second + 1

    # ------------------------------------------------------------------ expressions
    def evaluate(self, expression: ast.Expression) -> SymVector:
        if isinstance(expression, ast.Number):
            if expression.xz_mask:
                raise FormalEncodingError(
                    "x/z literal has no two-valued encoding (outside casez/casex patterns)"
                )
            width = expression.width if expression.width is not None else 32
            return SymVector.constant(expression.value, width)
        if isinstance(expression, ast.Identifier):
            return self._lookup(expression.name)
        if isinstance(expression, ast.StringLiteral):
            return SymVector.constant(0, 1)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression)
        if isinstance(expression, ast.Ternary):
            return self._evaluate_ternary(expression)
        if isinstance(expression, ast.Concat):
            return concat_sym([self.evaluate(part) for part in expression.parts])
        if isinstance(expression, ast.Replication):
            count = self._constant_int(expression.count, "replication count")
            if count <= 0:
                raise FormalEncodingError("replication count must be positive")
            base = self.evaluate(expression.value)
            return concat_sym([base] * count)
        if isinstance(expression, ast.BitSelect):
            return self._evaluate_bit_select(expression)
        if isinstance(expression, ast.PartSelect):
            target = self.evaluate(expression.target)
            msb, lsb = self._part_select_bounds(expression)
            self._check_slice(target, msb, lsb)
            return target.slice(msb, lsb)
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_call(expression)
        raise FormalEncodingError(
            f"cannot encode expression of type {type(expression).__name__}"
        )

    def _lookup(self, name: str) -> SymVector:
        if name in self.values:
            return self.values[name]
        if name in self.parameters:
            return SymVector.constant(self.parameters[name], 32)
        raise FormalEncodingError(f"reference to unknown signal {name!r}")

    def _check_slice(self, target: SymVector, msb: int, lsb: int) -> None:
        low, high = min(msb, lsb), max(msb, lsb)
        if low < 0 or high >= target.width:
            raise FormalEncodingError(
                f"part select [{msb}:{lsb}] reads outside a {target.width}-bit value "
                "(x in four-state simulation)"
            )

    def _truth(self, vector: SymVector) -> int:
        """``is_true`` of a vector: the OR of all bits."""
        return self.aig.or_all(vector.bits)

    def _constant_int(self, expression: ast.Expression, what: str) -> int:
        value = self.evaluate(expression).constant_value()
        if value is None:
            raise FormalEncodingError(f"{what} must be constant for formal encoding")
        return value

    def _constant_truth(self, expression: ast.Expression, what: str) -> bool:
        literal = self._truth(self.evaluate(expression))
        if literal == TRUE:
            return True
        if literal == FALSE:
            return False
        raise FormalEncodingError(f"{what} must be constant for formal encoding")

    def _equals_constant(self, vector: SymVector, constant: int) -> int:
        return self.aig.and_all(
            vector.bits[bit] if (constant >> bit) & 1 else self.aig.NOT(vector.bits[bit])
            for bit in range(vector.width)
        )

    # ------------------------------------------------------------------ operators
    def _evaluate_unary(self, expression: ast.UnaryOp) -> SymVector:
        op = expression.op
        operand = self.evaluate(expression.operand)
        if op == "+":
            return operand
        if op == "-":
            return self._negate(operand)
        if op == "!":
            return SymVector((self.aig.NOT(self._truth(operand)),))
        if op == "~":
            return SymVector(tuple(self.aig.NOT(bit) for bit in operand.bits))
        if op in ("&", "~&"):
            literal = self.aig.and_all(operand.bits)
            return SymVector((self.aig.NOT(literal) if op == "~&" else literal,))
        if op in ("|", "~|"):
            literal = self.aig.or_all(operand.bits)
            return SymVector((self.aig.NOT(literal) if op == "~|" else literal,))
        if op in ("^", "~^", "^~"):
            literal = FALSE
            for bit in operand.bits:
                literal = self.aig.XOR(literal, bit)
            return SymVector((self.aig.NOT(literal) if op in ("~^", "^~") else literal,))
        raise FormalEncodingError(f"unsupported unary operator {op!r}")

    def _negate(self, operand: SymVector) -> SymVector:
        """Two's-complement negation at the operand width (the scalar rule)."""
        inverted = SymVector(tuple(self.aig.NOT(bit) for bit in operand.bits))
        return self._add(inverted, SymVector.constant(1, operand.width), operand.width)

    def _add(self, left: SymVector, right: SymVector, result_width: int) -> SymVector:
        left = left.resized(result_width)
        right = right.resized(result_width)
        carry = FALSE
        bits: list[int] = []
        for a, b in zip(left.bits, right.bits):
            bits.append(self.aig.XOR(self.aig.XOR(a, b), carry))
            carry = self.aig.OR(self.aig.AND(a, b), self.aig.AND(carry, self.aig.XOR(a, b)))
        return SymVector(tuple(bits))

    def _evaluate_binary(self, expression: ast.BinaryOp) -> SymVector:
        op = expression.op
        left = self.evaluate(expression.left)
        right = self.evaluate(expression.right)
        width = max(left.width, right.width)

        if op in ("&&", "||"):
            a = self._truth(left)
            b = self._truth(right)
            literal = self.aig.AND(a, b) if op == "&&" else self.aig.OR(a, b)
            return SymVector((literal,))
        if op in ("==", "===", "!=", "!=="):
            equal = self.aig.and_all(
                self.aig.XNOR(a, b)
                for a, b in zip(left.resized(width).bits, right.resized(width).bits)
            )
            negatedp = op in ("!=", "!==")
            return SymVector((self.aig.NOT(equal) if negatedp else equal,))
        if op in ("<", "<=", ">", ">="):
            return SymVector((self._compare(op, left, right, width),))
        if op in ("&", "|", "^", "~^", "^~"):
            l = left.resized(width)
            r = right.resized(width)
            if op == "&":
                bits = [self.aig.AND(a, b) for a, b in zip(l.bits, r.bits)]
            elif op == "|":
                bits = [self.aig.OR(a, b) for a, b in zip(l.bits, r.bits)]
            elif op == "^":
                bits = [self.aig.XOR(a, b) for a, b in zip(l.bits, r.bits)]
            else:
                bits = [self.aig.XNOR(a, b) for a, b in zip(l.bits, r.bits)]
            return SymVector(tuple(bits))
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._evaluate_shift(op, left, right)
        if op == "+":
            return self._add(left, right, width + 1)
        if op == "-":
            # a - b at width+1 == a + ~b + 1 with zero-extended operands.
            extended = right.resized(width + 1)
            inverted = SymVector(tuple(self.aig.NOT(bit) for bit in extended.bits))
            total = self._add(left.resized(width + 1), inverted, width + 1)
            return self._add(total, SymVector.constant(1, width + 1), width + 1)
        if op == "*":
            return self._multiply(left, right, max(2 * width, 1))
        if op in ("/", "%", "**"):
            lhs = left.constant_value()
            rhs = right.constant_value()
            if lhs is None or rhs is None:
                raise FormalEncodingError(
                    f"operator {op!r} requires constant operands for formal encoding"
                )
            if op == "**":
                return SymVector.constant(lhs**rhs, max(width, 32))
            if rhs == 0:
                raise FormalEncodingError("division by constant zero yields x")
            result = lhs // rhs if op == "/" else lhs % rhs
            return SymVector.constant(result, width)
        raise FormalEncodingError(f"unsupported binary operator {op!r}")

    def _compare(self, op: str, left: SymVector, right: SymVector, width: int) -> int:
        """Unsigned comparison, mirroring the scalar evaluator's ``to_int`` rule."""
        l = left.resized(width)
        r = right.resized(width)
        equal = TRUE
        less = FALSE
        for bit in range(width - 1, -1, -1):
            a = l.bits[bit]
            b = r.bits[bit]
            less = self.aig.OR(less, self.aig.and_all((equal, self.aig.NOT(a), b)))
            equal = self.aig.AND(equal, self.aig.XNOR(a, b))
        if op == "<":
            return less
        if op == "<=":
            return self.aig.OR(less, equal)
        if op == ">":
            return self.aig.NOT(self.aig.OR(less, equal))
        return self.aig.NOT(less)

    def _multiply(self, left: SymVector, right: SymVector, result_width: int) -> SymVector:
        l = left.resized(result_width)
        total = SymVector.constant(0, result_width)
        for position in range(min(right.width, result_width)):
            select = right.bits[position]
            if select == FALSE:
                continue
            shifted_bits = tuple(
                l.bits[bit - position] if bit >= position else FALSE
                for bit in range(result_width)
            )
            partial = SymVector(
                tuple(self.aig.AND(select, bit) for bit in shifted_bits)
            )
            total = self._add(total, partial, result_width)
        return total

    def _shift_by_constant(self, op: str, left: SymVector, amount: int) -> SymVector:
        width = left.width
        if op in ("<<", "<<<"):
            bits = tuple(
                left.bits[bit - amount] if bit >= amount else FALSE for bit in range(width)
            )
            return SymVector(bits)
        if op == ">>":
            bits = tuple(
                left.bits[bit + amount] if bit + amount < width else FALSE
                for bit in range(width)
            )
            return SymVector(bits)
        sign = left.bits[width - 1]
        bits = tuple(
            left.bits[bit + amount] if bit + amount < width else sign
            for bit in range(width)
        )
        return SymVector(bits)

    def _evaluate_shift(self, op: str, left: SymVector, right: SymVector) -> SymVector:
        constant = right.constant_value()
        if constant is not None:
            return self._shift_by_constant(op, left, min(constant, left.width))
        width = left.width
        # Mux over the in-range amounts; every amount >= width saturates to the
        # same image, selected by a single comparator.
        result = self._shift_by_constant(op, left, width)  # the saturated image
        for amount in range(min(width, 1 << right.width) - 1, -1, -1):
            equal = self._equals_constant(right, amount)
            shifted = self._shift_by_constant(op, left, amount)
            result = self._mux_vector(equal, shifted, result)
        return result

    def _evaluate_ternary(self, expression: ast.Ternary) -> SymVector:
        condition = self._truth(self.evaluate(expression.condition))
        if condition == TRUE:
            return self.evaluate(expression.if_true)
        if condition == FALSE:
            return self.evaluate(expression.if_false)
        if_true = self.evaluate(expression.if_true)
        if_false = self.evaluate(expression.if_false)
        width = max(if_true.width, if_false.width)
        return self._mux_vector(
            condition, if_true.resized(width), if_false.resized(width)
        )

    def _mux_vector(self, select: int, if_true: SymVector, if_false: SymVector) -> SymVector:
        width = max(if_true.width, if_false.width)
        t = if_true.resized(width)
        f = if_false.resized(width)
        return SymVector(
            tuple(self.aig.MUX(select, a, b) for a, b in zip(t.bits, f.bits))
        )

    def _evaluate_bit_select(self, expression: ast.BitSelect) -> SymVector:
        target = self.evaluate(expression.target)
        index = self.evaluate(expression.index)
        constant = index.constant_value()
        if constant is not None:
            self._check_slice(target, constant, constant)
            return target.slice(constant, constant)
        if (1 << index.width) > target.width:
            # A symbolic index that can point past the MSB reads x there.
            raise FormalEncodingError(
                "bit select with a symbolic index that can run out of range"
            )
        result = SymVector((target.bits[0],))
        for position in range(1, min(target.width, 1 << index.width)):
            equal = self._equals_constant(index, position)
            result = self._mux_vector(equal, SymVector((target.bits[position],)), result)
        return result

    def _evaluate_call(self, expression: ast.FunctionCall) -> SymVector:
        name = expression.name
        if name in ("$signed", "$unsigned"):
            if not expression.args:
                raise FormalEncodingError(f"{name} requires an argument")
            return self.evaluate(expression.args[0])
        if name == "$clog2":
            value = self._constant_int(expression.args[0], "$clog2 argument")
            return SymVector.constant(max(0, (value - 1).bit_length()), 32)
        if name.startswith("$"):
            raise FormalEncodingError(f"system function {name!r} yields x (unsupported)")
        function = self.functions.get(name)
        if function is None:
            raise FormalEncodingError(f"call to unknown function {name!r}")
        return self._execute_function(function, expression)

    def _execute_function(
        self, function: ast.FunctionDeclaration, call: ast.FunctionCall
    ) -> SymVector:
        arguments = [self.evaluate(argument) for argument in call.args]
        width = 1
        if function.range is not None:
            msb = self._constant_int(function.range.msb, "function range")
            lsb = self._constant_int(function.range.lsb, "function range")
            width = abs(msb - lsb) + 1
        saved_values = self.values
        saved_widths = self.widths
        self.values = dict(saved_values)
        self.widths = dict(saved_widths)
        try:
            self.widths[function.name] = width
            self.values[function.name] = SymVector.constant(0, width)
            index = 0
            for declaration in function.inputs:
                for input_name in declaration.names:
                    input_width = 1
                    if declaration.range is not None:
                        msb = self._constant_int(declaration.range.msb, "function input range")
                        lsb = self._constant_int(declaration.range.lsb, "function input range")
                        input_width = abs(msb - lsb) + 1
                    if index >= len(arguments):
                        raise FormalEncodingError(
                            f"function {function.name!r} called with too few arguments"
                        )
                    self.widths[input_name] = input_width
                    self.values[input_name] = arguments[index].resized(input_width)
                    index += 1
            for declaration in function.locals:
                for local_name in declaration.names:
                    local_width = 1
                    if declaration.range is not None:
                        msb = self._constant_int(declaration.range.msb, "function local range")
                        lsb = self._constant_int(declaration.range.lsb, "function local range")
                        local_width = abs(msb - lsb) + 1
                    if declaration.net_type is ast.NetType.INTEGER:
                        local_width = 32
                    self.widths[local_name] = local_width
                    self.values[local_name] = SymVector.constant(0, local_width)
            self.execute(function.body, allow_nonblocking=False)
            return self.values[function.name]
        finally:
            self.values = saved_values
            self.widths = saved_widths


def _replace_bits(current: SymVector, msb: int, lsb: int, value: SymVector) -> SymVector:
    if msb < lsb:
        msb, lsb = lsb, msb
    slice_width = msb - lsb + 1
    value = value.resized(slice_width)
    bits = list(current.bits)
    for offset in range(slice_width):
        position = lsb + offset
        if 0 <= position < len(bits):
            bits[position] = value.bits[offset]
    return SymVector(tuple(bits))


def _target_base_name(expression: ast.Expression) -> str:
    base = expression
    while isinstance(base, (ast.BitSelect, ast.PartSelect)):
        base = base.target
    if not isinstance(base, ast.Identifier):
        raise FormalEncodingError("assignment target must be a simple signal reference")
    return base.name


def _nonblocking_targets(statement: ast.Statement | None) -> set[str]:
    """Base names of every non-blocking assignment target in a statement tree."""
    if statement is None:
        return set()
    if isinstance(statement, ast.Block):
        names: set[str] = set()
        for inner in statement.statements:
            names |= _nonblocking_targets(inner)
        return names
    if isinstance(statement, ast.NonBlockingAssign):
        return _assign_target_names(statement.target)
    if isinstance(statement, ast.IfStatement):
        return _nonblocking_targets(statement.then_branch) | _nonblocking_targets(
            statement.else_branch
        )
    if isinstance(statement, ast.CaseStatement):
        names = set()
        for item in statement.items:
            names |= _nonblocking_targets(item.body)
        return names
    if isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
        return _nonblocking_targets(statement.body)
    if isinstance(statement, (ast.DelayStatement, ast.EventWait)):
        return _nonblocking_targets(statement.body)
    return set()


def _assign_target_names(target: ast.Expression) -> set[str]:
    if isinstance(target, ast.Concat):
        names: set[str] = set()
        for part in target.parts:
            names |= _assign_target_names(part)
        return names
    return {_target_base_name(target)}


# --------------------------------------------------------------------------- cone builders
def build_combinational_cone(
    module,
    aig: AIG | None = None,
    input_literals: Mapping[str, SymVector] | None = None,
    module_name: str | None = None,
    parameter_overrides: dict[str, int] | None = None,
    undef_prefix: str = "",
) -> ConeResult:
    """Lower a combinational module into an AIG.

    Args:
        module: parsed module, Verilog source text (compiled through the
            default :class:`~repro.verilog.design.DesignDatabase`), or an
            already-compiled :class:`~repro.verilog.design.CompiledDesign`.
        aig: graph to build into (a fresh one when omitted); pass the same graph
            and ``input_literals`` for both designs to construct miters.
        input_literals: input port name → literal vector to share.
        module_name: module selection when ``module`` is source text.
        parameter_overrides: parameter overrides for elaboration.
        undef_prefix: disambiguates undef-input names when several cones share
            one graph.

    Raises:
        FormalEncodingError: on sequential processes or unsupported constructs.
    """
    compiled = coerce_compiled(module, module_name, parameter_overrides)
    design = compiled.elaborate()
    if compiled.has_sequential_processes:
        raise FormalEncodingError(
            f"module {design.name!r} has edge-triggered processes; use "
            "SequentialUnroller for bounded sequential equivalence"
        )
    executor = SymbolicExecutor(
        design, aig if aig is not None else AIG(), input_literals, undef_prefix
    )
    executor.run_initial_blocks()
    executor.settle()
    outputs = {
        port.name: executor.values[port.name] for port in design.output_ports()
    }
    return ConeResult(
        aig=executor.aig,
        inputs=dict(executor.input_vectors),
        outputs=outputs,
        undef_inputs=set(executor.undef_inputs),
    )


@dataclass(frozen=True)
class TransitionRelation:
    """One clock step of a sequential design, symbolically executed once.

    ``settle → clock edge → settle`` runs with the clock parked low, the reset
    inactive and every other signal read from a free input named after it:
    the data inputs and the *state* (every non-input signal, registers and
    wires alike).  ``next_state`` is the state after the step; ``gates`` are
    the AND nodes feeding it, ``(node, left, right)`` in creation order, out
    of ``size`` nodes in the relation's graph.
    """

    inputs: dict[str, SymVector]
    next_state: dict[str, SymVector]
    gates: tuple[tuple[int, int, int], ...]
    size: int

    def frame(
        self, target: AIG, literals: Mapping[str, SymVector]
    ) -> dict[str, SymVector]:
        """The next state in ``target``, each free input replaced by ``literals``.

        Every gate is rebuilt through ``target.AND``, so the copy is
        hash-consed and constant-folded against everything already there.
        """
        image = [FALSE] * self.size
        for name, vector in self.inputs.items():
            for literal, replacement in zip(vector.bits, literals[name].bits):
                image[literal >> 1] = replacement
        conjoin = target.AND
        for node, left, right in self.gates:
            image[node] = conjoin(
                image[left >> 1] ^ (left & 1), image[right >> 1] ^ (right & 1)
            )
        return {
            name: SymVector(tuple(image[bit >> 1] ^ (bit & 1) for bit in vector.bits))
            for name, vector in self.next_state.items()
        }


def encode_transition_relation(
    compiled: CompiledDesign,
    clock: str,
    reset: ResetSpec | None,
    aig: AIG | None = None,
) -> TransitionRelation:
    """Symbolically execute one clock step of ``compiled`` (see :class:`TransitionRelation`).

    The step is executed in ``aig``, which must be empty (a fresh
    :class:`AIG` when omitted).
    """
    design = compiled.elaborate()
    aig = AIG() if aig is None else aig
    pin = reset_pin(compiled, reset)
    inputs = {
        name: SymVector(tuple(aig.add_input(f"{name}[{bit}]") for bit in range(width)))
        for name, width in design.store.widths.items()
        if name not in (clock, pin)
    }
    executor = SymbolicExecutor(design, aig, input_literals=inputs)
    executor.set_concrete(clock, 0)
    if pin is not None:
        executor.set_concrete(pin, 1 if reset.active_low else 0)
    executor.settle()
    executor.clock_step()
    executor.settle()
    ports = {port.name for port in design.input_ports()}
    next_state = {name: executor.values[name] for name in inputs if name not in ports}
    roots = [bit for vector in next_state.values() for bit in vector.bits]
    gates = tuple(
        (node, *aig.fanin(node))
        for node in sorted(aig.cone(roots))
        if not aig.is_input(node)
    )
    return TransitionRelation(inputs, next_state, gates, aig.num_nodes)


class SequentialUnroller:
    """Bounded unrolling of a (single-clock) sequential module.

    Every time frame is a substituted copy of the design's
    :class:`TransitionRelation`.  Unrolling starts from the concrete
    post-reset state —
    :func:`~repro.verilog.simulator.testbench.reset_state` under the task's
    ``reset``, the very snapshot the testbench runners start from — or from
    any symbolic state (:meth:`symbolic_state`).  The reset pin is held
    inactive in every frame when it is an input port of the design; a design
    that names its reset otherwise has no reset here, and that pin is a data
    input.  Register bits still ``x`` after reset become tagged undef inputs
    (outputs depending on them are rejected at proof time).  The relation
    and the reset state are memoised on the
    :class:`~repro.verilog.design.CompiledDesign`.
    """

    def __init__(
        self,
        module,
        aig: AIG,
        clock: str = "clk",
        reset: ResetSpec | None = ResetSpec(),
        module_name: str | None = None,
        parameter_overrides: dict[str, int] | None = None,
        undef_prefix: str = "",
    ):
        compiled = coerce_compiled(module, module_name, parameter_overrides)
        self.compiled = compiled
        self.module = compiled.module
        self.aig = aig
        self.clock = clock
        self.reset = reset
        self.design = compiled.elaborate()
        self.undef_prefix = undef_prefix
        #: The reset pin held inactive while unrolling (``None``: no reset).
        self.reset_pin = reset_pin(compiled, reset)
        self._check_clocking()
        self.data_inputs = [
            port.name
            for port in self.design.input_ports()
            if port.name not in (clock, self.reset_pin)
        ]

    def _check_clocking(self) -> None:
        edges_on_clock: set[ast.EdgeKind] = set()
        for process in self.design.processes:
            if process.kind is not ProcessKind.SEQUENTIAL:
                continue
            clock_edges = [
                edge for edge, signal in process.edge_signals() if signal == self.clock
            ]
            if not clock_edges:
                raise FormalEncodingError(
                    f"sequential process in {self.design.name!r} is not clocked by "
                    f"{self.clock!r}"
                )
            edges_on_clock.update(clock_edges)
            for edge, signal in process.edge_signals():
                if signal not in (self.clock, self.reset_pin):
                    raise FormalEncodingError(
                        f"sequential process is sensitive to {signal!r}, which is "
                        "neither the clock nor the (constant-inactive) reset"
                    )
        if len(edges_on_clock) > 1:
            raise FormalEncodingError(
                "mixed posedge/negedge clocking cannot be unrolled as one edge per step"
            )

    # ------------------------------------------------------------------ built once per design
    def relation(self) -> TransitionRelation:
        """The design's transition relation under this clocking."""
        return self.compiled.derived(
            ("transition-relation", self.clock, self.reset),
            lambda: encode_transition_relation(self.compiled, self.clock, self.reset),
        )

    def reset_state(self):
        """Concrete post-reset signal values (name → ``LogicVector``)."""
        return reset_state(self.compiled, self.clock, self.reset)

    # ------------------------------------------------------------------ unrolling
    def unroll(
        self,
        step_inputs: Sequence[Mapping[str, SymVector]],
        initial_state: Mapping[str, SymVector] | None = None,
    ) -> tuple[list[dict[str, SymVector]], set[str]]:
        """Unroll ``len(step_inputs)`` clock steps; returns per-step outputs.

        Args:
            step_inputs: one mapping (data-input name → literal vector) per
                step; share these vectors across designs to build a miter.
            initial_state: literal vectors for every non-input signal (see
                :meth:`symbolic_state`); the concrete reset state when omitted.

        Returns:
            ``(outputs_per_step, undef_input_names)``: the reset-state bits
            still ``x`` that feed some output.
        """
        relation = self.relation()
        undefs: set[str] = set()
        state = initial_state
        if state is None:
            state = self._reset_literals(relation, undefs)
        output_names = [port.name for port in self.design.output_ports()]
        outputs_per_step: list[dict[str, SymVector]] = []
        for step, inputs in enumerate(step_inputs):
            literals = dict(state)
            for name in self.data_inputs:
                vector = inputs.get(name)
                if vector is None:
                    raise FormalEncodingError(
                        f"step {step} is missing a literal vector for input {name!r}"
                    )
                literals[name] = vector.resized(relation.inputs[name].width)
            state = relation.frame(self.aig, literals)
            outputs_per_step.append({name: state[name] for name in output_names})
        if undefs:
            roots = [
                literal
                for step in outputs_per_step
                for vector in step.values()
                for literal in vector.bits
            ]
            undefs &= self.aig.support(roots)
        return outputs_per_step, undefs

    def _reset_literals(
        self, relation: TransitionRelation, undefs: set[str]
    ) -> dict[str, SymVector]:
        """The reset state as literals; bits still ``x`` become tagged undef inputs."""
        initial = self.reset_state()
        state: dict[str, SymVector] = {}
        for name, vector in relation.next_state.items():
            concrete = initial[name]
            bits = []
            for bit in range(vector.width):
                if (concrete.xz_mask >> bit) & 1:
                    undef_name = f"__undef__{self.undef_prefix}{name}[{bit}]@reset"
                    bits.append(self.aig.add_input(undef_name))
                    undefs.add(undef_name)
                else:
                    bits.append(TRUE if (concrete.value >> bit) & 1 else FALSE)
            state[name] = SymVector(tuple(bits))
        return state

    def symbolic_state(self, prefix: str) -> dict[str, SymVector]:
        """Fresh inputs ``{prefix}{name}[{bit}]`` for every non-input signal.

        Unrolling from this state ranges over every register state, reachable
        or not (the k-induction step).
        """
        ports = {port.name for port in self.design.input_ports()}
        return {
            name: SymVector(
                tuple(self.aig.add_input(f"{prefix}{name}[{bit}]") for bit in range(width))
            )
            for name, width in self.design.store.widths.items()
            if name not in ports
        }

    def make_step_inputs(self, steps: int, prefix: str = "") -> list[dict[str, SymVector]]:
        """Declare fresh per-step input vectors named ``{name}@{step}[{bit}]``."""
        widths = self.design.store.widths
        return [
            {
                name: SymVector(
                    tuple(
                        self.aig.add_input(f"{prefix}{name}@{step}[{bit}]")
                        for bit in range(widths[name])
                    )
                )
                for name in self.data_inputs
            }
            for step in range(steps)
        ]
