"""Word-level lowering of the fused clocked run (``codegen_run``).

A clocked design's fused run keeps every signal in generator locals across a
whole stimulus sequence on one lane, so it is lowered word by word rather
than as the lanes' bit columns: each signal is one two-state ``int`` masked
to its width, ``if``/``case``/``casez`` become Python ``if``/``elif`` chains
(``casez`` a mask compare), expression widths follow the scalar evaluator
(:mod:`~repro.verilog.simulator.eval`), and non-blocking assignments commit
after every triggered process, as ``commit_nonblocking`` does.
:func:`build_run` is called by :mod:`~repro.verilog.codegen`, which owns the
artifact types, the x/z gates and the runtime
(:class:`~repro.verilog.codegen.SequenceRun`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import ast_nodes as ast
from .codegen import (
    _ATOM_RE,
    MAX_GENERATED_LINES,
    SequenceProgram,
    UnsupportedConstruct,
    _part_bounds,
)
from .simulator.simulator import MAX_SETTLE_ITERATIONS

if TYPE_CHECKING:
    from .codegen import _Generator, _ProcessScan
    from .simulator.scheduler import Process


#: Bind a lowered expression to a temporary beyond this nesting depth, which
#: keeps generated expressions far from the Python parser's nesting limits.
MAX_EXPRESSION_DEPTH = 24

#: Reject a fused run whose statements nest deeper than this many blocks
#: (Python allows 100 levels of indentation).
MAX_NESTING = 90

#: Reject a fused run whose statements nest deeper than this as Python's
#: compiler counts them: an ``elif`` is an ``if`` in the previous arm's
#: ``else``, so a case chain nests one level per arm without indenting, and
#: ``compile()`` recurses once per level (it fails a few thousand deep).
MAX_STATEMENT_DEPTH = 1000


def _mask(width: int) -> int:
    return (1 << width) - 1


def _indent(lines: list[str], levels: int) -> list[str]:
    prefix = "    " * levels
    return [prefix + line for line in lines]


def _nesting(lines: list[str]) -> tuple[int, int]:
    """The deepest indentation of ``lines`` and their deepest statement nesting.

    An ``elif`` or ``else`` line nests one level below the arm before it.
    """
    depths: list[int] = []  # depth of the last statement at each indentation
    deepest_indent = deepest = 0
    for line in lines:
        indent = (len(line) - len(line.lstrip(" "))) // 4
        if len(depths) > indent and line.startswith(("elif ", "else:"), indent * 4):
            depth = depths[indent] + 1
        else:
            depth = depths[indent - 1] + 1 if indent else 0
        del depths[indent:]
        depths.append(depth)
        deepest_indent = max(deepest_indent, indent)
        deepest = max(deepest, depth)
    return deepest_indent, deepest


def _is_if_chain(lines: list[str]) -> bool:
    """Whether ``lines`` are exactly one ``if`` statement (so may follow ``el``)."""
    return bool(lines) and lines[0].startswith("if ") and all(
        line.startswith((" ", "elif ", "else:")) for line in lines[1:]
    )


def build_run(
    gen: _Generator,
    comb: list[Process],
    comb_scans: list[_ProcessScan],
    seq: list[Process],
    seq_scans: list[_ProcessScan],
) -> SequenceProgram | None:
    """The fused ``codegen_run`` generator for a clocked design.

    Lowered word by word (:class:`_WordLowerer`).  Mirrors
    ``ModuleSimulator.apply_inputs`` per application: edges on the applied
    inputs' bit 0, settle, triggered processes, settle.  Two settles are
    skipped where the scalar engine's are no-ops: the state is settled
    between applications, so only a changed comb-read input (or a
    sequential pass) can move the fixpoint.
    """
    ports = gen.design.ports
    input_widths = {
        port.name: port.width
        for port in ports
        if port.direction is ast.PortDirection.INPUT
    }
    settle_names: set[str] = set()
    for scan in comb_scans:
        settle_names |= scan.external_reads | scan.writes
    state_names = set(settle_names)
    written: set[str] = set()
    for scan in seq_scans:
        state_names |= scan.external_reads | scan.writes
    for scan in comb_scans + seq_scans:
        written |= scan.writes
    edge_inputs = sorted(
        {
            signal
            for process in seq
            for _, signal in process.edge_signals()
            if signal in input_widths
        }
    )
    inputs = tuple(
        (name, input_widths[name])
        for name in sorted(input_widths)
        if name in state_names or name in edge_inputs
    )
    slot = {name: index for index, (name, _) in enumerate(inputs)}
    # An applied input lives in its previous-value local ``_p<slot>``.
    variables = dict(gen.varname)
    variables.update((name, f"_p{index}") for name, index in slot.items())

    # Combinational processes first: rejections come in the order the
    # lanes' lowering raises them for a combinational design.
    lowerer = _WordLowerer(gen, variables, seq)
    settle_lines = lowerer.settle(comb, comb_scans)
    seq_lines = lowerer.sequential(seq)
    if written & set(input_widths) or not inputs:
        return None  # a driven input is not a plain stimulus any more

    # Edges compare ``_i<slot>`` (applied) with ``_p<slot>`` (previous),
    # and so does the settle's dirty mark for a comb-read input; every
    # other input unpacks straight into its ``_p<slot>``.
    dirty = [
        index for index, (name, _) in enumerate(inputs) if settle_lines and name in settle_names
    ]
    watched = [
        index for index, (name, _) in enumerate(inputs) if index in dirty or name in edge_inputs
    ]
    masks = []
    for process in seq:
        terms = []
        for edge, signal in process.edge_signals():
            if signal not in slot:
                continue  # internal signals are never applied: no edge
            new, old = f"_i{slot[signal]}", f"_p{slot[signal]}"
            if edge is ast.EdgeKind.POSEDGE:
                terms.append(f"{new} & ~{old} & 1")
            else:
                terms.append(f"{old} & ~{new} & 1")
        masks.append(" | ".join(terms) if terms else "0")
    body: list[str] = []
    if settle_lines:
        changed = " or ".join(f"_i{index} != _p{index}" for index in dirty)
        body.append(f"_dirty = {changed or 0}")
    if len(seq) == 1:
        body.append(f"_seq = {masks[0]}")
    else:
        body.extend(f"_m{index} = {mask}" for index, mask in enumerate(masks))
        body.append(f"_seq = {' | '.join(f'_m{index}' for index in range(len(seq)))}")
    if watched:
        body.append(
            f"{', '.join(f'_p{index}' for index in watched)} = "
            f"{', '.join(f'_i{index}' for index in watched)}"
        )
    if settle_lines:
        body.append("while True:")
        body.append("    if _dirty:")
        body.append(f"        for _pass in range({MAX_SETTLE_ITERATIONS}):")
        body.append("            _chg = False")
        body.extend(_indent(settle_lines, 3))
        body.append("            if not _chg:")
        body.append("                break")
        body.append("        else:")
        body.append("            raise SimulationError(settle_error)")
        body.append("    if not _seq:")
        body.append("        break")
        body.extend(_indent(seq_lines, 1))
        body.append("    _seq = 0")
        body.append("    _dirty = 1")
    else:
        body.append("if _seq:")
        body.extend(_indent(seq_lines, 1))

    state = tuple((name, gen.widths[name]) for name in sorted(state_names))
    outputs = tuple(
        (port.name, port.width)
        for port in ports
        if port.direction is ast.PortDirection.OUTPUT and port.name in state_names
    )
    registers = [variables[name] for name, _ in state if name not in slot]
    previous = ", ".join(f"_p{index}" for index in range(len(inputs)))
    lines = [
        "def codegen_run(state, check_deadline, SimulationError, settle_error, "
        f"{previous}):"
    ]
    if registers:
        lines.append(f"    ({', '.join(registers)},) = state")
    lines.append("    _events = yield")
    lines.append("    while True:")
    applied = ", ".join(
        f"_i{index}" if index in watched else f"_p{index}" for index in range(len(inputs))
    )
    lines.append(f"        for ({applied},) in _events:")
    lines.extend(_indent(body, 3))
    lines.append('        check_deadline("codegen_run")')
    lines.append(
        f"        _events = yield ({''.join(f'{variables[name]}, ' for name, _ in outputs)})"
    )
    lines.append("        while _events is None:")
    lines.append(
        f"            _events = yield ({''.join(f'{variables[name]}, ' for name, _ in state)})"
    )
    indent, depth = _nesting(lines)
    if (
        len(lines) > MAX_GENERATED_LINES
        or indent > MAX_NESTING
        or depth > MAX_STATEMENT_DEPTH
    ):
        raise UnsupportedConstruct("code-size")
    return SequenceProgram(
        source="\n".join(lines) + "\n",
        state=state,
        inputs=inputs,
        outputs=outputs,
        edge_inputs=tuple(edge_inputs),
    )


# Folded truth values: 1, 0 or ``None`` (not constant).
def _t_not(a):
    return None if a is None else 1 - a


def _t_and(a, b):
    if a == 0 or b == 0:
        return 0
    return None if a is None or b is None else 1


def _t_or(a, b):
    if a == 1 or b == 1:
        return 1
    return None if a is None or b is None else 0


class _Word:
    """One lowered expression: a Python ``int`` expression below ``2**width``.

    ``value`` is its folded value when constant folding fixes it, else
    ``None``; a branch whose condition folds is lowered only when it can
    run, as the column lowering skips dead code.  ``boolean`` marks an
    expression that may evaluate to a ``bool``; ``depth`` is its nesting.
    """

    __slots__ = ("width", "expr", "value", "boolean", "depth")

    def __init__(self, width, expr, value=None, boolean=False, depth=0):
        self.width = width
        self.expr = expr
        self.value = value
        self.boolean = boolean
        self.depth = depth

    @property
    def const(self) -> bool:
        return self.value is not None

    def truth(self):
        """The folded truth: 1, 0 or ``None``."""
        return None if self.value is None else int(self.value != 0)

    def widened(self, width: int) -> "_Word":
        return _Word(width, self.expr, self.value, self.boolean, self.depth)


def _merged(base: str, width: int, lsb: int, nbits: int, part: str) -> str:
    """``base`` with bits ``[lsb, lsb + nbits)`` replaced by ``part``."""
    if lsb == 0 and nbits == width:
        return part
    keep = f"{base} & {_mask(width) ^ (_mask(nbits) << lsb)}"
    if part == "0":
        return keep
    return f"{keep} | {part}" if lsb == 0 else f"{keep} | {part} << {lsb}"


def _assigned(statement, blocking: set[str], nonblocking: set[str]) -> None:
    """Collect the signals ``statement`` assigns, by assignment kind."""
    if isinstance(statement, ast.Block):
        for inner in statement.statements:
            _assigned(inner, blocking, nonblocking)
    elif isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
        names = blocking if isinstance(statement, ast.BlockingAssign) else nonblocking
        pending = [statement.target]
        while pending:
            target = pending.pop()
            if isinstance(target, ast.Concat):
                pending.extend(target.parts)
            elif isinstance(target, (ast.BitSelect, ast.PartSelect)):
                pending.append(target.target)
            elif isinstance(target, ast.Identifier):
                names.add(target.name)
    elif isinstance(statement, ast.IfStatement):
        _assigned(statement.then_branch, blocking, nonblocking)
        _assigned(statement.else_branch, blocking, nonblocking)
    elif isinstance(statement, ast.CaseStatement):
        for item in statement.items:
            _assigned(item.body, blocking, nonblocking)
    elif isinstance(statement, (ast.DelayStatement, ast.EventWait)):
        _assigned(statement.body, blocking, nonblocking)


class _WordLowerer:
    """Lowers processes to word-level Python with real control flow.

    Every signal is one two-state ``int`` masked to its width (``variables``
    names its local); ``if``/``case`` become ``if``/``elif`` chains, and
    expression widths follow the scalar evaluator
    (:mod:`~repro.verilog.simulator.eval`).  Rejections follow the column
    lowering's order: a branch whose condition folds to a constant is lowered
    only when it can run, and non-blocking targets are checked once every
    process is lowered, where the column lowering emitted its commits.  Only
    whole words fold (plus ``x & 0``, ``x | ~0``, ``x < 0`` and shifts past
    the width), where the column lowering folds bit by bit: code behind a
    condition that only its bits fix, such as ``(a & 4'b0100) == 4'b0010``,
    is lowered here, so a construct the lowering rejects there rejects the
    design, which the scalar simulator then runs.

    Non-blocking assignments commit after every triggered process, in
    execution order, as ``commit_nonblocking`` does: each signal's go to a
    shadow ``_n<var>`` committed after the pass, except that a signal an
    edge-triggered process also assigns blocking keeps one pending value per
    assignment.
    """

    def __init__(self, gen: _Generator, variables: dict[str, str], seq: list[Process]):
        self.gen = gen
        self.var = variables
        self._counter = 0
        blocking: set[str] = set()
        nonblocking: set[str] = set()
        for process in seq:
            _assigned(process.body, blocking, nonblocking)
        #: Signals whose non-blocking commits stay per assignment.
        self._pending_only = blocking & nonblocking
        #: Shadowed signal → shadow local, in first-assignment order.
        self._shadows: dict[str, str] = {}
        #: (pending local, signal, lsb, nbits) per assignment, in order.
        self._pending: list[tuple[str, str, int, int]] = []
        self._deferred: UnsupportedConstruct | None = None

    def _fresh(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    # -------------------------------------------------------------- processes
    def sequential(self, processes: list[Process]) -> list[str]:
        """One pass of the triggered processes (``if _m<i>:``) and its commits.

        A lone process is not guarded: the pass runs only when it triggered.
        """
        passes: list[str] = []
        for index, process in enumerate(processes):
            lines: list[str] = []
            self.statement(process.body, lines, nonblocking=True)
            if len(processes) == 1:
                passes = lines  # the pass runs only when its process triggered
            elif lines:
                passes.append(f"if _m{index}:")
                passes.extend(_indent(lines, 1))
        if self._deferred is not None:
            raise self._deferred
        out = [f"{shadow} = {self.var[name]}" for name, shadow in self._shadows.items()]
        out.extend(f"{local} = None" for local, *_ in self._pending)
        out.extend(passes)
        out.extend(f"{self.var[name]} = {shadow}" for name, shadow in self._shadows.items())
        for local, name, lsb, nbits in self._pending:
            var = self.var[name]
            out.append(f"if {local} is not None:")
            out.append(f"    {var} = {_merged(var, self.gen.widths[name], lsb, nbits, local)}")
        return out

    def settle(self, processes: list[Process], scans: list[_ProcessScan]) -> list[str]:
        """One settle pass over the combinational processes (sets ``_chg``)."""
        out: list[str] = []
        for process, scan in zip(processes, scans):
            written = [self.var[name] for name in sorted(scan.writes)]
            out.extend(f"_w{var} = {var}" for var in written)
            self.statement(process.body, out, nonblocking=False)
            if written:
                changed = " or ".join(f"{var} != _w{var}" for var in written)
                out.append(f"_chg = _chg or {changed}")
        return out

    # -------------------------------------------------------------- statements
    def statement(self, node: ast.Statement | None, out: list[str], *, nonblocking: bool) -> None:
        if node is None or isinstance(node, ast.NullStatement):
            return
        if isinstance(node, ast.Block):
            for inner in node.statements:
                self.statement(inner, out, nonblocking=nonblocking)
            return
        if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
            value = self.lower(node.value, out)
            if nonblocking and isinstance(node, ast.NonBlockingAssign):
                self._schedule(node.target, value, out)
            else:
                self._store(node.target, value, out)
            return
        if isinstance(node, ast.IfStatement):
            condition = self.lower(node.condition, out)
            truth = condition.truth()
            then_lines: list[str] = []
            else_lines: list[str] = []
            if truth != 0:
                self.statement(node.then_branch, then_lines, nonblocking=nonblocking)
            if truth != 1:
                self.statement(node.else_branch, else_lines, nonblocking=nonblocking)
            if truth is not None:
                out.extend(then_lines if truth else else_lines)
            elif then_lines:
                out.append(f"if {condition.expr}:")
                out.extend(_indent(then_lines, 1))
                self._else(else_lines, out)
            elif else_lines:
                out.append(f"if not {condition.expr}:")
                out.extend(_indent(else_lines, 1))
            return
        if isinstance(node, ast.CaseStatement):
            self._case(node, out, nonblocking)
            return
        if isinstance(node, (ast.DelayStatement, ast.EventWait)):
            self.statement(node.body, out, nonblocking=nonblocking)
            return
        if isinstance(node, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
            raise UnsupportedConstruct("loop")
        if isinstance(node, ast.SystemTaskCall):
            raise UnsupportedConstruct("system-task")
        raise UnsupportedConstruct(f"statement:{type(node).__name__}")

    @staticmethod
    def _else(lines: list[str], out: list[str]) -> None:
        if not lines:
            return
        if _is_if_chain(lines):
            out.append("el" + lines[0])
            out.extend(lines[1:])
        else:
            out.append("else:")
            out.extend(_indent(lines, 1))

    def _case(self, node: ast.CaseStatement, out: list[str], nonblocking: bool) -> None:
        """An ``if``/``elif`` chain; every label reads the pre-case values."""
        subject = self.lower(node.subject, out)
        if not subject.const and not _ATOM_RE.match(subject.expr):
            temp = self._fresh()
            out.append(f"{temp} = {subject.expr}")
            subject = _Word(subject.width, temp, boolean=subject.boolean)
        arms: list[tuple[list[str], list[str]]] = []
        final: list[str] | None = None
        open_ = True  # the column lowering's remaining mask is not constant 0
        default_item: ast.CaseItem | None = None
        for item in node.items:
            if item.is_default:
                default_item = item
                continue
            conditions: list[str] = []
            body: list[str] | None = None
            always = False
            for expression in item.expressions:
                condition, match = self._case_match(node.kind, subject, expression, out)
                if open_ and match != 0:
                    if body is None:
                        body = []
                        self.statement(item.body, body, nonblocking=nonblocking)
                    if match == 1:
                        always = True
                    else:
                        conditions.append(condition)
                if match == 1:
                    open_ = False
            if body is None:
                continue
            if always:
                final = body
            else:
                arms.append((conditions, body))
        if default_item is not None and open_:
            final = []
            self.statement(default_item.body, final, nonblocking=nonblocking)
        if not arms:
            out.extend(final or ())
            return
        for index, (conditions, body) in enumerate(arms):
            keyword = "if" if index == 0 else "elif"
            out.append(f"{keyword} {' or '.join(conditions)}:")
            out.extend(_indent(body or ["pass"], 1))
        if final:
            out.append("else:")
            out.extend(_indent(final, 1))

    def _case_match(
        self, kind: str, subject: _Word, candidate: ast.Expression, out: list[str]
    ) -> tuple[str, int | None]:
        """The label's match condition and its folded value (1, 0 or ``None``)."""
        if isinstance(candidate, ast.Number):
            width = max(subject.width, candidate.width or 32)
            full = _mask(width)
            xz = candidate.xz_mask & full
            wildcard = xz if kind == "casex" else (xz & candidate.value if kind == "casez" else 0)
            care = full & ~wildcard
            value = candidate.value & care
            # An x (or any x/z in a plain case), or a 1 above the subject,
            # never matches.
            if xz & ~wildcard or value >> subject.width:
                return "False", 0
            care &= _mask(subject.width)
            if subject.const:
                return ("False", 0) if (subject.value ^ value) & care else ("True", 1)
            if not care:
                return "True", 1
            if care == _mask(subject.width):
                return f"{subject.expr} == {value}", None
            return f"{subject.expr} & {care} == {value}", None
        label = self.lower(candidate, out)
        match = int(subject.value == label.value) if subject.const and label.const else None
        return f"{subject.expr} == {label.expr}", match

    # -------------------------------------------------------------- assignment
    def _pieces(self, target: ast.Expression, offset: int = 0) -> list[tuple[str, int, int, int]]:
        """``(signal, lsb, nbits, value offset)`` per written field, in order.

        Raises exactly as the column lowering's ``_assign_inner`` does.
        """
        if isinstance(target, ast.Identifier):
            return [(target.name, 0, self.gen.widths[target.name], offset)]
        if isinstance(target, ast.BitSelect):
            name, declared = self.gen.select_base(target.target)
            index = self.gen.const_int(target.index)
            if index is None:
                raise UnsupportedConstruct("non-constant-select")
            if not 0 <= index < declared:
                raise UnsupportedConstruct("select-out-of-range")
            return [(name, index, 1, offset)]
        if isinstance(target, ast.PartSelect):
            name, declared = self.gen.select_base(target.target)
            first = self.gen.const_int(target.msb)
            second = self.gen.const_int(target.lsb)
            if first is None or second is None:
                raise UnsupportedConstruct("non-constant-select")
            msb, lsb = _part_bounds(target.mode, first, second)
            if not 0 <= lsb <= msb < declared:
                raise UnsupportedConstruct("select-out-of-range")
            return [(name, lsb, msb - lsb + 1, offset)]
        if isinstance(target, ast.Concat):
            widths = [self.gen.target_width(part) for part in target.parts]
            pieces: list[tuple[str, int, int, int]] = []
            position = sum(widths)
            for part, width in zip(target.parts, widths):
                position -= width
                pieces.extend(self._pieces(part, offset + position))
            return pieces
        raise UnsupportedConstruct(f"target:{type(target).__name__}")

    def _fields(self, pieces, value: _Word, out: list[str]):
        """``(signal, lsb, nbits, int expression)`` of each piece's value bits."""
        if len(pieces) > 1 and not value.const and not _ATOM_RE.match(value.expr):
            temp = self._fresh()
            out.append(f"{temp} = {value.expr}")
            value = _Word(value.width, temp, boolean=value.boolean)
        for name, lsb, nbits, offset in pieces:
            field = _mask(nbits)
            fits = value.width <= offset + nbits  # no bits above the field
            if value.const or offset >= value.width:
                part = str((value.value or 0) >> offset & field)
            elif offset == 0 and fits:
                part = f"(+{value.expr})" if value.boolean else value.expr
            elif offset == 0:
                part = f"({value.expr} & {field})"
            elif fits:
                part = f"({value.expr} >> {offset})"
            else:
                part = f"({value.expr} >> {offset} & {field})"
            yield name, lsb, nbits, part

    def _store(self, target: ast.Expression, value: _Word, out: list[str]) -> None:
        for name, lsb, nbits, part in self._fields(self._pieces(target), value, out):
            var = self.var[name]
            out.append(f"{var} = {_merged(var, self.gen.widths[name], lsb, nbits, part)}")

    def _schedule(self, target: ast.Expression, value: _Word, out: list[str]) -> None:
        """A non-blocking assignment of an edge-triggered process."""
        try:
            pieces = self._pieces(target)
        except UnsupportedConstruct as exc:
            if self._deferred is None:
                self._deferred = exc
            return
        for name, lsb, nbits, part in self._fields(pieces, value, out):
            if name in self._pending_only:
                local = f"_v{len(self._pending)}"
                self._pending.append((local, name, lsb, nbits))
                out.append(f"{local} = {part}")
                continue
            local = self._shadows.setdefault(name, f"_n{self.var[name]}")
            out.append(f"{local} = {_merged(local, self.gen.widths[name], lsb, nbits, part)}")

    # -------------------------------------------------------------- expressions
    def _const(self, value: int, width: int) -> _Word:
        value &= _mask(width)
        return _Word(width, str(value), value)

    def _result(
        self, out: list[str], width: int, expr: str, value: int | None = None,
        *, boolean: bool = False, depth: int = 1,
    ) -> _Word:
        if value is not None:
            return self._const(value, width)
        if depth > MAX_EXPRESSION_DEPTH:
            temp = self._fresh()
            out.append(f"{temp} = {expr}")
            expr, depth = temp, 0
        return _Word(width, expr, None, boolean, depth)

    def _flag(self, out: list[str], value, expr: str, depth: int) -> _Word:
        """A one-bit result with folded value ``value`` (1, 0 or ``None``)."""
        return self._result(out, 1, expr, value, boolean=True, depth=depth)

    @staticmethod
    def _truth_expr(word: _Word) -> str:
        return word.expr if word.width == 1 else f"({word.expr} != 0)"

    def lower(self, node: ast.Expression, out: list[str]) -> _Word:
        if isinstance(node, ast.Number):
            if node.xz_mask:
                raise UnsupportedConstruct("xz-literal")
            return self._const(node.value, node.width if node.width is not None else 32)
        if isinstance(node, ast.Identifier):
            name = node.name
            if name in self.gen.widths:
                return _Word(self.gen.widths[name], self.var[name])
            if name in self.gen.parameters:
                return self._const(self.gen.parameters[name], 32)
            raise UnsupportedConstruct("unknown-identifier")
        if isinstance(node, ast.UnaryOp):
            return self._unary(node, out)
        if isinstance(node, ast.BinaryOp):
            return self._binary(node, out)
        if isinstance(node, ast.Ternary):
            return self._ternary(node, out)
        if isinstance(node, ast.Concat):
            return self._concat([self.lower(part, out) for part in node.parts], out)
        if isinstance(node, ast.Replication):
            count = self.gen.const_int(node.count)
            if count is None or count <= 0:
                raise UnsupportedConstruct("non-constant-replication")
            value = self.lower(node.value, out)
            if count == 1:
                return value
            repeat = sum(1 << (index * value.width) for index in range(count))
            return self._result(
                out, value.width * count, f"({value.expr} * {repeat})",
                None if value.value is None else value.value * repeat, depth=value.depth + 1,
            )
        if isinstance(node, ast.BitSelect):
            target = self.lower(node.target, out)
            index = self.gen.const_int(node.index)
            if index is None:
                raise UnsupportedConstruct("non-constant-select")
            if not 0 <= index < target.width:
                raise UnsupportedConstruct("select-out-of-range")
            return self._slice(target, index, 1, out)
        if isinstance(node, ast.PartSelect):
            target = self.lower(node.target, out)
            first = self.gen.const_int(node.msb)
            second = self.gen.const_int(node.lsb)
            if first is None or second is None:
                raise UnsupportedConstruct("non-constant-select")
            msb, lsb = _part_bounds(node.mode, first, second)
            if not 0 <= lsb <= msb < target.width:
                raise UnsupportedConstruct("select-out-of-range")
            return self._slice(target, lsb, msb - lsb + 1, out)
        if isinstance(node, ast.FunctionCall):
            name = node.name
            if name in ("$signed", "$unsigned") and len(node.args) == 1:
                return self.lower(node.args[0], out)
            if name == "$clog2" and len(node.args) == 1:
                value = self.gen.const_int(node.args[0])
                if value is None:
                    raise UnsupportedConstruct("system-function")
                return self._const(max(0, (value - 1).bit_length()), 32)
            if name.startswith("$"):
                raise UnsupportedConstruct("system-function")
            raise UnsupportedConstruct("user-function")
        raise UnsupportedConstruct(f"expression:{type(node).__name__}")

    def _slice(self, word: _Word, lsb: int, width: int, out: list[str]) -> _Word:
        if lsb == 0 and width == word.width:
            return word
        expr = word.expr if lsb == 0 else f"{word.expr} >> {lsb}"
        if lsb + width < word.width:
            expr = f"{expr} & {_mask(width)}"
        value = None if word.value is None else word.value >> lsb
        return self._result(out, width, f"({expr})", value, depth=word.depth + 1)

    def _concat(self, parts: list[_Word], out: list[str]) -> _Word:
        width = sum(part.width for part in parts)
        constant = 0
        terms: list[str] = []
        position = width
        for part in parts:
            position -= part.width
            if part.const:
                constant |= part.value << position
            else:
                terms.append(part.expr if position == 0 else f"{part.expr} << {position}")
        if not terms:
            return self._const(constant, width)
        if len(terms) == 1 and not constant and parts[-1].expr == terms[0]:
            last = parts[-1]
            return _Word(width, last.expr, None, last.boolean, last.depth)
        if constant:
            terms.append(str(constant))
        depth = 1 + max(part.depth for part in parts)
        return self._result(out, width, f"({' | '.join(terms)})", depth=depth)

    def _unary(self, node: ast.UnaryOp, out: list[str]) -> _Word:
        operand = self.lower(node.operand, out)
        op = node.op
        width = operand.width
        full = _mask(width)
        x = operand.expr
        v = operand.value
        depth = operand.depth + 1
        if op == "+":
            return operand
        if op == "-":
            value = None if v is None else -v
            return self._result(out, width, f"(-{x} & {full})", value, depth=depth)
        if op == "~":
            value = None if v is None else ~v
            return self._result(out, width, f"({x} ^ {full})", value, depth=depth)
        if op == "!":
            expr = f"({x} ^ 1)" if width == 1 else f"({x} == 0)"
            return self._flag(out, _t_not(operand.truth()), expr, depth)
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            if op in ("&", "~&"):
                value = None if v is None else int(v == full)
                expr = f"({x} == {full})"
            elif op in ("|", "~|"):
                value = operand.truth()
                expr = f"({x} != 0)"
            else:
                value = None if v is None else v.bit_count() & 1
                expr = f"({x}.bit_count() & 1)"
            if width == 1:
                expr = x
            if op in ("~&", "~|", "~^", "^~"):
                return self._flag(out, _t_not(value), f"({expr} ^ 1)", depth)
            if width == 1:
                return operand
            return self._flag(out, value, expr, depth)
        raise UnsupportedConstruct(f"operator:{op}")

    def _binary(self, node: ast.BinaryOp, out: list[str]) -> _Word:
        op = node.op
        if op in ("*", "/", "%", "**"):
            raise UnsupportedConstruct("mul-div-mod")
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._shift(node, out)
        left = self.lower(node.left, out)
        right = self.lower(node.right, out)
        depth = 1 + max(left.depth, right.depth)
        a, b = left.expr, right.expr
        l, r = left.value, right.value
        both = left.const and right.const
        if op in ("&&", "||"):
            if op == "&&":
                value = _t_and(left.truth(), right.truth())
            else:
                value = _t_or(left.truth(), right.truth())
            keyword = "and" if op == "&&" else "or"
            expr = f"({self._truth_expr(left)} {keyword} {self._truth_expr(right)})"
            return self._flag(out, value, expr, depth)
        width = max(left.width, right.width)
        full = _mask(width)
        if op in ("==", "!=", "===", "!=="):
            value = int(l == r) if both else None
            if op in ("==", "==="):
                return self._flag(out, value, f"({a} == {b})", depth)
            return self._flag(out, _t_not(value), f"({a} != {b})", depth)
        if op in ("<", "<=", ">", ">="):
            if op in (">", ">="):
                l, r = r, l
            if both:
                value = int(l <= r if op in ("<=", ">=") else l < r)
            else:
                # Nothing is below zero or above all ones (the column
                # lowering folds these bounds).
                value = 0 if (r == 0 or l == full) and op in ("<", ">") else None
            return self._flag(out, value, f"({a} {op} {b})", depth)
        if op in ("+", "-"):
            value = (l + r if op == "+" else l - r) if both else None
            expr = f"({a} + {b})" if op == "+" else f"({a} - {b} & {_mask(width + 1)})"
            return self._result(out, width + 1, expr, value, depth=depth)
        if op in ("&", "|", "^", "~^", "^~"):
            if both:
                value = {"&": l & r, "|": l | r, "^": l ^ r}.get(op, ~(l ^ r))
            elif op == "&" and 0 in (l, r):
                value = 0  # and-ing with zero
            elif op == "|" and full in (l, r):
                value = full  # or-ing with ones
            else:
                value = None
            if op in ("~^", "^~"):
                return self._result(
                    out, width, f"({a} ^ {b} ^ {full})", value, depth=depth
                )
            boolean = left.boolean and right.boolean
            return self._result(
                out, width, f"({a} {op} {b})", value, boolean=boolean, depth=depth
            )
        raise UnsupportedConstruct(f"operator:{op}")

    def _shift(self, node: ast.BinaryOp, out: list[str]) -> _Word:
        left = self.lower(node.left, out)
        amount = self.gen.const_int(node.right)
        if amount is None:
            raise UnsupportedConstruct("non-constant-shift")
        if amount == 0:
            return left
        width = left.width
        full = _mask(width)
        x = left.expr
        v = left.value
        depth = left.depth + 1
        if node.op in ("<<", "<<<"):
            value = 0 if amount >= width else (None if v is None else v << amount)
            return self._result(out, width, f"({x} << {amount} & {full})", value, depth=depth)
        if node.op == ">>":
            value = 0 if amount >= width else (None if v is None else v >> amount)
            return self._result(out, width, f"({x} >> {amount})", value, depth=depth)
        top = 1 << (width - 1)
        value = None if v is None else ((v ^ top) - top) >> amount
        return self._result(
            out, width, f"(({x} ^ {top}) - {top} >> {amount} & {full})", value, depth=depth
        )

    def _ternary(self, node: ast.Ternary, out: list[str]) -> _Word:
        condition = self.lower(node.condition, out)
        truth = condition.truth()
        if_true = self.lower(node.if_true, out)
        if_false = self.lower(node.if_false, out)
        width = max(if_true.width, if_false.width)
        if truth is not None:
            return (if_true if truth else if_false).widened(width)
        value = 0 if if_true.value == 0 and if_false.value == 0 else None
        expr = f"({if_true.expr} if {condition.expr} else {if_false.expr})"
        depth = 1 + max(condition.depth, if_true.depth, if_false.depth)
        boolean = if_true.boolean or if_false.boolean
        return self._result(out, width, expr, value, boolean=boolean, depth=depth)
