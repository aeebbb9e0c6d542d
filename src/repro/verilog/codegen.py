"""Two-state Python code generation: the fast simulation engine.

For the large class of designs whose constructs all have a two-state form,
this module lowers the elaborated processes once into specialised Python
functions over bare integers — no AST, no objects, no four-state planes —
which ``compile()`` once and are cached process-wide by source text.  The
scalar :class:`~repro.verilog.simulator.simulator.ModuleSimulator` is the
oracle and takes every check generated code cannot.

Two-state soundness
-------------------

Generated code is *two-state*: it tracks values only and assumes every bit
it consumes is 0/1.  That is sound because

* designs whose semantics inherently produce x/z (undef sources, inferred
  latches, x/z literals, out-of-range selects, division) are **rejected at
  generation time** with a recorded reason, by both lowerings below, and
* before generated code runs, the runtime checks a *gate set* — the signals
  the code reads from outside its own recomputation, plus every write target
  whose old value can survive a partial or conditional write — and refuses
  while any of them still carries x/z bits; the check then leaves generated
  code for the scalar simulator.

Under those two conditions the generated settle loop reaches exactly the
fixpoint the scalar simulator reaches (same process order, same
iterate-until-stable loop), so the scalar simulator is a bit-exact
differential oracle.

Combinational lanes
-------------------

``codegen_settle`` settles every combinational process over column-packed
lanes: bit ``j`` of a column is one signal bit on stimulus lane ``j``, so one
call scores a whole stimulus set (:class:`CodegenRuntime`, driven by
:class:`~repro.verilog.simulator.batch.BatchSimulator`).  Lanes need masks,
so this lowering is bit-level column algebra: one local per signal bit, every
``if``/``case`` arm merged under its lane mask (:class:`_Lowerer`).

Fused clocked runs
------------------

Designs with edge-triggered processes get ``codegen_run`` instead: one
generator per design that keeps every signal in locals across a whole
stimulus sequence.  It runs one lane, so it is lowered **word by word**
(:mod:`~repro.verilog.wordgen`): each signal is one ``int`` masked to its width,
``if``/``case``/``casez`` are real ``if``/``elif`` chains (``casez`` a mask
compare), expression widths follow the scalar evaluator, and non-blocking
assignments commit after every triggered process, as ``commit_nonblocking``
does.  Each cycle is a list of *input applications* (full input tuples); for
each it detects bit-0 edges on the inputs, settles, runs the triggered
processes and settles again — the scalar ``ModuleSimulator`` schedule — and
then yields the output ports' values.  :class:`SequenceRun` drives it from a
scalar simulator's post-reset state (a live simulator's, or a memoised
snapshot of one's) once that state passes the program's x/z gate
(:meth:`SequenceProgram.ready`); from there two-state code cannot produce x
again.

Checks that leave generated code for the scalar simulator — design-level
rejections and x/z gate refusals — are recorded in a process-wide registry
(:func:`fallback_stats`) surfaced by the service ``/metrics`` endpoint.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass

from ..deadline import check_deadline
from . import ast_nodes as ast
from .simulator.eval import EvalContext, ExpressionEvaluator
from .simulator.scheduler import Process, ProcessKind
from .simulator.simulator import (
    MAX_SETTLE_ITERATIONS,
    ElaboratedModule,
    SimulationError,
)
from .simulator.values import BatchVector, LogicVector

__all__ = [
    "CodegenArtifact",
    "CodegenRuntime",
    "SequenceProgram",
    "SequenceRun",
    "UnsupportedConstruct",
    "fallback_stats",
    "generate",
    "record_fallback",
    "reset_fallback_stats",
]

#: Reject designs whose referenced signals are wider than this: the lanes'
#: lowering is bit-unrolled, so pathological widths would explode its code
#: (the word-level run rejects them too, for the same verdict routing).
MAX_SIGNAL_WIDTH = 256

#: Reject generated functions longer than this many lines (runaway designs).
MAX_GENERATED_LINES = 40_000

#: Per-call fallback reason recorded when the x/z gate fails.
XZ_STATE = "xz-state"


# ---------------------------------------------------------------------------
# fallback registry (process-wide; mirrored into /metrics)
# ---------------------------------------------------------------------------

_REGISTRY_LOCK = threading.Lock()
_FALLBACK_REASONS: dict[str, int] = {}
_FALLBACK_DESIGNS: dict[str, dict[str, int]] = {}


def record_fallback(design: str, reason: str) -> None:
    """Count one check of ``design`` that left generated code, with ``reason``."""
    with _REGISTRY_LOCK:
        _FALLBACK_REASONS[reason] = _FALLBACK_REASONS.get(reason, 0) + 1
        per_design = _FALLBACK_DESIGNS.setdefault(design, {})
        per_design[reason] = per_design.get(reason, 0) + 1


def fallback_stats() -> dict:
    """Snapshot of recorded fallbacks: total, by reason, and by design."""
    with _REGISTRY_LOCK:
        return {
            "total": sum(_FALLBACK_REASONS.values()),
            "reasons": dict(sorted(_FALLBACK_REASONS.items())),
            "designs": {
                design: dict(sorted(reasons.items()))
                for design, reasons in sorted(_FALLBACK_DESIGNS.items())
            },
        }


def reset_fallback_stats() -> None:
    with _REGISTRY_LOCK:
        _FALLBACK_REASONS.clear()
        _FALLBACK_DESIGNS.clear()


# ---------------------------------------------------------------------------
# compiled-function cache (keyed by source text; artifacts only carry strings)
# ---------------------------------------------------------------------------

#: Compiled functions kept process-wide; the oldest insertion is evicted
#: beyond this.  A design contributes up to two functions, so this holds
#: every function of a full default :class:`~repro.verilog.design.DesignDatabase`.
COMPILE_CACHE_ENTRIES = 1024

_COMPILE_LOCK = threading.Lock()
_COMPILE_CACHE: dict[str, object] = {}


def _compiled_function(source: str, name: str):
    with _COMPILE_LOCK:
        fn = _COMPILE_CACHE.get(source)
    if fn is None:
        namespace: dict = {}
        exec(compile(source, f"<codegen:{name}>", "exec"), namespace)
        fn = namespace[name]
        with _COMPILE_LOCK:
            _COMPILE_CACHE[source] = fn
            while len(_COMPILE_CACHE) > COMPILE_CACHE_ENTRIES:
                del _COMPILE_CACHE[next(iter(_COMPILE_CACHE))]
    return fn


# ---------------------------------------------------------------------------
# artifact
# ---------------------------------------------------------------------------


class UnsupportedConstruct(Exception):
    """Raised during generation when a construct has no straight-line form."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class SequenceProgram:
    """Source and signal lists of one design's fused ``codegen_run``.

    ``state`` — every signal the settle or sequential code reads or writes,
    so a superset of both gates — lives in the generator's locals, one
    ``int`` per signal (and so does its dump); ``inputs`` are the input ports
    every application tuple carries, in order; ``outputs`` the output ports
    each cycle yields, one value each; ``edge_inputs`` the input ports some
    process is edge-sensitive to.
    """

    source: str
    state: tuple[tuple[str, int], ...]
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    edge_inputs: tuple[str, ...]

    def ready(self, values: dict, driven, applied) -> bool:
        """Whether ``values`` may hand over before a vector driving ``driven``.

        The handover gate: every state signal must be x/z-free except inputs
        ``driven`` is about to define, and edge inputs ever ``applied`` must
        be x/z-free regardless — an edge from x is not a two-state edge.
        """
        for name, _ in self.state:
            if values[name].xz_mask and name not in driven:
                return False
        for name in self.edge_inputs:
            if name in applied and values[name].xz_mask:
                return False
        return True


@dataclass(frozen=True)
class CodegenArtifact:
    """Picklable result of lowering one elaborated design.

    Only source text and signal lists are stored (code objects do not
    pickle); the compiled functions are cached process-wide by source text.
    A rejected design carries ``reject_reason`` and nothing else, and a
    clocked design only its ``sequence``: lanes never run it.
    """

    reject_reason: str | None = None
    #: The lanes' ``codegen_settle`` (``None`` for a clocked design).
    settle_source: str | None = None
    #: Signals (name, width) flattened into the settle state tuple, in order.
    settle_state: tuple[tuple[str, int], ...] = ()
    #: Signals the settle function may modify (suffix of its return tuple).
    settle_writes: tuple[tuple[str, int], ...] = ()
    #: Signals that must be x/z-free for the settle call to be sound.
    settle_gate: tuple[str, ...] = ()
    #: Fused cycle loop for clocked designs (``None``: combinational, or a
    #: design whose processes write an input port or that has none to apply).
    sequence: SequenceProgram | None = None

    @property
    def supported(self) -> bool:
        return self.reject_reason is None


def generate(
    design: ElaboratedModule,
    *,
    has_latch_risk: bool = False,
    undef_sources: tuple[str, ...] | frozenset[str] = (),
) -> CodegenArtifact:
    """Lower ``design`` to straight-line Python, or record why it cannot be."""
    try:
        return _Generator(design, has_latch_risk, tuple(undef_sources)).build()
    except UnsupportedConstruct as exc:
        return CodegenArtifact(reject_reason=exc.reason)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"\A[A-Za-z_][A-Za-z0-9_]*\Z")


def _not(a: str) -> str:
    if a == "0":
        return "FULL"
    if a == "FULL":
        return "0"
    return f"({a} ^ FULL)"


def _and(a: str, b: str) -> str:
    if a == "0" or b == "0":
        return "0"
    if a == "FULL":
        return b
    if b == "FULL":
        return a
    return f"({a} & {b})"


def _or(a: str, b: str) -> str:
    if a == "FULL" or b == "FULL":
        return "FULL"
    if a == "0":
        return b
    if b == "0":
        return a
    return f"({a} | {b})"


def _xor(a: str, b: str) -> str:
    if a == "0":
        return b
    if b == "0":
        return a
    if a == "FULL":
        return _not(b)
    if b == "FULL":
        return _not(a)
    return f"({a} ^ {b})"


def _zext(cols: list[str], width: int) -> list[str]:
    if len(cols) >= width:
        return cols[:width]
    return cols + ["0"] * (width - len(cols))


class _Writer:
    """Collects straight-line statements and allocates fresh temporaries."""

    def __init__(self):
        self.lines: list[str] = []
        self._counter = 0

    def fresh(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def emit(self, line: str) -> None:
        self.lines.append(line)
        if len(self.lines) > MAX_GENERATED_LINES:
            raise UnsupportedConstruct("code-size")

    def atom(self, expr: str) -> str:
        """Bind ``expr`` to a temp unless it is already an atom."""
        if expr in ("0", "FULL") or _ATOM_RE.match(expr):
            return expr
        name = self.fresh()
        self.emit(f"{name} = {expr}")
        return name


class _ProcessScan:
    """Read/write analysis of one process (see :meth:`_Generator._scan`)."""

    def __init__(self):
        #: Signals read before being definitely assigned in this process.
        self.external_reads: set[str] = set()
        #: Base names of every assignment target (including partial selects).
        self.writes: set[str] = set()
        #: Signals fully and unconditionally assigned via a plain identifier.
        self.full_defined: set[str] = set()


class _Generator:
    def __init__(
        self,
        design: ElaboratedModule,
        has_latch_risk: bool,
        undef_sources: tuple[str, ...],
    ):
        self.design = design
        self.has_latch_risk = has_latch_risk
        self.undef_sources = undef_sources
        self.widths: dict[str, int] = dict(design.store.widths)
        self.parameters: dict[str, int] = dict(design.parameters)
        self._const_eval = ExpressionEvaluator(
            EvalContext(parameters=self.parameters, functions=dict(design.functions))
        )
        names = sorted(self.widths)
        self.varname = {name: f"s{index}" for index, name in enumerate(names)}

    @functools.cached_property
    def signal_vars(self) -> set[str]:
        """Every per-bit column local of the lanes' lowering."""
        return {
            f"{base}_{bit}"
            for name, base in self.varname.items()
            for bit in range(self.widths[name])
        }

    # ------------------------------------------------------------------ public
    def build(self) -> CodegenArtifact:
        if self.has_latch_risk:
            raise UnsupportedConstruct("latch")
        if self.undef_sources:
            raise UnsupportedConstruct("undef-source")
        comb = [p for p in self.design.processes if p.kind is ProcessKind.COMBINATIONAL]
        seq = [p for p in self.design.processes if p.kind is ProcessKind.SEQUENTIAL]

        comb_scans = [self._scan(p, nonblocking_defines=True) for p in comb]
        seq_scans = [self._scan(p, nonblocking_defines=False) for p in seq]
        self._reject_comb_cycles(comb_scans)

        referenced: set[str] = set()
        for scan in comb_scans + seq_scans:
            referenced |= scan.external_reads | scan.writes
        for name in referenced:
            if self.widths[name] > MAX_SIGNAL_WIDTH:
                raise UnsupportedConstruct("wide-signal")

        if seq:
            # Lanes never run a clocked design (``BatchSimulator`` refuses
            # it), so it is lowered for its fused run alone.
            sequence = wordgen.build_run(self, comb, comb_scans, seq, seq_scans)
            return CodegenArtifact(sequence=sequence)
        settle_lines, settle_state, settle_writes = self._settle_lines(comb, comb_scans)

        comb_defined: set[str] = set()
        for scan in comb_scans:
            comb_defined |= scan.full_defined
        settle_gate: set[str] = set()
        for scan in comb_scans:
            settle_gate |= scan.external_reads
            settle_gate |= scan.writes - scan.full_defined
        settle_gate -= comb_defined

        return CodegenArtifact(
            settle_source=self._settle_source(settle_lines, settle_state, settle_writes),
            settle_state=settle_state,
            settle_writes=settle_writes,
            settle_gate=tuple(sorted(settle_gate)),
        )

    # ------------------------------------------------------------------ analysis
    def _scan(self, process: Process, *, nonblocking_defines: bool) -> _ProcessScan:
        scan = _ProcessScan()
        defined = self._scan_statement(
            process.body, set(), scan, nonblocking_defines=nonblocking_defines
        )
        scan.full_defined = defined
        return scan

    def _scan_statement(
        self,
        statement: ast.Statement | None,
        defined: set[str],
        scan: _ProcessScan,
        *,
        nonblocking_defines: bool,
    ) -> set[str]:
        if statement is None or isinstance(statement, ast.NullStatement):
            return defined
        if isinstance(statement, ast.Block):
            for inner in statement.statements:
                defined = self._scan_statement(
                    inner, defined, scan, nonblocking_defines=nonblocking_defines
                )
            return defined
        if isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
            self._scan_reads(statement.value, defined, scan)
            self._scan_target(statement.target, defined, scan)
            counts = isinstance(statement, ast.BlockingAssign) or nonblocking_defines
            if counts and isinstance(statement.target, ast.Identifier):
                defined = defined | {statement.target.name}
            return defined
        if isinstance(statement, ast.IfStatement):
            self._scan_reads(statement.condition, defined, scan)
            then_defined = self._scan_statement(
                statement.then_branch, set(defined), scan,
                nonblocking_defines=nonblocking_defines,
            )
            else_defined = self._scan_statement(
                statement.else_branch, set(defined), scan,
                nonblocking_defines=nonblocking_defines,
            )
            return then_defined & else_defined
        if isinstance(statement, ast.CaseStatement):
            self._scan_reads(statement.subject, defined, scan)
            arm_defined: list[set[str]] = []
            has_default = False
            for item in statement.items:
                for expression in item.expressions:
                    self._scan_reads(expression, defined, scan)
                arm_defined.append(
                    self._scan_statement(
                        item.body, set(defined), scan,
                        nonblocking_defines=nonblocking_defines,
                    )
                )
                has_default = has_default or item.is_default
            if has_default and arm_defined:
                result = set(arm_defined[0])
                for other in arm_defined[1:]:
                    result &= other
                return result
            return defined
        if isinstance(statement, (ast.DelayStatement, ast.EventWait)):
            return self._scan_statement(
                statement.body, defined, scan, nonblocking_defines=nonblocking_defines
            )
        if isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
            raise UnsupportedConstruct("loop")
        if isinstance(statement, ast.SystemTaskCall):
            raise UnsupportedConstruct("system-task")
        raise UnsupportedConstruct(f"statement:{type(statement).__name__}")

    def _scan_target(
        self, target: ast.Expression, defined: set[str], scan: _ProcessScan
    ) -> None:
        if isinstance(target, ast.Identifier):
            if target.name not in self.widths:
                raise UnsupportedConstruct("unknown-identifier")
            scan.writes.add(target.name)
            return
        if isinstance(target, ast.BitSelect):
            self._scan_reads(target.index, defined, scan)
            self._scan_select_base(target.target, defined, scan)
            return
        if isinstance(target, ast.PartSelect):
            self._scan_reads(target.msb, defined, scan)
            self._scan_reads(target.lsb, defined, scan)
            self._scan_select_base(target.target, defined, scan)
            return
        if isinstance(target, ast.Concat):
            for part in target.parts:
                self._scan_target(part, defined, scan)
            return
        raise UnsupportedConstruct(f"target:{type(target).__name__}")

    def _scan_select_base(
        self, base: ast.Expression, defined: set[str], scan: _ProcessScan
    ) -> None:
        if not isinstance(base, ast.Identifier) or base.name not in self.widths:
            raise UnsupportedConstruct("select-target")
        scan.writes.add(base.name)
        # A partial write merges with the old value, which therefore counts
        # as a read unless the whole signal was already definitely assigned.
        if base.name not in defined:
            scan.external_reads.add(base.name)

    def _scan_reads(
        self, node: ast.Expression | None, defined: set[str], scan: _ProcessScan
    ) -> None:
        if node is None:
            return
        if isinstance(node, ast.Identifier):
            if node.name in self.widths and node.name not in defined:
                scan.external_reads.add(node.name)
            return
        if isinstance(node, (ast.Number, ast.StringLiteral)):
            return
        if isinstance(node, ast.UnaryOp):
            self._scan_reads(node.operand, defined, scan)
            return
        if isinstance(node, ast.BinaryOp):
            self._scan_reads(node.left, defined, scan)
            self._scan_reads(node.right, defined, scan)
            return
        if isinstance(node, ast.Ternary):
            self._scan_reads(node.condition, defined, scan)
            self._scan_reads(node.if_true, defined, scan)
            self._scan_reads(node.if_false, defined, scan)
            return
        if isinstance(node, ast.Concat):
            for part in node.parts:
                self._scan_reads(part, defined, scan)
            return
        if isinstance(node, ast.Replication):
            self._scan_reads(node.count, defined, scan)
            self._scan_reads(node.value, defined, scan)
            return
        if isinstance(node, ast.BitSelect):
            self._scan_reads(node.target, defined, scan)
            self._scan_reads(node.index, defined, scan)
            return
        if isinstance(node, ast.PartSelect):
            self._scan_reads(node.target, defined, scan)
            self._scan_reads(node.msb, defined, scan)
            self._scan_reads(node.lsb, defined, scan)
            return
        if isinstance(node, ast.FunctionCall):
            for argument in node.args:
                self._scan_reads(argument, defined, scan)
            return
        raise UnsupportedConstruct(f"expression:{type(node).__name__}")

    def _reject_comb_cycles(self, scans: list[_ProcessScan]) -> None:
        """Reject combinational feedback: the two-state fixpoint can differ.

        The scalar simulator leaves a feedback loop at x (no change, settles
        immediately); the value-plane-only generated code would settle it at
        an arbitrary defined value.  Acyclic dataflow converges identically
        in both engines, so only true cycles among comb-written signals need
        rejecting.
        """
        edges: dict[str, set[str]] = {}
        written: set[str] = set()
        for scan in scans:
            written |= scan.writes
        for scan in scans:
            for source in scan.external_reads & written:
                edges.setdefault(source, set()).update(scan.writes)
        state: dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(node: str) -> None:
            state[node] = 1
            for nxt in edges.get(node, ()):
                mark = state.get(nxt)
                if mark == 1:
                    raise UnsupportedConstruct("comb-cycle")
                if mark is None:
                    visit(nxt)
            state[node] = 2

        for node in sorted(edges):
            if node not in state:
                visit(node)

    # ------------------------------------------------------------------ helpers
    def const_int(self, node: ast.Expression) -> int | None:
        """Evaluate a parameter/number-constant expression, else ``None``."""
        try:
            value = self._const_eval.evaluate(node)
        except SimulationError:
            return None
        if value.has_unknown:
            return None
        return value.to_int()

    def state_vars(self, state: tuple[tuple[str, int], ...]) -> list[str]:
        names = []
        for name, width in state:
            base = self.varname[name]
            names.extend(f"{base}_{bit}" for bit in range(width))
        return names

    # ------------------------------------------------------------------ settle
    def _settle_lines(
        self, processes: list[Process], scans: list[_ProcessScan]
    ) -> tuple[list[str], tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]:
        """One settle pass (sets ``_chg``), its state and its write set."""
        referenced: set[str] = set()
        writes: set[str] = set()
        for scan in scans:
            referenced |= scan.external_reads | scan.writes
            writes |= scan.writes
        state = tuple((name, self.widths[name]) for name in sorted(referenced))
        write_state = tuple((name, self.widths[name]) for name in sorted(writes))

        writer = _Writer()
        lowerer = _Lowerer(self, writer)
        for process, scan in zip(processes, scans):
            write_vars = self.state_vars(
                tuple((name, self.widths[name]) for name in sorted(scan.writes))
            )
            saves = [writer.fresh() for _ in write_vars]
            for save, var in zip(saves, write_vars):
                writer.emit(f"{save} = {var}")
            lowerer.statement(process.body, "FULL")
            if write_vars:
                comparison = " or ".join(
                    f"{var} != {save}" for var, save in zip(write_vars, saves)
                )
                writer.emit(f"_chg = _chg or {comparison}")
        return writer.lines, state, write_state

    def _settle_source(self, body: list[str], state, write_state) -> str:
        state_vars = self.state_vars(state)
        return_vars = self.state_vars(write_state)
        lines = ["def codegen_settle(state, FULL, check_deadline, SimulationError):"]
        if state_vars:
            lines.append(f"    ({', '.join(state_vars)},) = state")
        lines.append(f"    for _pass in range({MAX_SETTLE_ITERATIONS}):")
        lines.append('        check_deadline("BatchSimulator.codegen_settle")')
        lines.append("        _chg = False")
        lines.extend(f"        {line}" for line in body)
        lines.append("        if not _chg:")
        lines.append("            break")
        lines.append("    else:")
        lines.append("        raise SimulationError(")
        lines.append(
            f'            "combinational signals failed to settle after '
            f'{MAX_SETTLE_ITERATIONS} iterations (codegen)")'
        )
        if return_vars:
            lines.append(f"    return ({', '.join(return_vars)},)")
        else:
            lines.append("    return ()")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ targets
    def select_base(self, base: ast.Expression) -> tuple[str, int]:
        if not isinstance(base, ast.Identifier) or base.name not in self.widths:
            raise UnsupportedConstruct("select-target")
        return base.name, self.widths[base.name]

    def target_width(self, target: ast.Expression) -> int:
        if isinstance(target, ast.Identifier):
            return self.widths.get(target.name, 1)
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            if target.mode == ":":
                first = self.const_int(target.msb)
                second = self.const_int(target.lsb)
                if first is None or second is None:
                    raise UnsupportedConstruct("non-constant-select")
                return abs(first - second) + 1
            second = self.const_int(target.lsb)
            if second is None:
                raise UnsupportedConstruct("non-constant-select")
            return second
        if isinstance(target, ast.Concat):
            return sum(self.target_width(part) for part in target.parts)
        raise UnsupportedConstruct(f"target:{type(target).__name__}")


# ---------------------------------------------------------------------------
# expression/statement lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    """Lowers combinational statements into a writer as masked column algebra."""

    def __init__(self, gen: _Generator, writer: _Writer):
        self.gen = gen
        self.writer = writer
        self._mask_inv: dict[str, str] = {}

    # -------------------------------------------------------------- expressions
    def lower(self, node: ast.Expression) -> tuple[int, list[str]]:
        if isinstance(node, ast.Number):
            if node.xz_mask:
                raise UnsupportedConstruct("xz-literal")
            width = node.width if node.width is not None else 32
            return width, self._const_cols(node.value, width)
        if isinstance(node, ast.Identifier):
            name = node.name
            if name in self.gen.widths:
                base = self.gen.varname[name]
                width = self.gen.widths[name]
                return width, [f"{base}_{bit}" for bit in range(width)]
            if name in self.gen.parameters:
                return 32, self._const_cols(self.gen.parameters[name], 32)
            raise UnsupportedConstruct("unknown-identifier")
        if isinstance(node, ast.UnaryOp):
            return self._lower_unary(node)
        if isinstance(node, ast.BinaryOp):
            return self._lower_binary(node)
        if isinstance(node, ast.Ternary):
            return self._lower_ternary(node)
        if isinstance(node, ast.Concat):
            parts = [self.lower(part) for part in node.parts]
            cols: list[str] = []
            for _, part_cols in reversed(parts):
                cols.extend(part_cols)
            return sum(width for width, _ in parts), cols
        if isinstance(node, ast.Replication):
            count = self.gen.const_int(node.count)
            if count is None or count <= 0:
                raise UnsupportedConstruct("non-constant-replication")
            width, cols = self.lower(node.value)
            return width * count, cols * count
        if isinstance(node, ast.BitSelect):
            width, cols = self.lower(node.target)
            index = self.gen.const_int(node.index)
            if index is None:
                raise UnsupportedConstruct("non-constant-select")
            if not 0 <= index < width:
                raise UnsupportedConstruct("select-out-of-range")
            return 1, [cols[index]]
        if isinstance(node, ast.PartSelect):
            return self._lower_part_select(node)
        if isinstance(node, ast.FunctionCall):
            return self._lower_call(node)
        raise UnsupportedConstruct(f"expression:{type(node).__name__}")

    def _const_cols(self, value: int, width: int) -> list[str]:
        value &= (1 << width) - 1
        return ["FULL" if (value >> bit) & 1 else "0" for bit in range(width)]

    def _truth(self, cols: list[str]) -> str:
        expr = "0"
        for col in cols:
            expr = _or(expr, col)
        return self.writer.atom(expr)

    def _lower_unary(self, node: ast.UnaryOp) -> tuple[int, list[str]]:
        op = node.op
        width, cols = self.lower(node.operand)
        if op == "+":
            return width, cols
        if op == "-":
            carry = "FULL"
            out: list[str] = []
            for col in cols:
                inverted = self.writer.atom(_not(col))
                out.append(self.writer.atom(_xor(inverted, carry)))
                carry = self.writer.atom(_and(inverted, carry))
            return width, out
        if op == "~":
            return width, [self.writer.atom(_not(col)) for col in cols]
        if op == "!":
            return 1, [self.writer.atom(_not(self._truth(cols)))]
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            fold = _and if op in ("&", "~&") else _or if op in ("|", "~|") else _xor
            expr = cols[0]
            for col in cols[1:]:
                expr = fold(expr, col)
            if op in ("~&", "~|", "~^", "^~"):
                expr = _not(self.writer.atom(expr))
            return 1, [self.writer.atom(expr)]
        raise UnsupportedConstruct(f"operator:{op}")

    def _lower_binary(self, node: ast.BinaryOp) -> tuple[int, list[str]]:
        op = node.op
        if op in ("*", "/", "%", "**"):
            raise UnsupportedConstruct("mul-div-mod")
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._lower_shift(node)
        left_width, left_cols = self.lower(node.left)
        right_width, right_cols = self.lower(node.right)
        if op in ("&&", "||"):
            fold = _and if op == "&&" else _or
            return 1, [
                self.writer.atom(fold(self._truth(left_cols), self._truth(right_cols)))
            ]
        width = max(left_width, right_width)
        a = _zext(left_cols, width)
        b = _zext(right_cols, width)
        if op in ("==", "!=", "===", "!=="):
            diff = "0"
            for lhs, rhs in zip(a, b):
                diff = _or(diff, self.writer.atom(_xor(lhs, rhs)))
            diff = self.writer.atom(diff)
            return 1, [diff if op in ("!=", "!==") else self.writer.atom(_not(diff))]
        if op in ("<", "<=", ">", ">="):
            if op in (">", ">="):
                a, b = b, a
            lt, eq = "0", "FULL"
            for lhs, rhs in zip(reversed(a), reversed(b)):
                lt = self.writer.atom(_or(lt, _and(eq, _and(_not(lhs), rhs))))
                eq = self.writer.atom(_and(eq, _not(_xor(lhs, rhs))))
            if op in ("<=", ">="):
                return 1, [self.writer.atom(_or(lt, eq))]
            return 1, [lt]
        if op in ("+", "-"):
            result_width = width + 1
            a = _zext(left_cols, result_width)
            b = _zext(right_cols, result_width)
            if op == "-":
                b = [self.writer.atom(_not(col)) for col in b]
            carry = "0" if op == "+" else "FULL"
            out: list[str] = []
            for lhs, rhs in zip(a, b):
                axb = self.writer.atom(_xor(lhs, rhs))
                out.append(self.writer.atom(_xor(axb, carry)))
                carry = self.writer.atom(_or(_and(lhs, rhs), _and(carry, axb)))
            return result_width, out
        if op in ("&", "|", "^", "~^", "^~"):
            fold = _and if op == "&" else _or if op == "|" else _xor
            out = [self.writer.atom(fold(lhs, rhs)) for lhs, rhs in zip(a, b)]
            if op in ("~^", "^~"):
                out = [self.writer.atom(_not(col)) for col in out]
            return width, out
        raise UnsupportedConstruct(f"operator:{op}")

    def _lower_shift(self, node: ast.BinaryOp) -> tuple[int, list[str]]:
        width, cols = self.lower(node.left)
        amount = self.gen.const_int(node.right)
        if amount is None:
            raise UnsupportedConstruct("non-constant-shift")
        if node.op in ("<<", "<<<"):
            shifted = ["0"] * min(amount, width) + cols[: max(0, width - amount)]
        elif node.op == ">>":
            shifted = cols[amount:] + ["0"] * min(amount, width)
        else:  # >>> arithmetic: fill from the sign column
            sign = cols[width - 1]
            shifted = cols[amount:] + [sign] * min(amount, width)
        return width, shifted

    def _lower_ternary(self, node: ast.Ternary) -> tuple[int, list[str]]:
        _, cond_cols = self.lower(node.condition)
        truth = self._truth(cond_cols)
        inverse = self.writer.atom(_not(truth))
        true_width, true_cols = self.lower(node.if_true)
        false_width, false_cols = self.lower(node.if_false)
        width = max(true_width, false_width)
        t = _zext(true_cols, width)
        f = _zext(false_cols, width)
        return width, [
            self.writer.atom(_or(_and(tv, truth), _and(fv, inverse)))
            for tv, fv in zip(t, f)
        ]

    def _lower_part_select(self, node: ast.PartSelect) -> tuple[int, list[str]]:
        width, cols = self.lower(node.target)
        first = self.gen.const_int(node.msb)
        second = self.gen.const_int(node.lsb)
        if first is None or second is None:
            raise UnsupportedConstruct("non-constant-select")
        msb, lsb = _part_bounds(node.mode, first, second)
        if not 0 <= lsb <= msb < width:
            raise UnsupportedConstruct("select-out-of-range")
        return msb - lsb + 1, cols[lsb : msb + 1]

    def _lower_call(self, node: ast.FunctionCall) -> tuple[int, list[str]]:
        name = node.name
        if name in ("$signed", "$unsigned") and len(node.args) == 1:
            return self.lower(node.args[0])
        if name == "$clog2" and len(node.args) == 1:
            value = self.gen.const_int(node.args[0])
            if value is None:
                raise UnsupportedConstruct("system-function")
            return 32, self._const_cols(max(0, (value - 1).bit_length()), 32)
        if name.startswith("$"):
            raise UnsupportedConstruct("system-function")
        raise UnsupportedConstruct("user-function")

    # -------------------------------------------------------------- statements
    def statement(self, node: ast.Statement | None, mask: str) -> None:
        """Lower ``node`` under ``mask``; a process's non-blocking assigns are blocking."""
        if node is None or isinstance(node, ast.NullStatement) or mask == "0":
            return
        if isinstance(node, ast.Block):
            for inner in node.statements:
                self.statement(inner, mask)
            return
        if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
            width, cols = self.lower(node.value)
            self.assign(node.target, width, cols, mask)
            return
        if isinstance(node, ast.IfStatement):
            _, cond_cols = self.lower(node.condition)
            truth = self._truth(cond_cols)
            then_mask = self.writer.atom(_and(mask, truth))
            else_mask = self.writer.atom(_and(mask, _not(truth)))
            self.statement(node.then_branch, then_mask)
            self.statement(node.else_branch, else_mask)
            return
        if isinstance(node, ast.CaseStatement):
            self._lower_case(node, mask)
            return
        if isinstance(node, (ast.DelayStatement, ast.EventWait)):
            self.statement(node.body, mask)
            return
        if isinstance(node, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
            raise UnsupportedConstruct("loop")
        if isinstance(node, ast.SystemTaskCall):
            raise UnsupportedConstruct("system-task")
        raise UnsupportedConstruct(f"statement:{type(node).__name__}")

    def _lower_case(self, node: ast.CaseStatement, mask: str) -> None:
        subject_width, subject_cols = self.lower(node.subject)
        remaining = mask
        default_item: ast.CaseItem | None = None
        for item in node.items:
            if item.is_default:
                default_item = item
                continue
            for expression in item.expressions:
                match = self._case_match(node.kind, subject_width, subject_cols, expression)
                arm_mask = self.writer.atom(_and(match, remaining))
                self.statement(item.body, arm_mask)
                remaining = self.writer.atom(_and(remaining, _not(match)))
        if default_item is not None:
            self.statement(default_item.body, remaining)

    def _case_match(
        self,
        kind: str,
        subject_width: int,
        subject_cols: list[str],
        candidate: ast.Expression,
    ) -> str:
        """Column expression for lanes where ``candidate`` matches the subject."""
        if isinstance(candidate, ast.Number):
            width = max(subject_width, candidate.width or 32)
            subject = _zext(subject_cols, width)
            match = "FULL"
            for bit in range(width):
                value_bit = (candidate.value >> bit) & 1
                xz_bit = (candidate.xz_mask >> bit) & 1
                if xz_bit:
                    is_z = bool(value_bit)
                    if (kind == "casez" and is_z) or kind == "casex":
                        continue  # wildcard bit
                    return "0"  # x (or any x/z in plain case): never matches
                term = subject[bit] if value_bit else _not(subject[bit])
                match = _and(match, self.writer.atom(term))
            return self.writer.atom(match)
        cand_width, cand_cols = self.lower(candidate)
        width = max(subject_width, cand_width)
        diff = "0"
        for lhs, rhs in zip(_zext(subject_cols, width), _zext(cand_cols, width)):
            diff = _or(diff, self.writer.atom(_xor(lhs, rhs)))
        return self.writer.atom(_not(self.writer.atom(diff)))

    # -------------------------------------------------------------- assignment
    def assign(
        self, target: ast.Expression, width: int, cols: list[str], mask: str
    ) -> None:
        if mask == "0":
            return
        written = self._target_vars(target)
        cols = [
            self._shield_col(col) if col in written else col for col in cols
        ]
        self._assign_inner(target, width, cols, mask)

    def _assign_inner(
        self, target: ast.Expression, width: int, cols: list[str], mask: str
    ) -> None:
        if isinstance(target, ast.Identifier):
            name = target.name
            declared = self.gen.widths[name]
            base = self.gen.varname[name]
            resized = _zext(cols, declared)
            self._merge_bits(base, range(declared), resized, mask)
            return
        if isinstance(target, ast.BitSelect):
            name, declared = self.gen.select_base(target.target)
            index = self.gen.const_int(target.index)
            if index is None:
                raise UnsupportedConstruct("non-constant-select")
            if not 0 <= index < declared:
                raise UnsupportedConstruct("select-out-of-range")
            self._merge_bits(self.gen.varname[name], [index], _zext(cols, 1), mask)
            return
        if isinstance(target, ast.PartSelect):
            name, declared = self.gen.select_base(target.target)
            first = self.gen.const_int(target.msb)
            second = self.gen.const_int(target.lsb)
            if first is None or second is None:
                raise UnsupportedConstruct("non-constant-select")
            msb, lsb = _part_bounds(target.mode, first, second)
            if not 0 <= lsb <= msb < declared:
                raise UnsupportedConstruct("select-out-of-range")
            self._merge_bits(
                self.gen.varname[name],
                range(lsb, msb + 1),
                _zext(cols, msb - lsb + 1),
                mask,
            )
            return
        if isinstance(target, ast.Concat):
            widths = [self.gen.target_width(part) for part in target.parts]
            total = sum(widths)
            resized = _zext(cols, total)
            offset = total
            for part, part_width in zip(target.parts, widths):
                offset -= part_width
                self._assign_inner(
                    part, part_width, resized[offset : offset + part_width], mask
                )
            return
        raise UnsupportedConstruct(f"target:{type(target).__name__}")

    def _merge_bits(self, base, positions, cols, mask: str) -> None:
        if mask == "FULL":
            for position, col in zip(positions, cols):
                var = f"{base}_{position}"
                if col != var:
                    self.writer.emit(f"{var} = {col}")
            return
        inverse = self._mask_inv.get(mask)
        if inverse is None:
            inverse = self.writer.atom(_not(mask))
            self._mask_inv[mask] = inverse
        for position, col in zip(positions, cols):
            var = f"{base}_{position}"
            self.writer.emit(f"{var} = {_or(_and(col, mask), _and(var, inverse))}")

    def _target_vars(self, target: ast.Expression) -> set[str]:
        names: set[str] = set()

        def collect(node: ast.Expression) -> None:
            if isinstance(node, ast.Identifier):
                names.add(node.name)
            elif isinstance(node, (ast.BitSelect, ast.PartSelect)):
                if isinstance(node.target, ast.Identifier):
                    names.add(node.target.name)
            elif isinstance(node, ast.Concat):
                for part in node.parts:
                    collect(part)

        collect(target)
        variables: set[str] = set()
        for name in names:
            if name in self.gen.widths:
                base = self.gen.varname[name]
                variables |= {
                    f"{base}_{bit}" for bit in range(self.gen.widths[name])
                }
        return variables

    def _shield_col(self, col: str) -> str:
        """Copy a raw signal column into a temp (value snapshot)."""
        if col not in self.gen.signal_vars:
            return col
        temp = self.writer.fresh()
        self.writer.emit(f"{temp} = {col}")
        return temp


def _part_bounds(mode: str, first: int, second: int) -> tuple[int, int]:
    if mode == ":":
        return first, second
    if mode == "+:":
        return first + second - 1, first
    return first, first - second + 1  # "-:"


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------


class CodegenRuntime:
    """Per-simulator executor of a supported artifact's generated settle.

    Marshals between the simulator's column-packed signal values (the
    source of truth) and the flat column tuple the generated code consumes.
    """

    __slots__ = ("artifact", "lanes", "_settle_fn")

    def __init__(self, artifact: CodegenArtifact, lanes: int):
        if not artifact.supported:
            raise ValueError(f"design rejected by codegen: {artifact.reject_reason}")
        self.artifact = artifact
        self.lanes = lanes
        self._settle_fn = _compiled_function(artifact.settle_source, "codegen_settle")

    def try_settle(self, values: dict, full_mask: int) -> bool:
        """Settle ``values`` in place; ``False`` (nothing run) when the x/z gate refuses."""
        artifact = self.artifact
        for name in artifact.settle_gate:
            if any(values[name].xz_cols):
                return False
        flat: list[int] = []
        for name, _ in artifact.settle_state:
            flat.extend(values[name].value_cols)
        out = self._settle_fn(tuple(flat), full_mask, check_deadline, SimulationError)
        position = 0
        for name, width in artifact.settle_writes:
            cols = out[position : position + width]
            position += width
            current = values[name]
            if current.value_cols != cols or any(current.xz_cols):
                values[name] = BatchVector(width, self.lanes, cols, (0,) * width)
        return True


class SequenceRun:
    """One stimulus sequence on a design's fused ``codegen_run``.

    Built from a scalar simulator's signal values at a cycle boundary that
    passes :meth:`SequenceProgram.ready`; afterwards :meth:`cycle` advances
    one clock cycle — data application, clock high, clock low — and
    :meth:`read` returns the value any signal has after it.  The scalar store
    is not updated: signals the generated code never writes are constant, so
    they are read from it.
    """

    __slots__ = (
        "_program", "_values", "_gen", "_current", "_slots", "_masks", "_clock",
        "_outputs", "_internal", "_sample", "_driven",
    )

    def __init__(self, program: SequenceProgram, values: dict, clock: str, design: str):
        self._program = program
        self._values = values
        self._current = [
            -1 if values[name].xz_mask else values[name].value for name, _ in program.inputs
        ]
        self._slots = {name: index for index, (name, _) in enumerate(program.inputs)}
        self._masks = [(1 << width) - 1 for _, width in program.inputs]
        self._clock = self._slots.get(clock)
        #: Output name → (sample slot, width, value → vector cache).
        self._outputs = {
            name: (index, width, {}) for index, (name, width) in enumerate(program.outputs)
        }
        #: State signals only a dump can read (not outputs, not inputs).
        self._internal = {name for name, _ in program.state} - set(self._slots)
        self._internal -= set(self._outputs)
        #: Raw values of every input driven since the handover.
        self._driven: dict[str, int] = {}
        self._sample: tuple = ()
        fn = _compiled_function(program.source, "codegen_run")
        # Applied inputs enter as the generator's previous-value arguments.
        self._gen = fn(
            tuple(values[name].value for name, _ in program.state if name not in self._slots),
            check_deadline,
            SimulationError,
            f"combinational logic in module {design!r} did not settle after "
            f"{MAX_SETTLE_ITERATIONS} iterations (combinational loop?)",
            *self._current,
        )
        next(self._gen)

    def cycle(self, data: dict) -> None:
        """Apply ``data`` (clock excluded), raise and lower the clock."""
        current = self._current
        slots = self._slots
        for name, value in data.items():
            slot = slots.get(name)
            if slot is not None:
                current[slot] = value & self._masks[slot]
        self._driven.update(data)
        events = [tuple(current)] if data else []
        clock = self._clock
        if clock is not None:
            current[clock] = 1
            events.append(tuple(current))
            current[clock] = 0
            events.append(tuple(current))
        self._sample = self._gen.send(events)

    def read(self, name: str) -> LogicVector | None:
        """The signal's value after the last cycle (``None`` if undeclared)."""
        output = self._outputs.get(name)
        if output is not None:
            index, width, vectors = output
            value = self._sample[index]
            vector = vectors.get(value)
            if vector is None:
                vector = vectors[value] = LogicVector.from_int(value, width)
            return vector
        values = self._values
        if name not in values:
            return None
        if name in self._driven:
            return LogicVector.from_int(self._driven[name], values[name].width)
        if name in self._internal:
            return LogicVector.from_int(self.dump()[name], values[name].width)
        return values[name]

    def dump(self) -> dict[str, int]:
        """Every state signal's current value (valid after a cycle)."""
        return dict(zip((name for name, _ in self._program.state), self._gen.send(None)))


# The word-level lowering imports this module's artifact types; imported last
# so that either module may be imported first.
from . import wordgen  # noqa: E402
