"""Batched Verilog simulation: N stimulus lanes per pass.

:class:`BatchSimulator` elaborates a module once (sharing
:func:`~repro.verilog.simulator.simulator.elaborate_module` with the scalar
:class:`~repro.verilog.simulator.simulator.ModuleSimulator`) and then simulates
*N independent stimuli in parallel*.  Every signal is stored column-packed
(:class:`~repro.verilog.simulator.values.BatchVector`): bit ``j`` of column
``b`` is bit ``b`` of the signal on stimulus lane ``j``, so combinational
settling and sequential edges execute with word-wide ``&``/``|``/``^``/``~``
over the columns — the :class:`~repro.logic.bittable.BitTable` trick lifted to
stateful multi-bit RTL.

Two usage patterns:

* **combinational sweep** — one lane per stimulus vector, a single
  :meth:`BatchSimulator.apply_inputs` replaces N scalar passes (this is the hot
  path of functional-equivalence scoring; see ``benchmarks/perf``);
* **parallel sequences** — for clocked designs, lane ``j`` carries the
  ``j``-th *stimulus sequence*; :meth:`BatchSimulator.clock_cycle` advances all
  sequences one cycle, with per-lane edge masks so lanes may even disagree on
  data-input edges.

The scalar :class:`ModuleSimulator` stays the differential oracle: the batch
engine is validated lane-for-lane against it by the property tests in
``tests/verilog/test_batch_simulator.py`` and by the perf harness.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from ...deadline import check_deadline
from .. import ast_nodes as ast
from ..errors import SimulationError
from .scheduler import BatchSignalStore, BatchStatementExecutor, ProcessKind
from .simulator import MAX_SETTLE_ITERATIONS, elaborate_module
from .values import BatchVector, LogicVector

#: Input value accepted per lane (scalars broadcast across all lanes).
BatchInput = Union[int, LogicVector, BatchVector, Sequence[Union[int, LogicVector]]]


class BatchSimulator:
    """Simulate one Verilog module over ``lanes`` independent stimuli at once."""

    def __init__(
        self,
        module,
        lanes: int,
        parameter_overrides: dict[str, int] | None = None,
        backend: str = "auto",
    ):
        from ..design import CompiledDesign

        if lanes < 1:
            raise SimulationError("BatchSimulator needs at least one stimulus lane")
        if backend not in ("auto", "codegen", "interpret"):
            raise SimulationError(f"unknown BatchSimulator backend {backend!r}")
        self.lanes = lanes
        self.backend = backend
        self.parameter_overrides = dict(parameter_overrides or {})
        design_from_compiled = False
        if isinstance(module, CompiledDesign):
            self.compiled: CompiledDesign | None = module
            self.module = module.module
            if self.parameter_overrides and self.parameter_overrides != module.parameter_overrides:
                self.design = elaborate_module(self.module, self.parameter_overrides)
            else:
                self.parameter_overrides = dict(module.parameter_overrides)
                self.design = module.elaborate()
                design_from_compiled = True
        else:
            self.compiled = None
            self.module = module
            self.design = elaborate_module(module, self.parameter_overrides)
        self.store = BatchSignalStore.from_scalar(self.design.store, lanes)
        self.executor = BatchStatementExecutor(
            self.store, self.design.parameters, self.design.functions
        )
        self._full_mask = (1 << lanes) - 1
        self._codegen = self._build_codegen(design_from_compiled)
        self._run_initial_blocks()
        # Inputs are still undriven here, so an x/z gate failure is expected
        # and is not a fallback worth counting.
        self._settle(record_fallback=False)

    def _build_codegen(self, design_from_compiled: bool):
        """Codegen runtime for this design, or ``None`` (interpreter only)."""
        if self.backend == "interpret":
            return None
        from .. import codegen as codegen_mod

        if design_from_compiled and self.compiled is not None:
            label = self.compiled.codegen_label
            artifact = self.compiled.codegen
        else:
            label = self.design.name
            artifact = None
        if artifact is None:
            # Raw-module path (or a CompiledDesign re-elaborated with fresh
            # parameter overrides): generate directly, uncached.
            from ..design import _latch_risk, _undef_sources

            artifact = codegen_mod.generate(
                self.design,
                has_latch_risk=_latch_risk(self.design),
                undef_sources=tuple(sorted(_undef_sources(self.design))),
            )
        if artifact.supported:
            return codegen_mod.CodegenRuntime(artifact, self.lanes, label)
        if self.backend == "codegen":
            raise SimulationError(
                f"backend='codegen' but design {label!r} was rejected by the "
                f"lowering: {artifact.reject_reason}"
            )
        codegen_mod.record_fallback(label, artifact.reject_reason)
        return None

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_source(
        cls,
        source: str,
        lanes: int,
        module_name: str | None = None,
        parameter_overrides: dict[str, int] | None = None,
        database=None,
        backend: str = "auto",
    ) -> "BatchSimulator":
        """Build a batch simulator from source via the (default) design database."""
        from ..design import get_default_database

        db = database if database is not None else get_default_database()
        return cls(db.compile(source, module_name, parameter_overrides), lanes, backend=backend)

    def _run_initial_blocks(self) -> None:
        for process in self.design.processes:
            if process.kind is ProcessKind.INITIAL:
                self.executor.execute(process.body, self._full_mask, allow_nonblocking=False)

    # ------------------------------------------------------------------ value access
    @property
    def signals(self) -> dict[str, BatchVector]:
        """The current batch values of every signal."""
        return self.store.values

    def get(self, name: str) -> BatchVector:
        """Return the current batch value of a signal."""
        return self.store.get(name)

    def get_lane(self, name: str, lane: int) -> LogicVector:
        """Return one lane of a signal as a scalar value."""
        return self.store.get(name).lane(lane)

    def _coerce(self, name: str, value) -> BatchVector:
        width = self.store.widths[name]
        if isinstance(value, BatchVector):
            if value.lanes != self.lanes:
                raise SimulationError(
                    f"input {name!r} carries {value.lanes} lanes, simulator has {self.lanes}"
                )
            return value.resized(width)
        if isinstance(value, LogicVector):
            return BatchVector.broadcast(value.resized(width), self.lanes)
        if isinstance(value, int):
            return BatchVector.broadcast(LogicVector.from_int(value, width), self.lanes)
        values = list(value)
        if len(values) != self.lanes:
            raise SimulationError(
                f"input {name!r} supplies {len(values)} lane values, simulator has {self.lanes}"
            )
        vectors = [
            lane_value.resized(width)
            if isinstance(lane_value, LogicVector)
            else LogicVector.from_int(lane_value, width)
            for lane_value in values
        ]
        return BatchVector.from_vectors(vectors, width)

    def set_signal(self, name: str, value) -> None:
        """Force a signal to a value without edge processing (for test setup)."""
        self.store.set(name, self._coerce(name, value))

    # ------------------------------------------------------------------ execution
    def settle(self) -> None:
        """Re-evaluate combinational processes until no lane changes."""
        self._settle(record_fallback=True)

    def _settle(self, record_fallback: bool) -> None:
        if self._codegen is not None and self._codegen.try_settle(
            self.store, self._full_mask, record_fallback
        ):
            return
        for _ in range(MAX_SETTLE_ITERATIONS):
            check_deadline("BatchSimulator.settle")
            changed = False
            for process in self.design.processes:
                if process.kind is not ProcessKind.COMBINATIONAL:
                    continue
                before = self.store.snapshot()
                self.executor.execute(process.body, self._full_mask, allow_nonblocking=False)
                changed |= any(self.store.values[name] != before[name] for name in before)
            if not changed:
                return
        raise SimulationError(
            f"combinational logic in module {self.design.name!r} did not settle "
            f"after {MAX_SETTLE_ITERATIONS} iterations (combinational loop?)"
        )

    def apply_inputs(self, inputs: Mapping[str, BatchInput]) -> None:
        """Apply per-lane input changes, run triggered edges and settle.

        Accepts scalars (broadcast), per-lane sequences or packed
        :class:`BatchVector` values.  Edge detection is per lane: a sequential
        process runs masked to exactly the lanes whose sensitivity edges fired.
        """
        previous = {name: self.store.get(name) for name in inputs}
        for name, value in inputs.items():
            if name not in self.store.values:
                raise SimulationError(f"unknown input signal {name!r}")
            self.store.set(name, self._coerce(name, value))
        edge_masks = self._detect_edges(previous)
        self.settle()
        if edge_masks:
            self._run_sequential(edge_masks)
            self.settle()

    def _detect_edges(self, previous: dict[str, BatchVector]) -> dict[tuple[ast.EdgeKind, str], int]:
        """Per-lane edge masks for every changed input (bit 0 drives edges)."""
        edges: dict[tuple[ast.EdgeKind, str], int] = {}
        for name, old in previous.items():
            new = self.store.get(name)
            old_value, old_xz = old.value_cols[0], old.xz_cols[0]
            new_value, new_xz = new.value_cols[0], new.xz_cols[0]
            new_one = new_value & ~new_xz
            new_zero = ~new_value & ~new_xz & self._full_mask
            old_defined_one = old_value & ~old_xz
            old_defined_zero = ~old_value & ~old_xz & self._full_mask
            posedge = new_one & ~old_defined_one
            negedge = new_zero & ~old_defined_zero
            if posedge:
                edges[(ast.EdgeKind.POSEDGE, name)] = posedge
            if negedge:
                edges[(ast.EdgeKind.NEGEDGE, name)] = negedge
        return edges

    def _run_sequential(self, edge_masks: dict[tuple[ast.EdgeKind, str], int]) -> None:
        processes = [
            process
            for process in self.design.processes
            if process.kind is ProcessKind.SEQUENTIAL
        ]
        masks: list[int] = []
        for process in processes:
            mask = 0
            for edge, signal in process.edge_signals():
                mask |= edge_masks.get((edge, signal), 0)
            masks.append(mask)
        if self._codegen is not None and self._codegen.try_sequential(
            self.store, masks, self._full_mask
        ):
            return
        for process, mask in zip(processes, masks):
            if mask:
                self.executor.execute(process.body, mask, allow_nonblocking=True)
        self.executor.commit_nonblocking()

    def clock_cycle(
        self,
        clock: str = "clk",
        inputs: Mapping[str, BatchInput] | None = None,
    ) -> None:
        """Drive one full clock cycle on every lane: inputs, clock high, clock low."""
        if inputs:
            self.apply_inputs(inputs)
        self.apply_inputs({clock: 1})
        self.apply_inputs({clock: 0})

    def pulse(self, signal: str, active_low: bool = False) -> None:
        """Pulse a signal to its active level and back on every lane."""
        active, inactive = (0, 1) if active_low else (1, 0)
        self.apply_inputs({signal: active})
        self.apply_inputs({signal: inactive})

    # ------------------------------------------------------------------ introspection
    def output_values(self) -> dict[str, BatchVector]:
        """The current batch value of every output port."""
        return {port.name: self.get(port.name) for port in self.design.output_ports()}

    def lane_outputs(self, lane: int) -> dict[str, LogicVector]:
        """All output-port values of one lane (scalar view)."""
        return {port.name: self.get_lane(port.name, lane) for port in self.design.output_ports()}

    def input_names(self) -> list[str]:
        """Names of all input ports."""
        return [port.name for port in self.design.input_ports()]

    def output_names(self) -> list[str]:
        """Names of all output ports."""
        return [port.name for port in self.design.output_ports()]

    def has_sequential_processes(self) -> bool:
        """Whether the design contains edge-triggered processes."""
        if self.compiled is not None:
            return self.compiled.has_sequential_processes
        return any(process.kind is ProcessKind.SEQUENTIAL for process in self.design.processes)

    def has_latch_risk(self) -> bool:
        """Whether any combinational process may *hold* state (inferred latch).

        A level-sensitive ``always`` that conditionally skips assigning one of
        its targets keeps the previous value — history the scalar testbench
        carries across serially-applied vectors but independent batch lanes do
        not have.  Such designs must stay on the scalar path.
        """
        if self.compiled is not None:
            return self.compiled.has_latch_risk
        for process in self.design.processes:
            if process.kind is not ProcessKind.COMBINATIONAL or process.label != "always":
                continue
            maybe, definite = _assignment_sets(process.body)
            if maybe - definite:
                return True
        return False

    @property
    def display_log(self) -> list[str]:
        """Messages produced by ``$display``-style system tasks."""
        return self.executor.display_log


def _assignment_sets(statement: ast.Statement | None) -> tuple[set[str], set[str]]:
    """``(maybe-assigned, definitely-assigned)`` signal names for a statement.

    Conservative latch analysis: partial writes (bit/part selects) and loop
    bodies never count as *definite*; an ``if`` without ``else`` or a ``case``
    without ``default`` makes nothing definite.
    """
    if statement is None or isinstance(statement, ast.NullStatement):
        return set(), set()
    if isinstance(statement, ast.Block):
        maybe: set[str] = set()
        definite: set[str] = set()
        for inner in statement.statements:
            inner_maybe, inner_definite = _assignment_sets(inner)
            maybe |= inner_maybe
            definite |= inner_definite
        return maybe, definite
    if isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
        target = statement.target
        if isinstance(target, ast.Identifier):
            return {target.name}, {target.name}
        if isinstance(target, ast.Concat):
            maybe = set()
            definite = set()
            for part in target.parts:
                part_maybe, part_definite = _assignment_sets(
                    ast.BlockingAssign(target=part, value=statement.value)
                )
                maybe |= part_maybe
                definite |= part_definite
            return maybe, definite
        if isinstance(target, (ast.BitSelect, ast.PartSelect)):
            base = target.target
            while isinstance(base, (ast.BitSelect, ast.PartSelect)):
                base = base.target
            name = base.name if isinstance(base, ast.Identifier) else None
            return ({name} if name else set()), set()
        return set(), set()
    if isinstance(statement, ast.IfStatement):
        then_maybe, then_definite = _assignment_sets(statement.then_branch)
        else_maybe, else_definite = _assignment_sets(statement.else_branch)
        definite = then_definite & else_definite if statement.else_branch is not None else set()
        return then_maybe | else_maybe, definite
    if isinstance(statement, ast.CaseStatement):
        maybe = set()
        definite: set[str] | None = None
        has_default = False
        for item in statement.items:
            item_maybe, item_definite = _assignment_sets(item.body)
            maybe |= item_maybe
            definite = item_definite if definite is None else definite & item_definite
            has_default |= item.is_default
        if definite is None or not has_default:
            definite = set()
        return maybe, definite
    if isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
        body_maybe, _ = _assignment_sets(statement.body)
        extra: set[str] = set()
        if isinstance(statement, ast.ForLoop):
            init_maybe, _ = _assignment_sets(statement.init)
            step_maybe, _ = _assignment_sets(statement.step)
            extra = init_maybe | step_maybe
        return body_maybe | extra, set()
    if isinstance(statement, (ast.DelayStatement, ast.EventWait)):
        return _assignment_sets(statement.body)
    return set(), set()


def simulate_combinational_batch(
    source: str,
    input_vectors: Sequence[Mapping[str, int]],
    module_name: str | None = None,
) -> list[dict[str, LogicVector]]:
    """Batched drop-in for :func:`simulate_combinational`: one lane per vector.

    All vectors must drive the same input names (independent lanes have no
    "previous vector" to inherit missing signals from).
    """
    if not input_vectors:
        return []
    names = set(input_vectors[0])
    if any(set(vector) != names for vector in input_vectors):
        raise SimulationError("batched simulation requires a consistent input-name set")
    simulator = BatchSimulator.from_source(source, lanes=len(input_vectors), module_name=module_name)
    inputs = {name: [vector[name] for vector in input_vectors] for name in names}
    simulator.apply_inputs(inputs)
    return [simulator.lane_outputs(lane) for lane in range(simulator.lanes)]


def differential_combinational(
    source: str,
    input_vectors: Sequence[Mapping[str, int]],
    module_name: str | None = None,
) -> list[dict[str, LogicVector]]:
    """Run the batch engine against the scalar oracle and assert bit-exactness.

    Returns the batched outputs; raises :class:`SimulationError` on divergence.
    Used by the differential tests and the perf regression harness.
    """
    from .simulator import simulate_combinational

    batched = simulate_combinational_batch(source, input_vectors, module_name)
    scalar = simulate_combinational(source, [dict(v) for v in input_vectors], module_name)
    for index, (fast, slow) in enumerate(zip(batched, scalar)):
        if fast != slow:
            raise SimulationError(
                f"batch simulator diverged from the scalar oracle on vector {index}: "
                f"{ {k: str(v) for k, v in fast.items()} } != { {k: str(v) for k, v in slow.items()} }"
            )
    return batched
