"""Python golden (reference) models for benchmark tasks.

Every benchmark task carries an executable reference model implementing the
intended behaviour.  The testbench runner drives the generated Verilog with the
task's stimulus and compares its outputs against these models cycle by cycle —
the same role the reference designs/testbenches play in VerilogEval and RTLLM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..logic.bittable import BitTable
from ..logic.expr import BoolExpr
from ..verilog.simulator.testbench import ResetSpec


def _mask(width: int) -> int:
    return (1 << width) - 1


def _checked(name: str, value: object, width: int) -> int:
    """Validate that a stimulus value fits the declared input width.

    Golden models used to truncate out-of-range values with ``& _mask(width)``,
    which silently scored a DUT against a *different* stimulus than the one it
    was driven with.  Out-of-range inputs are a harness bug: fail loudly.
    """
    value = int(value)
    if not 0 <= value < (1 << width):
        raise ValueError(
            f"stimulus value {value} for input {name!r} does not fit in {width} bit(s)"
        )
    return value


# --------------------------------------------------------------------------- combinational
@dataclass
class ExpressionGolden:
    """Golden model for a single-output combinational boolean expression.

    The expression is compiled once into a packed truth table; every testbench
    cycle is then an index build plus a list lookup instead of a tree walk.
    """

    expression: BoolExpr
    output: str = "out"
    is_sequential: bool = False

    def __post_init__(self) -> None:
        self._table = BitTable.from_expr(self.expression)

    def reset(self) -> None:
        """Stateless."""

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        for name in self._table.names:
            _checked(name, inputs[name], 1)
        return {self.output: self._table.evaluate(inputs)}

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.eval(inputs)


@dataclass
class TableGolden:
    """Golden model for an explicit truth table (missing rows default to 0)."""

    inputs: Sequence[str]
    rows: Mapping[int, int]
    output: str = "out"
    is_sequential: bool = False

    def reset(self) -> None:
        """Stateless."""

    def eval(self, values: Mapping[str, int]) -> dict[str, int]:
        index = 0
        for name in self.inputs:
            index = (index << 1) | _checked(name, values[name], 1)
        return {self.output: self.rows.get(index, 0)}

    def step(self, values: Mapping[str, int]) -> dict[str, int]:
        return self.eval(values)


@dataclass
class VectorFunctionGolden:
    """Golden model wrapping an arbitrary combinational function of the inputs."""

    function: Callable[[Mapping[str, int]], dict[str, int]]
    is_sequential: bool = False

    def reset(self) -> None:
        """Stateless."""

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.function(inputs)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.function(inputs)


# --------------------------------------------------------------------------- sequential
@dataclass
class CounterGolden:
    """Up (or up/down) counter with optional enable, synchronous or asynchronous reset."""

    width: int = 4
    has_enable: bool = False
    up_down: bool = False
    modulo: int | None = None
    output: str = "count"
    reset_input: str = "rst"
    enable_input: str = "en"
    direction_input: str = "up_down"
    is_sequential: bool = True
    value: int = field(default=0, init=False)

    def reset(self) -> None:
        self.value = 0

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        if int(inputs.get(self.reset_input, 0)):
            self.value = 0
            return {self.output: self.value}
        enabled = True
        if self.has_enable:
            enabled = bool(int(inputs.get(self.enable_input, 0)))
        if enabled:
            step = 1
            if self.up_down and not int(inputs.get(self.direction_input, 1)):
                step = -1
            limit = self.modulo if self.modulo is not None else (1 << self.width)
            self.value = (self.value + step) % limit
        return {self.output: self.value & _mask(self.width)}

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return {self.output: self.value & _mask(self.width)}


@dataclass
class ShiftRegisterGolden:
    """Serial-in shift register (left or right shifting)."""

    width: int = 8
    shift_left: bool = True
    serial_input: str = "din"
    reset_input: str = "rst"
    output: str = "q"
    is_sequential: bool = True
    value: int = field(default=0, init=False)

    def reset(self) -> None:
        self.value = 0

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        if int(inputs.get(self.reset_input, 0)):
            self.value = 0
            return {self.output: self.value}
        bit = _checked(self.serial_input, inputs.get(self.serial_input, 0), 1)
        if self.shift_left:
            self.value = ((self.value << 1) | bit) & _mask(self.width)
        else:
            self.value = (self.value >> 1) | (bit << (self.width - 1))
        return {self.output: self.value}

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return {self.output: self.value}


@dataclass
class RegisterGolden:
    """D register with optional enable (active high or low)."""

    width: int = 8
    has_enable: bool = False
    enable_active_low: bool = False
    data_input: str = "d"
    enable_input: str = "en"
    reset_input: str = "rst"
    output: str = "q"
    is_sequential: bool = True
    value: int = field(default=0, init=False)

    def reset(self) -> None:
        self.value = 0

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        if int(inputs.get(self.reset_input, 0)):
            self.value = 0
            return {self.output: self.value}
        load = True
        if self.has_enable:
            enable = int(inputs.get(self.enable_input, 0))
            load = (enable == 0) if self.enable_active_low else (enable == 1)
        if load:
            self.value = _checked(self.data_input, inputs.get(self.data_input, 0), self.width)
        return {self.output: self.value}

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return {self.output: self.value}


@dataclass
class ClockDividerGolden:
    """Counter-based clock divider toggling the output every ``divisor`` cycles."""

    divisor: int = 4
    reset_input: str = "rst"
    output: str = "clk_out"
    is_sequential: bool = True
    counter: int = field(default=0, init=False)
    out: int = field(default=0, init=False)

    def reset(self) -> None:
        self.counter = 0
        self.out = 0

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        if int(inputs.get(self.reset_input, 0)):
            self.counter = 0
            self.out = 0
            return {self.output: self.out}
        if self.counter == self.divisor - 1:
            self.counter = 0
            self.out ^= 1
        else:
            self.counter += 1
        return {self.output: self.out}

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return {self.output: self.out}


@dataclass
class SequenceDetectorGolden:
    """Moore sequence detector over a serial input."""

    pattern: tuple[int, ...] = (1, 0, 1)
    overlapping: bool = True
    serial_input: str = "din"
    reset_input: str = "rst"
    output: str = "detected"
    is_sequential: bool = True
    history: list[int] = field(default_factory=list, init=False)

    def reset(self) -> None:
        self.history = []

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        if int(inputs.get(self.reset_input, 0)):
            self.history = []
            return {self.output: 0}
        self.history.append(_checked(self.serial_input, inputs.get(self.serial_input, 0), 1))
        window = self.history[-len(self.pattern):]
        detected = 1 if tuple(window) == self.pattern else 0
        if detected and not self.overlapping:
            self.history = []
        return {self.output: detected}

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        window = self.history[-len(self.pattern):]
        return {self.output: 1 if tuple(window) == self.pattern else 0}


@dataclass
class EdgeDetectorGolden:
    """Rising-edge detector: output pulses when the input goes 0 → 1."""

    data_input: str = "din"
    reset_input: str = "rst"
    output: str = "pulse"
    is_sequential: bool = True
    previous: int = field(default=0, init=False)
    out: int = field(default=0, init=False)

    def reset(self) -> None:
        self.previous = 0
        self.out = 0

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        if int(inputs.get(self.reset_input, 0)):
            self.previous = 0
            self.out = 0
            return {self.output: self.out}
        current = _checked(self.data_input, inputs.get(self.data_input, 0), 1)
        self.out = 1 if (current == 1 and self.previous == 0) else 0
        self.previous = current
        return {self.output: self.out}

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return {self.output: self.out}


@dataclass
class InvertedInputsGolden:
    """Wrapper inverting selected 1-bit inputs before delegating to another model.

    Used for active-low control signals (e.g. ``rst_n``): the inner model keeps
    active-high semantics while the DUT-facing stimulus uses the active-low name.
    """

    inner: object
    inverted_signals: tuple[str, ...]

    @property
    def is_sequential(self) -> bool:
        return bool(getattr(self.inner, "is_sequential", False))

    def _transform(self, inputs: Mapping[str, int]) -> dict[str, int]:
        transformed = dict(inputs)
        for name in self.inverted_signals:
            if name in transformed:
                transformed[name] = 0 if int(transformed[name]) else 1
        return transformed

    def reset(self) -> None:
        self.inner.reset()

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.inner.eval(self._transform(inputs))

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.inner.step(self._transform(inputs))


# --------------------------------------------------------------------------- Verilog-backed golden
@dataclass
class VerilogGolden:
    """Golden model backed by simulating a reference Verilog design.

    Lets a task be scored against its golden *Verilog* (``reference_source``)
    when no hand-written Python model exists: every :meth:`eval` drives a
    scalar :class:`~repro.verilog.simulator.ModuleSimulator`, :meth:`step`
    runs one clock cycle.  Outputs that settle to ``x``/``z`` are omitted from
    the expected dict (an undefined reference bit constrains nothing).

    Formal mode proves combinational references on one persistent
    :meth:`equivalence_session`; sequential references take the one-shot
    bounded or k-induction provers.
    """

    source: str
    module_name: str | None = None
    clock: str = "clk"
    outputs: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        from ..verilog.design import compile_design
        from ..verilog.simulator import ModuleSimulator

        # Compile once through the design database; every reset() then clones
        # the cached elaboration template instead of re-running the front end.
        self._compiled = compile_design(self.source, self.module_name)
        self._simulator = ModuleSimulator(self._compiled)
        self.is_sequential = self._compiled.has_sequential_processes
        self._equiv_session = None

    def reset(self) -> None:
        from ..verilog.simulator import ModuleSimulator

        self._simulator = ModuleSimulator(self._compiled)

    def _observed(self) -> dict[str, int]:
        names = self.outputs if self.outputs is not None else self._simulator.output_names()
        observed: dict[str, int] = {}
        for name in names:
            value = self._simulator.get(name)
            if not value.has_unknown:
                observed[name] = value.to_int()
        return observed

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        self._simulator.apply_inputs(dict(inputs))
        return self._observed()

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        self._simulator.clock_cycle(self.clock, dict(inputs))
        return self._observed()

    def equivalence_session(self):
        """The lazily built incremental prover for this (combinational) reference.

        One :class:`repro.formal.EquivalenceSession` per golden instance: the
        reference cone is encoded once and every candidate of the sweep is
        proven on the same solver.  Raises ``FormalEncodingError`` when the
        reference falls outside the provable subset (same contract as the
        one-shot prover).
        """
        from ..formal import EquivalenceSession

        if self._equiv_session is None:
            self._equiv_session = EquivalenceSession(
                self.source,
                outputs=list(self.outputs) if self.outputs is not None else None,
                reference_module_name=self.module_name,
            )
        return self._equiv_session

    def prove_equivalent(
        self,
        dut_source: str,
        dut_module_name: str | None = None,
        sequential_steps: int | None = None,
        reset: ResetSpec | None = ResetSpec(),
        conflict_limit: int | None = None,
        induction_depth: int | None = None,
    ):
        """SAT-prove a DUT equivalent to this golden reference design.

        Combinational references get a complete proof on this instance's
        persistent :meth:`equivalence_session`.  Sequential references need
        ``sequential_steps`` (bounded equivalence from reset) or
        ``induction_depth`` (unbounded proof by k-induction; give both and an
        inconclusive induction falls back to the bounded proof).  SAT
        counterexamples are replayed on the simulators before being returned
        (see :func:`formal_equivalence_check`).
        """
        if (
            sequential_steps is None
            and induction_depth is None
            and self.is_sequential
        ):
            raise ValueError(
                "sequential reference: pass sequential_steps for a bounded proof"
            )
        session = None if self.is_sequential else self.equivalence_session()
        return formal_equivalence_check(
            dut_source,
            self.source,
            outputs=list(self.outputs) if self.outputs is not None else None,
            module_name=dut_module_name,
            reference_module_name=self.module_name,
            sequential_steps=sequential_steps,
            clock=self.clock,
            reset=reset,
            conflict_limit=conflict_limit,
            session=session,
            induction_depth=induction_depth if self.is_sequential else None,
        )


class GoldenCache:
    """Per-task cache of golden-model instances.

    Golden models are contractually stateless between runs: the testbench
    runner calls ``reset()`` before driving stimulus, and every model in this
    module fully re-initialises there (for :class:`VerilogGolden` the reset
    builds a fresh simulator from the cached elaboration template).  One
    instance per task can therefore be reused across all candidates of an
    evaluation sweep instead of being rebuilt per functional check.
    """

    def __init__(self) -> None:
        self._models: dict[str, object] = {}

    def get(self, task) -> object:
        """The cached golden model for ``task`` (built on first use, then reset)."""
        return self.get_by_factory(task.task_id, task.golden)

    def get_by_factory(self, task_id: str, factory) -> object:
        """Cache entry point for evaluation jobs that carry the factory directly."""
        model = self._models.get(task_id)
        if model is None:
            model = factory()
            self._models[task_id] = model
        model.reset()
        return model

    def clear(self) -> None:
        self._models.clear()

    def __len__(self) -> int:
        return len(self._models)


@dataclass
class LaneMismatch:
    """Structured counterexample for one mismatching stimulus lane.

    Attributes:
        lane: index of the stimulus vector in the sweep.
        inputs: the full input assignment driven on that lane.
        expected: reference value per mismatching output (defined outputs only).
        actual: DUT value per mismatching output — an ``int`` when defined, the
            Verilog literal string (e.g. ``"4'bxx10"``) when the DUT output has
            ``x``/``z`` bits, absent when the output is missing entirely.
        missing_outputs: checked outputs the DUT does not declare at all.
    """

    lane: int
    inputs: dict[str, int]
    expected: dict[str, int] = field(default_factory=dict)
    actual: dict[str, int | str] = field(default_factory=dict)
    missing_outputs: list[str] = field(default_factory=list)

    @property
    def has_missing_output(self) -> bool:
        return bool(self.missing_outputs)

    def __str__(self) -> str:
        parts = [
            f"{name} expected {self.expected[name]} got {self.actual.get(name, '<missing>')}"
            for name in self.expected
        ]
        for name in self.missing_outputs:
            parts.append(f"{name} missing from DUT")
        return f"lane {self.lane} (inputs {self.inputs}): " + "; ".join(parts)


def batch_equivalence_mismatches(
    dut_source: str,
    reference_source: str,
    input_vectors: Sequence[Mapping[str, int]],
    outputs: Sequence[str] | None = None,
    module_name: str | None = None,
    reference_module_name: str | None = None,
) -> list[LaneMismatch]:
    """Batched combinational equivalence sweep with structured counterexamples.

    Both designs are elaborated once and evaluated over every stimulus vector,
    each on its own independent lane
    (:func:`~repro.verilog.simulator.batch.simulate_lanes`: one generated-code
    pass per design, or one fresh scalar simulator per vector for a design
    generated code cannot take).  Returns one :class:`LaneMismatch` per
    mismatching vector, ordered by lane (empty list == equivalent on the
    sweep).  An output that is ``x``/``z`` in the *reference* constrains
    nothing; an ``x``/``z`` DUT output mismatches any defined reference value.
    """
    from ..verilog.design import compile_design
    from ..verilog.errors import SimulationError
    from ..verilog.simulator.batch import simulate_lanes

    if not input_vectors:
        return []
    names = set(input_vectors[0])
    if any(set(vector) != names for vector in input_vectors):
        raise ValueError("equivalence sweeps require a consistent input-name set")
    dut = compile_design(dut_source, module_name)
    reference = compile_design(reference_source, reference_module_name)
    if outputs is not None:
        checked = list(outputs)
    else:
        checked = [port.name for port in reference.output_ports()]
    expected_values = simulate_lanes(reference, input_vectors, checked)
    actual_values = simulate_lanes(dut, input_vectors, checked)
    mismatches: dict[int, LaneMismatch] = {}

    def lane_record(lane: int) -> LaneMismatch:
        record = mismatches.get(lane)
        if record is None:
            record = LaneMismatch(lane=lane, inputs=dict(input_vectors[lane]))
            mismatches[lane] = record
        return record

    for name in checked:
        expected = expected_values.get(name)
        if expected is None:
            raise SimulationError(f"read of undeclared signal {name!r}")
        actual = actual_values.get(name)
        for lane, expected_lane in enumerate(expected):
            if expected_lane.has_unknown:
                continue
            if actual is None:
                lane_record(lane).missing_outputs.append(name)
                continue
            actual_lane = actual[lane]
            if actual_lane.has_unknown:
                record = lane_record(lane)
                record.expected[name] = expected_lane.to_int()
                record.actual[name] = actual_lane.to_verilog_literal()
            elif actual_lane.to_int() != (
                expected_lane.to_int() & _mask(actual_lane.width)
            ):
                record = lane_record(lane)
                record.expected[name] = expected_lane.to_int()
                record.actual[name] = actual_lane.to_int()
    return [mismatches[lane] for lane in sorted(mismatches)]


def batch_equivalence_check(
    dut_source: str,
    reference_source: str,
    input_vectors: Sequence[Mapping[str, int]],
    outputs: Sequence[str] | None = None,
    module_name: str | None = None,
    reference_module_name: str | None = None,
) -> list[int]:
    """Index-list view of :func:`batch_equivalence_mismatches` (legacy API).

    Returns the indices of mismatching vectors (empty list == equivalent on
    the sweep); use :func:`batch_equivalence_mismatches` for the input
    assignment and expected/actual values behind each index.
    """
    return [
        mismatch.lane
        for mismatch in batch_equivalence_mismatches(
            dut_source,
            reference_source,
            input_vectors,
            outputs=outputs,
            module_name=module_name,
            reference_module_name=reference_module_name,
        )
    ]


# --------------------------------------------------------------------------- formal equivalence
def formal_equivalence_check(
    dut_source: str,
    reference_source: str,
    outputs: Sequence[str] | None = None,
    module_name: str | None = None,
    reference_module_name: str | None = None,
    sequential_steps: int | None = None,
    clock: str = "clk",
    reset: ResetSpec | None = ResetSpec(),
    conflict_limit: int | None = None,
    replay: bool = True,
    session=None,
    induction_depth: int | None = None,
):
    """SAT equivalence proof of DUT vs reference, with simulation replay.

    The combinational form is a *complete* proof (every input assignment, not a
    sampled sweep); pass ``sequential_steps=k`` for k-step bounded sequential
    equivalence from the reset state, or ``induction_depth=k`` for an
    **unbounded** sequential proof by k-induction (falling back to the bounded
    proof when the induction is inconclusive and ``sequential_steps`` is also
    given).  ``session`` — a :class:`repro.formal.EquivalenceSession` built for
    this reference — makes the combinational proof incremental: same verdicts
    and counterexample contract, one persistent solver across a candidate
    sweep.  When the proof fails, the SAT counterexample is replayed on the
    simulation engines (:func:`batch_equivalence_mismatches` for combinational
    designs; for sequential ones, cycle-by-cycle from each design's memoised
    post-reset state, on generated code where the handover gate allows and
    on the scalar simulator otherwise) as a differential oracle: a
    counterexample that does not reproduce as a real mismatch raises
    ``FormalError`` instead of being reported.

    Returns:
        A :class:`repro.formal.EquivalenceResult`.

    Raises:
        repro.formal.FormalEncodingError: when a design falls outside the
            provable subset — callers should fall back to simulation sweeps.
            (:class:`repro.formal.InductionInconclusive` is a subtype raised
            when only ``induction_depth`` was given and the inductive step
            failed at that depth.)
    """
    from ..formal import (
        FormalError,
        InductionInconclusive,
        prove_combinational_equivalence,
        prove_sequential_by_induction,
        prove_sequential_equivalence,
    )

    sequential = sequential_steps is not None or induction_depth is not None
    if induction_depth is not None:
        try:
            result = prove_sequential_by_induction(
                dut_source,
                reference_source,
                depth=induction_depth,
                clock=clock,
                reset=reset,
                outputs=outputs,
                module_name=module_name,
                reference_module_name=reference_module_name,
                conflict_limit=conflict_limit,
            )
        except InductionInconclusive:
            if sequential_steps is None:
                raise
            result = prove_sequential_equivalence(
                dut_source,
                reference_source,
                steps=sequential_steps,
                clock=clock,
                reset=reset,
                outputs=outputs,
                module_name=module_name,
                reference_module_name=reference_module_name,
                conflict_limit=conflict_limit,
            )
    elif sequential_steps is None:
        if session is not None:
            result = session.prove(
                dut_source, module_name, conflict_limit=conflict_limit
            )
        else:
            result = prove_combinational_equivalence(
                dut_source,
                reference_source,
                outputs=outputs,
                module_name=module_name,
                reference_module_name=reference_module_name,
                conflict_limit=conflict_limit,
            )
    else:
        result = prove_sequential_equivalence(
            dut_source,
            reference_source,
            steps=sequential_steps,
            clock=clock,
            reset=reset,
            outputs=outputs,
            module_name=module_name,
            reference_module_name=reference_module_name,
            conflict_limit=conflict_limit,
        )
    counterexample = result.counterexample
    if not replay or result.equivalent or counterexample is None:
        return result
    if counterexample.missing_outputs:
        return result  # nothing to replay: the DUT lacks the output entirely
    if not sequential:
        replayed = batch_equivalence_mismatches(
            dut_source,
            reference_source,
            [counterexample.inputs],
            outputs=result.checked_outputs,
            module_name=module_name,
            reference_module_name=reference_module_name,
        )
        if not replayed:
            raise FormalError(
                "SAT counterexample did not reproduce on the batched simulator: "
                + counterexample.describe()
            )
    else:
        if not _replay_sequential_counterexample(
            dut_source,
            reference_source,
            counterexample.steps,
            result.checked_outputs,
            clock=clock,
            reset=reset,
            module_name=module_name,
            reference_module_name=reference_module_name,
        ):
            raise FormalError(
                "SAT counterexample did not reproduce in cycle simulation: "
                + counterexample.describe()
            )
    return result


def _replay_sequential_counterexample(
    dut_source: str,
    reference_source: str,
    steps: Sequence[Mapping[str, int]],
    checked_outputs: Sequence[str],
    clock: str,
    reset: ResetSpec | None,
    module_name: str | None,
    reference_module_name: str | None,
) -> bool:
    """Drive both designs cycle-by-cycle; ``True`` iff some output mismatches.

    Each design starts from its post-reset state under ``reset``
    (:func:`~repro.verilog.simulator.testbench.reset_state`, memoised on the
    compiled design), the state its sequential unroller proved from and the
    testbench runners score from, and runs the steps through
    :class:`~repro.verilog.simulator.testbench.ClockedCycles`: generated code
    once the state passes the x/z gate, the scalar simulator before that or
    when the design or the steps fall outside the gate.
    """
    from ..verilog.design import get_default_database
    from ..verilog.simulator.testbench import ClockedCycles, reset_state, sequence_program

    stimulus = [dict(step_inputs) for step_inputs in steps]

    def prepared(source: str, name: str | None) -> ClockedCycles:
        compiled = get_default_database().compile(source, name)
        return ClockedCycles(
            compiled,
            clock,
            sequence_program(compiled, clock, stimulus),
            stimulus,
            state=reset_state(compiled, clock, reset),
        )

    dut = prepared(dut_source, module_name)
    reference = prepared(reference_source, reference_module_name)
    for data in stimulus:
        dut.cycle(data)
        reference.cycle(data)
        for name in checked_outputs:
            expected = reference.read(name)
            if expected.has_unknown:
                continue
            actual = dut.read(name)
            if actual is None:
                return True
            if actual.has_unknown or actual.to_int() != (
                expected.to_int() & _mask(actual.width)
            ):
                return True
    return False


# --------------------------------------------------------------------------- stimulus helpers
def random_vectors(
    input_widths: Mapping[str, int], count: int, seed: int
) -> list[dict[str, int]]:
    """Generate ``count`` random input vectors over the given input widths."""
    import random as _random

    rng = _random.Random(seed)
    vectors: list[dict[str, int]] = []
    for _ in range(count):
        vectors.append(
            {name: rng.randrange(1 << width) for name, width in input_widths.items()}
        )
    return vectors


def exhaustive_vectors(input_widths: Mapping[str, int], limit: int = 256) -> list[dict[str, int]]:
    """Enumerate every input combination (bounded by ``limit``)."""
    import itertools

    names = list(input_widths)
    sizes = [1 << input_widths[name] for name in names]
    total = 1
    for size in sizes:
        total *= size
    if total > limit:
        return random_vectors(input_widths, limit, seed=0)
    vectors: list[dict[str, int]] = []
    for values in itertools.product(*[range(size) for size in sizes]):
        vectors.append(dict(zip(names, values)))
    return vectors
