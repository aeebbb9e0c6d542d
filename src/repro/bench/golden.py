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
    sweep.  When the proof fails, the SAT counterexample is replayed as a
    differential oracle (:func:`_counterexample_reproduces`): the DUT is
    scored on :class:`~repro.verilog.simulator.testbench.BatchTestbenchRunner`
    against the reference's outputs over the counterexample's steps.  A
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
    if result.equivalent or counterexample is None or counterexample.missing_outputs:
        return result  # nothing to replay (a missing output needs no simulation)
    if not _counterexample_reproduces(
        dut_source,
        reference_source,
        counterexample.steps,
        result.checked_outputs,
        sequential,
        clock=clock,
        reset=reset,
        module_name=module_name,
        reference_module_name=reference_module_name,
    ):
        raise FormalError(
            "SAT counterexample did not reproduce in simulation: " + counterexample.describe()
        )
    return result


def _counterexample_reproduces(
    dut_source: str,
    reference_source: str,
    steps: Sequence[Mapping[str, int]],
    checked_outputs: Sequence[str],
    sequential: bool,
    clock: str,
    reset: ResetSpec | None,
    module_name: str | None,
    reference_module_name: str | None,
) -> bool:
    """Whether the DUT mismatches the reference somewhere on ``steps``.

    The reference's outputs are recorded as an
    :class:`~repro.verilog.simulator.testbench.ExpectedTrace` by the runner's
    own steps (:meth:`~repro.verilog.simulator.testbench.TestbenchRunner.record`:
    a sequential design from its memoised ``reset_state`` under ``reset``,
    x/z outputs left out), then the DUT is scored against it on
    :class:`~repro.verilog.simulator.testbench.BatchTestbenchRunner`.  The
    steps carry the union of both designs' inputs; each design is driven
    with its own input ports only.  A simulation error met before any
    mismatch is raised: the reference's own exception, or the DUT's as a
    :class:`~repro.verilog.errors.SimulationError` with its text (the runner
    keeps only the text; compiled, a design raises nothing else).
    """
    from ..verilog.design import get_default_database
    from ..verilog.errors import SimulationError
    from ..verilog.simulator.testbench import BatchTestbenchRunner, ReplayGolden

    def own_inputs(compiled) -> list[dict[str, int]]:
        ports = compiled.input_widths()
        return [{name: value for name, value in step.items() if name in ports} for step in steps]

    database = get_default_database()
    reference = database.compile(reference_source, reference_module_name)
    dut = database.compile(dut_source, module_name)
    runner = BatchTestbenchRunner(clock=clock, reset=reset)
    trace = runner.record(reference, own_inputs(reference), checked_outputs, sequential)
    replayed = runner.run(
        dut_source,
        ReplayGolden(trace),
        own_inputs(dut),
        module_name=module_name,
        check_outputs=list(checked_outputs),
    )
    if replayed.mismatches:
        return True
    if replayed.error is None:
        return False
    if trace.error is not None and replayed.error == str(trace.error):
        raise trace.error
    raise SimulationError(replayed.error)


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
