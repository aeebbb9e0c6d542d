"""Testbench runner: check a DUT against a Python golden model.

Functional correctness in the benchmark suites is decided the same way the paper
does it with a commercial simulator and reference testbenches: the generated
module (DUT) is simulated against a stimulus sequence and its outputs are compared
cycle-by-cycle with a golden reference model implemented in Python.

:class:`TestbenchRunner` scores every check on the scalar four-state
simulator, the oracle.  :class:`BatchTestbenchRunner` scores on generated code
where it can — combinational checks as lanes of one batch pass, clocked ones
on the fused cycle loop — and hands every other check to the scalar path.
Every path feeds one comparison loop, and the same steps record a reference
design's outputs as an :class:`ExpectedTrace`, which is how SAT
counterexamples replay (:mod:`repro.bench.golden`).

A clocked check starts from :func:`reset_state`, the task's
:class:`ResetSpec` applied once per design on the scalar simulator and
memoised.  It is the program's one reset protocol: the formal sequential
unroller and its counterexample replay start from the same snapshot, so a
verdict cannot depend on which engine reset the design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Protocol, Sequence

from ..errors import VerilogError
from .simulator import ModuleSimulator
from .values import LogicVector


class GoldenModel(Protocol):
    """Reference model interface used by the testbench runner.

    Combinational models only need :meth:`eval`; sequential models also need
    :meth:`reset` and :meth:`step` and must set ``is_sequential`` to ``True``.
    """

    is_sequential: bool

    def reset(self) -> None:  # pragma: no cover - protocol
        """Reset internal state (sequential models)."""

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:  # pragma: no cover - protocol
        """Return expected outputs for a combinational input vector."""

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:  # pragma: no cover - protocol
        """Advance one clock cycle and return expected post-edge outputs."""


@dataclass
class CombinationalGolden:
    """Wrap a plain function as a combinational golden model."""

    function: Callable[[Mapping[str, int]], dict[str, int]]
    is_sequential: bool = False

    def reset(self) -> None:
        """Combinational models have no state."""

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.function(inputs)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        return self.function(inputs)


@dataclass(frozen=True)
class ExpectedTrace:
    """A golden model's outputs over one stimulus, recorded as plain data.

    The runners reset a golden and then drive it with nothing but the
    stimulus, in order, so its outputs do not depend on the design under
    test.  Unlike a golden model (often a closure), a trace pickles.
    """

    is_sequential: bool
    outputs: tuple[dict[str, int], ...]
    #: What the golden raised on vector ``len(outputs)``, if it raised.
    error: Exception | None = None

    @classmethod
    def record(cls, golden: GoldenModel, stimulus: list[dict[str, int]]) -> "ExpectedTrace":
        """Drive ``golden`` as the runners do: reset, then ``step``/``eval`` per vector."""
        golden.reset()
        drive = golden.step if golden.is_sequential else golden.eval
        outputs: list[dict[str, int]] = []
        try:
            for vector in stimulus:
                outputs.append(drive(dict(vector)))
        except Exception as exc:
            return cls(golden.is_sequential, tuple(outputs), exc.with_traceback(None))
        return cls(golden.is_sequential, tuple(outputs))


class ReplayGolden:
    """Golden model that answers each ``eval``/``step`` with the next recorded outputs."""

    def __init__(self, trace: ExpectedTrace):
        self.trace = trace
        self.is_sequential = trace.is_sequential
        self._index = 0

    def reset(self) -> None:
        self._index = 0

    def eval(self, inputs: Mapping[str, int]) -> dict[str, int]:
        index, self._index = self._index, self._index + 1
        if index == len(self.trace.outputs) and self.trace.error is not None:
            raise self.trace.error.with_traceback(None)
        return self.trace.outputs[index]

    step = eval


@dataclass(frozen=True)
class ResetSpec:
    """The task's reset pin and its active level (see :func:`reset_state`)."""

    signal: str = "rst"
    active_low: bool = False


#: Clock cycles the reset pin is held active, so that both synchronous and
#: asynchronous implementations observe it.
RESET_CYCLES = 2


@dataclass
class Mismatch:
    """A single output mismatch observed during a testbench run."""

    step_index: int
    output: str
    expected: int
    actual: str
    inputs: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"step {self.step_index}: output {self.output!r} expected {self.expected} "
            f"got {self.actual} (inputs {self.inputs})"
        )


@dataclass
class TestbenchResult:
    """Outcome of running a DUT against a golden model."""

    passed: bool
    total_checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    error: str | None = None
    #: SAT-search accounting when the verdict came from a formal proof
    #: (conflicts, decisions, propagations, learned clauses, proof method);
    #: ``None`` for simulation verdicts.
    proof_stats: dict | None = None

    @functools.cached_property
    def failure_summary(self) -> str:
        """Human-readable description of why the run failed (empty when passed).

        Formatted once per result: every unit a memoised verdict answers
        journals the same text, and results are not changed once built.
        """
        if self.passed:
            return ""
        if self.error is not None:
            return f"simulation error: {self.error}"
        shown = ", ".join(str(mismatch) for mismatch in self.mismatches[:3])
        more = len(self.mismatches) - 3
        return shown + (f" (+{more} more)" if more > 0 else "")


def sequence_program(compiled, clock: str, stimulus: list[dict[str, int]]):
    """The fused cycle program for a clocked run of ``stimulus``, or ``None``.

    ``None`` keeps the run on the scalar engine: a design without clocked
    processes or without a program, and unusual runs whose outcome (error
    text included) must stay the scalar engine's own — a clock or stimulus
    name that is not an input port, a non-integer stimulus value.
    """
    artifact = compiled.codegen
    if (
        not compiled.has_sequential_processes
        or artifact is None
        or artifact.sequence is None
    ):
        return None
    inputs = compiled.input_widths()
    if clock not in inputs or not set().union(*stimulus) <= inputs.keys():
        return None
    if not all(isinstance(value, int) for vector in stimulus for value in vector.values()):
        return None
    return artifact.sequence


def reset_pin(compiled, reset: ResetSpec | None) -> str | None:
    """``reset``'s pin when it is an input port of the design, else ``None``."""
    if reset is not None and reset.signal in compiled.input_widths():
        return reset.signal
    return None


def reset_state(compiled, clock: str, reset: ResetSpec | None) -> dict[str, LogicVector]:
    """The design's signal values after the reset protocol (name → ``LogicVector``).

    This is the only reset in the program: the testbench runners, the
    sequential unroller of :mod:`repro.formal.cone` and the counterexample
    replay of :mod:`repro.bench.golden` all start from it.  When ``reset``
    names an input port of the design, that pin is held at its active level
    across :data:`RESET_CYCLES` clock cycles and then released; otherwise
    nothing is applied, and the pin — under whatever name the design gave
    it — is an ordinary input.  The reset runs once per design, clock and
    ``reset`` on a scalar :class:`ModuleSimulator`; the snapshot is memoised
    on the :class:`~repro.verilog.design.CompiledDesign`.  Each call returns
    a fresh copy.
    """

    def simulate() -> dict[str, LogicVector]:
        simulator = ModuleSimulator(compiled)
        pin = reset_pin(compiled, reset)
        if pin is not None:
            active = 0 if reset.active_low else 1
            simulator.apply_inputs({pin: active})
            for _ in range(RESET_CYCLES):
                simulator.apply_inputs({clock: 1})
                simulator.apply_inputs({clock: 0})
            simulator.apply_inputs({pin: 1 - active})
        return dict(simulator.signals)

    return dict(compiled.derived(("reset-state", clock, reset), simulate))


class ClockedCycles:
    """The clock cycles of one stimulus sequence, from a post-reset state.

    ``state`` is a snapshot of the design's signals at a cycle boundary,
    normally :func:`reset_state`.  Cycles run on the scalar simulator until
    the state passes ``program``'s x/z gate
    (:meth:`~repro.verilog.codegen.SequenceProgram.ready`), and on the
    design's fused generated loop (:class:`~repro.verilog.codegen.SequenceRun`)
    from there on; with no program every cycle is scalar.  The scalar
    simulator is built from the snapshot only when a cycle has to run on it.
    """

    def __init__(
        self,
        compiled,
        clock: str,
        program,
        stimulus: list[dict[str, int]],
        state: dict[str, LogicVector],
    ):
        self._compiled = compiled
        self._clock = clock
        self._program = program
        self._applied = {clock}.union(*stimulus) if program is not None else None
        self._simulator: ModuleSimulator | None = None
        self._state = state
        self._run = None

    def _values(self) -> dict[str, LogicVector]:
        return self._simulator.signals if self._simulator is not None else self._state

    def cycle(self, data: dict[str, int]) -> None:
        """Apply ``data`` (clock excluded), raise and lower the clock."""
        if (
            self._run is None
            and self._program is not None
            and self._program.ready(self._values(), data, self._applied)
        ):
            from ..codegen import SequenceRun

            self._run = SequenceRun(
                self._program, self._values(), self._clock, self._compiled.name
            )
        if self._run is not None:
            self._run.cycle(data)
            return
        if self._simulator is None:
            self._simulator = ModuleSimulator(self._compiled)
            self._simulator.signals.update(self._state)
        if data:
            self._simulator.apply_inputs(data)
        self._simulator.apply_inputs({self._clock: 1})
        self._simulator.apply_inputs({self._clock: 0})

    def read(self, name: str) -> LogicVector | None:
        """The signal's value after the last cycle (``None`` if undeclared)."""
        if self._run is not None:
            return self._run.read(name)
        return self._values().get(name)


class TestbenchRunner:
    """Drive a DUT with stimulus and compare outputs against a golden model.

    The DUT source is compiled exactly once per run through the (default)
    :class:`~repro.verilog.design.DesignDatabase`, so scoring many candidates
    — or the same candidate many times — re-uses the cached front end.

    Scoring has two halves: the design's steps, which drive the stimulus and
    yield one reader of the design's signal values per step
    (:meth:`_steps`), and the one comparison loop (:meth:`_score`).  The
    same steps record a reference design's outputs as an
    :class:`ExpectedTrace` (:meth:`record`).
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        clock: str = "clk",
        reset: ResetSpec | None = None,
        max_mismatches: int = 32,
        database=None,
    ):
        self.clock = clock
        self.reset = reset
        self.max_mismatches = max_mismatches
        self.database = database

    def _compile(self, dut_source: str, module_name: str | None):
        """Compile the DUT via the database; a failure becomes a failed result."""
        from ..design import get_default_database

        db = self.database if self.database is not None else get_default_database()
        try:
            return db.compile(dut_source, module_name)
        except VerilogError as exc:
            return TestbenchResult(passed=False, error=str(exc))

    def run(
        self,
        dut_source: str,
        golden: GoldenModel,
        stimulus: list[dict[str, int]],
        module_name: str | None = None,
        check_outputs: list[str] | None = None,
    ) -> TestbenchResult:
        """Run the testbench and return the result.

        Args:
            dut_source: Verilog source of the design under test.
            golden: reference model producing expected outputs.
            stimulus: one input dict per step (combinational) or per cycle (sequential).
            module_name: module to simulate (defaults to the first in the source).
            check_outputs: subset of outputs to compare; defaults to every key the
                golden model produces.  An output a step's expected row omits
                is not checked on that step.
        """
        compiled = self._compile(dut_source, module_name)
        if isinstance(compiled, TestbenchResult):
            return compiled
        steps = self._steps(compiled, golden.is_sequential, stimulus)
        return self._score(golden, stimulus, check_outputs, steps)

    def record(
        self, compiled, stimulus: list[dict[str, int]], outputs: Sequence[str], sequential: bool
    ) -> ExpectedTrace:
        """A design's ``outputs`` over ``stimulus``, stepped as :meth:`run` steps a DUT.

        A sequential design starts from :func:`reset_state` under this
        runner's clock and :class:`ResetSpec`.  Outputs that are x/z or
        undeclared are left out of each row, so they constrain nothing when
        the trace is replayed; what the design raised is kept as the trace's
        ``error``, as :meth:`ExpectedTrace.record` keeps a golden's.
        """
        rows: list[dict[str, int]] = []
        try:
            for read in self._steps(compiled, sequential, stimulus)():
                row = {}
                for name in outputs:
                    value = read(name)
                    if value is not None and not value.has_unknown:
                        row[name] = value.to_int()
                rows.append(row)
        except Exception as exc:
            return ExpectedTrace(sequential, tuple(rows), exc.with_traceback(None))
        return ExpectedTrace(sequential, tuple(rows))

    # ------------------------------------------------------------------ steps
    def _steps(self, compiled, sequential: bool, stimulus: list[dict[str, int]]):
        """How this runner steps ``compiled``: the scalar steps."""
        return functools.partial(self._serial_steps, compiled, sequential, stimulus)

    def _serial_steps(
        self, compiled, sequential: bool, stimulus: list[dict[str, int]], program=None
    ) -> Iterator[Callable[[str], LogicVector | None]]:
        """Cycle-serial steps on the scalar simulator, one reader per vector.

        Sequential steps start from :func:`reset_state`; with ``program``
        (the design's :class:`~repro.verilog.codegen.SequenceProgram`), the
        cycles from the first boundary whose state passes the program's x/z
        gate run on the fused generated loop instead (:class:`ClockedCycles`).
        """
        if sequential:
            cycles = ClockedCycles(
                compiled,
                self.clock,
                program,
                stimulus,
                state=reset_state(compiled, self.clock, self.reset),
            )

            def step(inputs: dict[str, int]):
                cycles.cycle({name: value for name, value in inputs.items() if name != self.clock})
                return cycles.read

        else:
            simulator = ModuleSimulator(compiled)

            def step(inputs: dict[str, int]):
                simulator.apply_inputs(dict(inputs))
                return simulator.signals.get

        return map(step, stimulus)

    # ------------------------------------------------------------------ scoring
    def _score(
        self,
        golden: GoldenModel,
        stimulus: list[dict[str, int]],
        check_outputs: list[str] | None,
        steps: Callable[[], Iterator[Callable[[str], LogicVector | None]]],
    ) -> TestbenchResult:
        """The comparison loop: the golden's row against the design, step by step.

        ``steps`` starts the design and returns its per-step readers.  An
        output the expected row omits is skipped: an x/z reference value
        constrains nothing.  An x/z or missing DUT output mismatches.
        """
        mismatches: list[Mismatch] = []
        total_checks = 0
        golden.reset()
        drive = golden.step if golden.is_sequential else golden.eval
        try:
            readers = steps()
            for index, raw_inputs in enumerate(stimulus):
                inputs = dict(raw_inputs)
                expected = drive(inputs)
                read = next(readers)
                outputs_to_check = check_outputs if check_outputs is not None else sorted(expected)
                for output in outputs_to_check:
                    if output not in expected:
                        continue
                    total_checks += 1
                    expected_value = expected[output]
                    actual = read(output)
                    if not self._matches(actual, expected_value):
                        mismatches.append(
                            Mismatch(
                                step_index=index,
                                output=output,
                                expected=expected_value,
                                actual=actual.to_verilog_literal() if actual is not None else "<missing>",
                                inputs=inputs,
                            )
                        )
                        if len(mismatches) >= self.max_mismatches:
                            raise _EarlyStop()
        except _EarlyStop:
            pass
        except VerilogError as exc:
            return TestbenchResult(
                passed=False, total_checks=total_checks, mismatches=mismatches, error=str(exc)
            )

        return TestbenchResult(
            passed=not mismatches and total_checks > 0,
            total_checks=total_checks,
            mismatches=mismatches,
        )

    def _matches(self, actual: LogicVector | None, expected: int) -> bool:
        if actual is None:
            return False
        if actual.has_unknown:
            return False
        mask = (1 << actual.width) - 1
        return actual.to_int() == (expected & mask)


class BatchTestbenchRunner(TestbenchRunner):
    """Testbench runner that steps DUTs on generated code where it can.

    For a purely combinational design and golden model, all stimulus vectors
    become lanes of one :class:`~repro.verilog.simulator.batch.BatchSimulator`
    pass — removing the per-vector Python dispatch that dominates functional
    pass@k scoring.  A clocked design checked against a sequential golden
    model starts from its memoised :func:`reset_state` and runs its cycles on
    the design's fused generated loop (:class:`~repro.verilog.codegen.SequenceRun`).
    Everything else — combinational stimulus with inconsistent key sets
    (whose vectors inherit values from prior steps), latches, designs the
    lowering rejects, stimulus the x/z gate refuses, stimulus naming a
    non-input — runs on the scalar cycle-serial steps, which also remain the
    differential oracle: with ``differential=True`` every fast run is
    re-checked on the scalar steps, and a divergence of ``passed``,
    ``total_checks`` or ``failure_summary`` raises ``AssertionError``.
    """

    def __init__(
        self,
        clock: str = "clk",
        reset: ResetSpec | None = None,
        max_mismatches: int = 32,
        differential: bool = False,
        database=None,
    ):
        super().__init__(clock=clock, reset=reset, max_mismatches=max_mismatches, database=database)
        self.differential = differential

    def run(
        self,
        dut_source: str,
        golden: GoldenModel,
        stimulus: list[dict[str, int]],
        module_name: str | None = None,
        check_outputs: list[str] | None = None,
    ) -> TestbenchResult:
        compiled = self._compile(dut_source, module_name)
        if isinstance(compiled, TestbenchResult):
            return compiled
        sequential = golden.is_sequential
        scalar = super()._steps(compiled, sequential, stimulus)
        fast = self._fast_steps(compiled, sequential, stimulus)
        result = self._score(golden, stimulus, check_outputs, fast or scalar)
        if self.differential and fast is not None:
            oracle = self._score(golden, stimulus, check_outputs, scalar)
            fast_outcome = (result.passed, result.total_checks, result.failure_summary)
            scalar_outcome = (oracle.passed, oracle.total_checks, oracle.failure_summary)
            if fast_outcome != scalar_outcome:
                raise AssertionError(
                    f"generated code diverged from the scalar oracle: "
                    f"codegen {fast_outcome}, scalar {scalar_outcome}"
                )
        return result

    def _steps(self, compiled, sequential: bool, stimulus: list[dict[str, int]]):
        """Generated-code steps where the design and stimulus allow, else scalar ones."""
        return self._fast_steps(compiled, sequential, stimulus) or super()._steps(
            compiled, sequential, stimulus
        )

    def _fast_steps(self, compiled, sequential: bool, stimulus: list[dict[str, int]]):
        """The generated-code steps of ``stimulus``, or ``None`` when only scalar ones fit."""
        if sequential:
            program = sequence_program(compiled, self.clock, stimulus)
            if program is None:
                return None
            return functools.partial(self._serial_steps, compiled, True, stimulus, program)
        if (
            not stimulus
            or any(vector.keys() != stimulus[0].keys() for vector in stimulus)
            # Edge-triggered registers and inferred latches carry history across
            # serially-applied vectors (e.g. a wrongly clocked answer to a
            # combinational task); independent lanes cannot reproduce that.
            or compiled.has_sequential_processes
            or compiled.has_latch_risk
        ):
            return None
        return functools.partial(self._lane_steps, compiled, stimulus)

    def _lane_steps(self, compiled, stimulus: list[dict[str, int]]):
        """One batch pass over all vectors, one lane reader per vector.

        The scalar steps when generated code cannot take the design or the
        stimulus.
        """
        from .batch import BatchSimulator, LaneFallback

        try:
            simulator = BatchSimulator(compiled, lanes=len(stimulus))
            simulator.apply_inputs(
                {name: [vector[name] for vector in stimulus] for name in stimulus[0]}
            )
        except LaneFallback:
            return self._serial_steps(compiled, False, stimulus)
        signals = simulator.signals

        def lane(index: int):
            return lambda name: simulator.get_lane(name, index) if name in signals else None

        return map(lane, range(len(stimulus)))


class _EarlyStop(Exception):
    """Internal signal used to stop checking after too many mismatches."""


def run_functional_check(
    dut_source: str,
    golden: GoldenModel,
    stimulus: list[dict[str, int]],
    clock: str = "clk",
    reset: ResetSpec | None = None,
    module_name: str | None = None,
    check_outputs: list[str] | None = None,
) -> TestbenchResult:
    """One-call functional check of a DUT against a golden model."""
    runner = TestbenchRunner(clock=clock, reset=reset)
    return runner.run(
        dut_source,
        golden,
        stimulus,
        module_name=module_name,
        check_outputs=check_outputs,
    )
