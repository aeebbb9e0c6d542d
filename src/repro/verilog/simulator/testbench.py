"""Testbench runner: check a DUT against a Python golden model.

Functional correctness in the benchmark suites is decided the same way the paper
does it with a commercial simulator and reference testbenches: the generated
module (DUT) is simulated against a stimulus sequence and its outputs are compared
cycle-by-cycle with a golden reference model implemented in Python.

:class:`TestbenchRunner` scores every check on the scalar four-state
simulator, the oracle.  :class:`BatchTestbenchRunner` scores on generated code
where it can — combinational checks as lanes of one batch pass, clocked ones
on the fused cycle loop after a scalar reset — and hands every other check to
the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol

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


@dataclass
class ResetSpec:
    """How to reset the DUT before applying stimulus."""

    signal: str = "rst"
    active_low: bool = False
    synchronous: bool = True
    cycles: int = 2


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

    @property
    def failure_summary(self) -> str:
        """Human-readable description of why the run failed (empty when passed)."""
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


class ClockedCycles:
    """The clock cycles of one stimulus sequence, from a cycle-boundary state.

    Cycles run on the scalar simulator until the state passes ``program``'s
    x/z gate (:meth:`~repro.verilog.codegen.SequenceProgram.ready`), and on
    the design's fused generated loop
    (:class:`~repro.verilog.codegen.SequenceRun`) from there on; with no
    program every cycle is scalar.  The start is a live ``simulator`` or a
    ``state`` snapshot of one's signals; from a snapshot the scalar
    simulator is built only when a cycle has to run on it.
    """

    def __init__(
        self,
        compiled,
        clock: str,
        program,
        stimulus: list[dict[str, int]],
        *,
        simulator: ModuleSimulator | None = None,
        state: dict[str, LogicVector] | None = None,
    ):
        self._compiled = compiled
        self._clock = clock
        self._program = program
        self._applied = {clock}.union(*stimulus) if program is not None else None
        self._simulator = simulator
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
                golden model produces.
        """
        compiled = self._compile(dut_source, module_name)
        if isinstance(compiled, TestbenchResult):
            return compiled
        return self._run_scalar(compiled, golden, stimulus, check_outputs)

    def _run_scalar(
        self,
        compiled,
        golden: GoldenModel,
        stimulus: list[dict[str, int]],
        check_outputs: list[str] | None,
        program=None,
    ) -> TestbenchResult:
        """Cycle-serial scoring of a compiled DUT against the golden model.

        With ``program`` (the design's
        :class:`~repro.verilog.codegen.SequenceProgram`), reset still runs on
        the scalar engine; the cycles from the first boundary whose state
        passes the program's x/z gate run on generated code instead
        (:class:`ClockedCycles`).
        """
        try:
            simulator = ModuleSimulator(compiled)
        except VerilogError as exc:
            return TestbenchResult(passed=False, error=str(exc))

        mismatches: list[Mismatch] = []
        total_checks = 0
        golden.reset()
        cycles = None

        try:
            if golden.is_sequential:
                self._apply_reset(simulator, golden)
                cycles = ClockedCycles(
                    compiled, self.clock, program, stimulus, simulator=simulator
                )
            for index, raw_inputs in enumerate(stimulus):
                inputs = dict(raw_inputs)
                if cycles is not None:
                    expected = golden.step(inputs)
                    cycles.cycle(
                        {name: value for name, value in inputs.items() if name != self.clock}
                    )
                else:
                    expected = golden.eval(inputs)
                    simulator.apply_inputs(dict(inputs))
                outputs_to_check = check_outputs if check_outputs is not None else sorted(expected)
                for output in outputs_to_check:
                    total_checks += 1
                    expected_value = expected[output]
                    if cycles is not None:
                        actual = cycles.read(output)
                    else:
                        actual = simulator.signals.get(output)
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

    # ------------------------------------------------------------------ helpers
    def _apply_reset(self, simulator: ModuleSimulator, golden: GoldenModel) -> None:
        if self.reset is None:
            return
        if self.reset.signal not in simulator.signals:
            return
        active = 0 if self.reset.active_low else 1
        inactive = 1 - active
        simulator.apply_inputs({self.reset.signal: active})
        # Hold reset active across a few clock edges so both synchronous and
        # asynchronous implementations observe it.
        for _ in range(self.reset.cycles):
            simulator.apply_inputs({self.clock: 1})
            simulator.apply_inputs({self.clock: 0})
        simulator.apply_inputs({self.reset.signal: inactive})
        golden.reset()

    def _matches(self, actual: LogicVector | None, expected: int) -> bool:
        if actual is None:
            return False
        if actual.has_unknown:
            return False
        mask = (1 << actual.width) - 1
        return actual.to_int() == (expected & mask)


class BatchTestbenchRunner(TestbenchRunner):
    """Testbench runner that scores DUTs on generated code where it can.

    For a purely combinational design and golden model, all stimulus vectors
    become lanes of one :class:`~repro.verilog.simulator.batch.BatchSimulator`
    pass — removing the per-vector Python dispatch that dominates functional
    pass@k scoring.  A clocked design checked against a sequential golden
    model is reset on the scalar engine and then runs its cycles on the
    design's fused generated loop (:class:`~repro.verilog.codegen.SequenceRun`).
    Everything else — combinational stimulus with inconsistent key sets
    (whose vectors inherit values from prior steps), latches, designs the
    lowering rejects, stimulus the x/z gate refuses, stimulus naming a
    non-input — runs on the scalar cycle-serial path, which also remains the
    differential oracle: with ``differential=True`` every fast run is
    re-checked against :class:`TestbenchRunner` and a divergence raises
    ``AssertionError``.
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
        program = (
            sequence_program(compiled, self.clock, stimulus) if golden.is_sequential else None
        )
        if program is not None:
            result = self._run_scalar(compiled, golden, stimulus, check_outputs, program)
            if self.differential:
                golden.reset()
                scalar = self._run_scalar(compiled, golden, stimulus, check_outputs)
                fast = (result.passed, result.total_checks, result.failure_summary)
                slow = (scalar.passed, scalar.total_checks, scalar.failure_summary)
                if fast != slow:
                    raise AssertionError(
                        f"generated sequential run diverged from the scalar oracle: "
                        f"codegen {fast}, scalar {slow}"
                    )
            return result
        if (
            not self._batchable(golden, stimulus)
            # Edge-triggered registers and inferred latches carry history across
            # serially-applied vectors (e.g. a wrongly clocked answer to a
            # combinational task); independent lanes cannot reproduce that.
            or compiled.has_sequential_processes
            or compiled.has_latch_risk
        ):
            return self._run_scalar(compiled, golden, stimulus, check_outputs)
        result = self._run_batched(compiled, golden, stimulus, check_outputs)
        if self.differential:
            golden.reset()
            scalar = self._run_scalar(compiled, golden, stimulus, check_outputs)
            if scalar.passed != result.passed:
                raise AssertionError(
                    f"batched testbench diverged from the scalar oracle: "
                    f"batch passed={result.passed}, scalar passed={scalar.passed}"
                )
        return result

    # ------------------------------------------------------------------ helpers
    def _batchable(self, golden: GoldenModel, stimulus: list[dict[str, int]]) -> bool:
        if golden.is_sequential or not stimulus:
            return False
        names = set(stimulus[0])
        return all(set(vector) == names for vector in stimulus)

    def _run_batched(
        self,
        compiled,
        golden: GoldenModel,
        stimulus: list[dict[str, int]],
        check_outputs: list[str] | None,
    ) -> TestbenchResult:
        """One batch pass over all vectors; the scalar path when generated code cannot."""
        from .batch import BatchSimulator, LaneFallback

        golden.reset()
        mismatches: list[Mismatch] = []
        total_checks = 0
        try:
            simulator = BatchSimulator(compiled, lanes=len(stimulus))
            expected_per_lane = [golden.eval(dict(vector)) for vector in stimulus]
            inputs = {
                name: [vector[name] for vector in stimulus] for name in stimulus[0]
            }
            simulator.apply_inputs(inputs)
            for index, vector in enumerate(stimulus):
                expected = expected_per_lane[index]
                outputs_to_check = check_outputs if check_outputs is not None else sorted(expected)
                for output in outputs_to_check:
                    total_checks += 1
                    expected_value = expected[output]
                    if output in simulator.signals:
                        actual = simulator.get_lane(output, index)
                    else:
                        actual = None
                    if not self._matches(actual, expected_value):
                        mismatches.append(
                            Mismatch(
                                step_index=index,
                                output=output,
                                expected=expected_value,
                                actual=actual.to_verilog_literal() if actual is not None else "<missing>",
                                inputs=dict(vector),
                            )
                        )
                        if len(mismatches) >= self.max_mismatches:
                            raise _EarlyStop()
        except _EarlyStop:
            pass
        except LaneFallback:
            golden.reset()
            return self._run_scalar(compiled, golden, stimulus, check_outputs)
        except VerilogError as exc:
            return TestbenchResult(
                passed=False, total_checks=total_checks, mismatches=mismatches, error=str(exc)
            )
        return TestbenchResult(
            passed=not mismatches and total_checks > 0,
            total_checks=total_checks,
            mismatches=mismatches,
        )


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
