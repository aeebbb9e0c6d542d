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
        passes the program's x/z gate run on generated code instead.
        """
        try:
            simulator = ModuleSimulator(compiled)
        except VerilogError as exc:
            return TestbenchResult(passed=False, error=str(exc))

        mismatches: list[Mismatch] = []
        total_checks = 0
        golden.reset()
        run = None
        if program is not None:
            from ..codegen import SequenceRun

            applied = {self.clock}.union(*stimulus)

        try:
            if golden.is_sequential:
                self._apply_reset(simulator, golden)
            for index, raw_inputs in enumerate(stimulus):
                inputs = dict(raw_inputs)
                if golden.is_sequential:
                    expected = golden.step(inputs)
                    data = {name: value for name, value in inputs.items() if name != self.clock}
                    if (
                        run is None
                        and program is not None
                        and program.ready(simulator.signals, data, applied)
                    ):
                        run = SequenceRun(program, simulator.signals, self.clock, compiled.name)
                    if run is None:
                        self._drive_cycle(simulator, data)
                    else:
                        run.cycle(data)
                else:
                    expected = golden.eval(inputs)
                    simulator.apply_inputs(dict(inputs))
                outputs_to_check = check_outputs if check_outputs is not None else sorted(expected)
                for output in outputs_to_check:
                    total_checks += 1
                    expected_value = expected[output]
                    if run is None:
                        actual = self._read_output(simulator, output)
                    else:
                        actual = run.read(output)
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

    def _drive_cycle(self, simulator: ModuleSimulator, data_inputs: dict[str, int]) -> None:
        """Apply one cycle's data inputs (clock excluded), raise and lower the clock."""
        if data_inputs:
            simulator.apply_inputs(data_inputs)
        simulator.apply_inputs({self.clock: 1})
        simulator.apply_inputs({self.clock: 0})

    def _read_output(self, simulator: ModuleSimulator, name: str) -> LogicVector | None:
        if name not in simulator.signals:
            return None
        return simulator.get(name)

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
        program = self._sequence_program(compiled, golden, stimulus)
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
    def _sequence_program(self, compiled, golden: GoldenModel, stimulus):
        """The fused program for a clocked check, or ``None`` to stay scalar.

        Unusual checks stay scalar so their outcome (error text included) is
        the scalar engine's own: a clock or stimulus name that is not an input
        port, a non-integer stimulus value, a rejected design.
        """
        artifact = compiled.codegen
        if (
            not golden.is_sequential
            or not compiled.has_sequential_processes
            or artifact is None
            or artifact.sequence is None
        ):
            return None
        inputs = compiled.input_widths()
        if self.clock not in inputs or not set().union(*stimulus) <= inputs.keys():
            return None
        if not all(isinstance(value, int) for vector in stimulus for value in vector.values()):
            return None
        return artifact.sequence

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
