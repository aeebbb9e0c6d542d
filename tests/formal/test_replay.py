"""Counterexample replay and the one reset protocol.

``bench.golden._counterexample_reproduces`` records the reference's outputs
over a counterexample's steps with the testbench runner's own steps and
scores the DUT against them on ``BatchTestbenchRunner``: a sequential design
starts from its post-reset state
(:func:`repro.verilog.simulator.testbench.reset_state`, memoised on the
compiled design; the sequential unroller proved from the same snapshot) and
runs its cycles on generated code once the state passes the x/z gate.  The
oracle here uses neither the memo nor generated code: a fresh scalar
simulator per design, reset by a live pulse of the task's pin
(:func:`_pulsed`), then scalar clock cycles.

Every counterexample of a tiny formal-mode Table V run must replay to the
same verdict on every prefix of its steps, no journaled outcome may carry
the "did not reproduce" ``FormalError``, and a doctored counterexample must
still raise it.  The reset must run once per design, clock and
``ResetSpec`` across a whole run, in formal and in simulation mode.  The
memoised snapshot must equal the live pulse on every paper-scale sequential
reference, and a candidate that renames the task's reset pin must get the
same start, and the same verdict, from every engine.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

import repro.bench.golden as golden
import repro.formal as formal
import repro.verilog.codegen as codegen
from repro.bench.jobs import CheckRequest, execute_check
from repro.bench.outcomes import ResultKey
from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.experiments import ExperimentScale, build_suites
from repro.formal import AIG, Counterexample, EquivalenceResult, FormalError
from repro.formal.cone import SequentialUnroller
from repro.runs.engine import RunEngine
from repro.runs.presets import table5_manifest
from repro.runs.store import RunStore
from repro.verilog.design import CompiledDesign, DesignDatabase, set_default_database
from repro.verilog.errors import SimulationError
from repro.verilog.simulator import ModuleSimulator
from repro.verilog.simulator.testbench import ExpectedTrace, ResetSpec, reset_state

pytestmark = pytest.mark.formal

REPLAY_PARAMETERS = inspect.signature(golden._counterexample_reproduces)


def _pulsed(source, name, clock, reset) -> ModuleSimulator:
    """The oracle's reset: a live pulse of ``reset``'s pin on a fresh scalar simulator.

    The pin, when it is an input port, is held active across two clock
    cycles and released; otherwise nothing is applied.
    """
    simulator = ModuleSimulator.from_source(source, name)
    if reset is not None and reset.signal in simulator.input_names():
        active = 0 if reset.active_low else 1
        simulator.apply_inputs({reset.signal: active})
        simulator.clock_cycle(clock)
        simulator.clock_cycle(clock)
        simulator.apply_inputs({reset.signal: 1 - active})
    return simulator


def _scalar_replay(
    dut_source,
    reference_source,
    steps,
    checked_outputs,
    sequential,
    clock,
    reset,
    module_name,
    reference_module_name,
) -> bool:
    """The oracle: two fresh scalar simulators, reset and clocked when sequential.

    Each design is driven with the step inputs that are its own input ports.
    """
    if sequential:
        dut = _pulsed(dut_source, module_name, clock, reset)
        reference = _pulsed(reference_source, reference_module_name, clock, reset)
    else:
        dut = ModuleSimulator.from_source(dut_source, module_name)
        reference = ModuleSimulator.from_source(reference_source, reference_module_name)
    for step_inputs in steps:
        for simulator in (dut, reference):
            ports = simulator.input_names()
            own = {name: value for name, value in step_inputs.items() if name in ports}
            if sequential:
                simulator.clock_cycle(clock, own)
            else:
                simulator.apply_inputs(own)
        for name in checked_outputs:
            expected = reference.get(name)
            if expected.has_unknown:
                continue
            if name not in dut.signals:
                return True
            actual = dut.get(name)
            mask = (1 << actual.width) - 1
            if actual.has_unknown or actual.to_int() != (expected.to_int() & mask):
                return True
    return False


def _spy_resets(patch) -> tuple[list[tuple], list[tuple]]:
    """Post-reset states requested from now on, and the resets that built one.

    Each entry is ``(design key, clock, reset)``: the reset runs only where
    the memo on the compiled design has no snapshot yet.
    """
    requested: list[tuple] = []
    pulses: list[tuple] = []
    derived = CompiledDesign.derived

    def spy(self, key, build):
        if key[0] != "reset-state":
            return derived(self, key, build)
        entry = (self.key, *key[1:])
        requested.append(entry)

        def pulse():
            pulses.append(entry)
            return build()

        return derived(self, key, pulse)

    patch.setattr(CompiledDesign, "derived", spy)
    return requested, pulses


def _counting(function, calls: list):
    """``function`` (an ``__init__``) that first appends its instance to ``calls``."""

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return function(self, *args, **kwargs)

    return wrapper


def _count_engines(monkeypatch) -> tuple[list, list]:
    """Scalar simulators and generated-code runs built from now on."""
    built: list[object] = []
    runs: list[object] = []
    monkeypatch.setattr(ModuleSimulator, "__init__", _counting(ModuleSimulator.__init__, built))
    monkeypatch.setattr(
        codegen.SequenceRun, "__init__", _counting(codegen.SequenceRun.__init__, runs)
    )
    return built, runs


def _prefixes(replay: dict):
    """The replay's arguments with each prefix of its steps, shortest first."""
    for length in range(len(replay["steps"]) + 1):
        yield dict(replay, steps=replay["steps"][:length])


# --------------------------------------------------------------------------- one Table V run
def _tiny_table5_run(mode: str, **changes) -> dict:
    """A tiny Table V run in ``mode`` under a fresh design database.

    Returns the arguments of every counterexample replay, every post-reset
    state requested and every reset run (see :func:`_spy_resets`), all in
    call order, and the journal's records.
    """
    replays: list[dict] = []
    replay = golden._counterexample_reproduces

    def spy_replay(*args, **kwargs):
        replays.append(dict(REPLAY_PARAMETERS.bind(*args, **kwargs).arguments))
        return replay(*args, **kwargs)

    manifest = table5_manifest(ExperimentScale.tiny())
    manifest.config = dataclasses.replace(manifest.config, mode=mode, **changes)
    previous = set_default_database(DesignDatabase())
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(golden, "_counterexample_reproduces", spy_replay)
            requested, pulses = _spy_resets(patch)
            store = RunStore.ephemeral()
            RunEngine(manifest, store).run()
    finally:
        set_default_database(previous)
    records = list(store.records())
    assert records
    return {"replays": replays, "requested": requested, "pulses": pulses, "records": records}


@pytest.fixture(scope="module")
def table5_run():
    """The formal-mode run."""
    return _tiny_table5_run("formal")


@pytest.fixture(scope="module")
def table5_simulation_run():
    """The simulation-mode run, each batched verdict re-checked on the scalar runner."""
    return _tiny_table5_run("simulation", differential_oracle=True)


def _sequential(replays: list[dict]) -> list[dict]:
    return [replay for replay in replays if replay["sequential"]]


def test_every_refutation_reproduces(table5_run):
    """Both kinds of refutation replay, and none is journaled as unreproduced."""
    replays = table5_run["replays"]
    assert 0 < len(_sequential(replays)) < len(replays)
    for record in table5_run["records"]:
        assert "did not reproduce" not in json.dumps(record), record


def test_replay_matches_the_scalar_replay_on_every_prefix(table5_run):
    replays = table5_run["replays"]
    assert len(_sequential(replays)) >= 20
    for replay in replays:
        assert golden._counterexample_reproduces(**replay), replay["dut_source"]
        for prefix in _prefixes(replay):
            assert golden._counterexample_reproduces(**prefix) == _scalar_replay(
                **prefix
            ), (replay["dut_source"], len(prefix["steps"]))


def test_a_doctored_counterexample_raises_formal_error(table5_run, monkeypatch):
    """Cut each counterexample before its first mismatch: no output differs."""
    replays = _sequential(table5_run["replays"])
    doctored = []
    for replay in replays:
        matching = [prefix for prefix in _prefixes(replay) if not _scalar_replay(**prefix)]
        if matching[-1]["steps"]:
            doctored.append(matching[-1])
    assert doctored
    for replay in doctored:
        result = EquivalenceResult(
            equivalent=False,
            counterexample=Counterexample(steps=replay["steps"]),
            checked_outputs=list(replay["checked_outputs"]),
        )
        monkeypatch.setattr(formal, "prove_sequential_by_induction", lambda *a, **k: result)
        with pytest.raises(FormalError, match="did not reproduce"):
            golden.formal_equivalence_check(
                replay["dut_source"],
                replay["reference_source"],
                outputs=replay["checked_outputs"],
                module_name=replay["module_name"],
                reference_module_name=replay["reference_module_name"],
                clock=replay["clock"],
                reset=replay["reset"],
                induction_depth=1,
            )


def test_reset_pulse_runs_once_per_design_and_clocking(table5_run):
    pulses = table5_run["pulses"]
    assert len(pulses) == len(set(pulses))
    # Every replayed design was reset (once, above), so no replay reset again.
    database = DesignDatabase()
    for replay in _sequential(table5_run["replays"]):
        for source, name in (
            (replay["dut_source"], replay["module_name"]),
            (replay["reference_source"], replay["reference_module_name"]),
        ):
            key = database.compile(source, name).key
            assert any(pulse[0] == key for pulse in pulses)


def test_simulation_mode_resets_each_design_once(table5_simulation_run):
    """The fused run and its scalar re-check start from one reset."""
    requested = table5_simulation_run["requested"]
    pulses = table5_simulation_run["pulses"]
    assert pulses
    assert len(pulses) == len(set(pulses))
    assert set(pulses) == set(requested)
    assert len(requested) > len(pulses)


def test_a_handed_over_replay_builds_no_scalar_simulator(table5_run, monkeypatch):
    replays = _sequential(table5_run["replays"])
    built, runs = _count_engines(monkeypatch)
    replay = replays[0]
    # The first replay memoises both reset states, as the proof would have.
    golden._counterexample_reproduces(**replay)
    built.clear()
    runs.clear()
    assert golden._counterexample_reproduces(**replay)
    assert built == []
    assert len(runs) == 2


# --------------------------------------------------------------------------- scalar fallbacks
@pytest.fixture
def fresh_database():
    previous = set_default_database(DesignDatabase())
    yield
    set_default_database(previous)


SHIFT = """
module shift (input clk, input rst, input [1:0] s, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) if (rst) q <= 4'd0; else q <= d << s;
endmodule
"""
LOADED = """
module loaded (input clk, input [1:0] s, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) q <= d + s;
endmodule
"""

STEPS = [
    {"s": 0, "d": 3},
    {"s": 0, "d": 5},
    {"s": 2, "d": 1},
    {"s": 3, "d": 15},
]


@pytest.mark.parametrize(
    "dut, reference, engines",
    [
        # Generated code rejects a non-constant shift: every cycle is scalar.
        (SHIFT.replace("d << s", "d >> s"), SHIFT, {"scalar": 2, "generated": 0}),
        # No ``rst`` pin: ``q`` is x at the start, so the first cycle is
        # scalar and the rest hand over to generated code.
        (LOADED.replace("d + s", "d - s"), LOADED, {"scalar": 2, "generated": 2}),
    ],
    ids=["rejected-design", "x-after-reset"],
)
def test_replay_leaves_generated_code_where_the_gate_refuses(
    dut, reference, engines, fresh_database, monkeypatch
):
    built, runs = _count_engines(monkeypatch)
    replay = dict(
        dut_source=dut,
        reference_source=reference,
        steps=STEPS,
        checked_outputs=["q"],
        sequential=True,
        clock="clk",
        reset=ResetSpec(signal="rst"),
        module_name=None,
        reference_module_name=None,
    )
    assert golden._counterexample_reproduces(**replay)
    # Two memoised reset states, then the simulators the cycles needed.
    assert len(built) == 2 + engines["scalar"]
    assert len(runs) == engines["generated"]
    for prefix in _prefixes(replay):
        assert golden._counterexample_reproduces(**prefix) == _scalar_replay(**prefix)


#: The replication count is an input: x before it is driven, which raises.
REPLICATED = """
module rep(input [1:0] n, input a, output [3:0] y);
    assign y = {n{a}};
endmodule
"""


def test_a_simulation_error_before_any_mismatch_is_raised(fresh_database):
    """Whichever design raises, its error surfaces, as the text the journal keeps."""
    constant = REPLICATED.replace("{n{a}}", "{4{a}}")
    replay = dict(
        dut_source=REPLICATED,
        reference_source=constant,
        steps=[{"n": 1, "a": 1}],
        checked_outputs=["y"],
        sequential=False,
        clock="clk",
        reset=ResetSpec(),
        module_name=None,
        reference_module_name=None,
    )
    for dut, reference in ((REPLICATED, constant), (constant, REPLICATED)):
        swapped = dict(replay, dut_source=dut, reference_source=reference)
        with pytest.raises(SimulationError, match="^replication count must be positive$"):
            golden._counterexample_reproduces(**swapped)


# --------------------------------------------------------------------------- one reset protocol
def _sequential_references():
    """Every sequential task of the five suites at paper scale."""
    scale = ExperimentScale.paper()
    suites = dict(build_suites(scale))
    suites["symbolic"] = build_symbolic_suite(
        SuiteConfig(num_tasks=None, seed=scale.seed + 11)
    )
    return [
        task
        for suite in suites.values()
        for task in suite.tasks
        if task.golden().is_sequential
    ]


def test_memoised_reset_state_equals_a_live_pulse():
    tasks = _sequential_references()
    assert len(tasks) >= 200
    database = DesignDatabase()
    for task in tasks:
        compiled = database.compile(task.reference_source)
        first = reset_state(compiled, task.clock, task.reset)
        first.clear()  # each call returns a copy: the memo is untouched
        memoised = reset_state(compiled, task.clock, task.reset)
        live = _pulsed(task.reference_source, None, task.clock, task.reset)
        assert memoised == live.signals, task.task_id


#: The task's counter, with the task's reset pin ``rst``.
RST_COUNTER = """
module counter(input clk, input rst, input en, output reg [3:0] q);
    always @(posedge clk) if (rst) q <= 4'd0; else if (en) q <= q + 4'd1;
endmodule
"""

#: A candidate that calls the pin ``reset``: nothing drives it, so ``q`` is x.
RENAMED_RESET = RST_COUNTER.replace("rst", "reset")


class _EnabledCounter:
    is_sequential = True

    def reset(self):
        self.q = 0

    def step(self, inputs):
        if inputs["rst"]:
            self.q = 0
        elif inputs["en"]:
            self.q = (self.q + 1) % 16
        return {"q": self.q}


def _check(mode: str, code: str, reset: ResetSpec):
    stimulus = [{"rst": 0, "en": int(index % 3 != 2)} for index in range(8)]
    request = CheckRequest(
        key=ResultKey(code, "renamed-reset", mode),
        code=code,
        task_id="renamed-reset",
        expected=ExpectedTrace.record(_EnabledCounter(), stimulus),
        stimulus=stimulus,
        reference_source=RST_COUNTER,
        check_outputs=["q"],
        reset=reset,
        mode=mode,
    )
    return execute_check(request)[1]


def test_a_renamed_reset_pin_is_a_free_input_in_every_engine(fresh_database):
    reset = ResetSpec(signal="rst")
    unroller = SequentialUnroller(RENAMED_RESET, AIG(), reset=reset)
    assert unroller.reset_pin is None
    assert "reset" in unroller.data_inputs
    start = _pulsed(RENAMED_RESET, None, "clk", reset).signals
    assert start["q"].has_unknown
    assert unroller.reset_state() == start
    compiled = DesignDatabase().compile(RENAMED_RESET)
    assert reset_state(compiled, "clk", reset) == start
    # The candidate fails in simulation; formal mode must not prove it.
    verdicts = {mode: _check(mode, RENAMED_RESET, reset) for mode in ("simulation", "formal")}
    assert not verdicts["simulation"].passed
    assert verdicts["formal"].passed == verdicts["simulation"].passed
    # The task's own pin still resets the reference in both modes.
    assert _check("simulation", RST_COUNTER, reset).passed
    proved = _check("formal", RST_COUNTER, reset)
    assert proved.passed and proved.proof_stats["method"] == "induction"


#: A candidate with an input the task does not have: ``hold`` pauses it.
HOLD_COUNTER = RST_COUNTER.replace("input en,", "input en, input hold,").replace(
    "else if (en)", "else if (en && !hold)"
)


def test_an_extra_candidate_input_replays_with_each_designs_own_inputs(fresh_database):
    """The reference never reads ``hold``: formal reports a counterexample too.

    The counterexample's steps drive ``hold``, which only the candidate
    declares.  Its replay must report the mismatching step the scalar oracle
    reports, on every prefix, instead of failing on the reference's
    undeclared signal.
    """
    reset = ResetSpec(signal="rst")
    verdicts = {mode: _check(mode, HOLD_COUNTER, reset) for mode in ("simulation", "formal")}
    for mode, verdict in verdicts.items():
        assert not verdict.passed and verdict.error is None and verdict.mismatches, mode
    (mismatch,) = verdicts["formal"].mismatches
    assert mismatch.inputs["hold"] == 1
    result = formal.prove_sequential_by_induction(
        HOLD_COUNTER, RST_COUNTER, depth=4, reset=reset, outputs=["q"]
    )
    replay = dict(
        dut_source=HOLD_COUNTER,
        reference_source=RST_COUNTER,
        steps=result.counterexample.steps,
        checked_outputs=["q"],
        sequential=True,
        clock="clk",
        reset=reset,
        module_name=None,
        reference_module_name=None,
    )
    outcomes = [golden._counterexample_reproduces(**prefix) for prefix in _prefixes(replay)]
    assert outcomes == [_scalar_replay(**prefix) for prefix in _prefixes(replay)]
    # The first mismatching prefix ends at the step formal mode reports.
    assert outcomes.index(True) == mismatch.step_index + 1
