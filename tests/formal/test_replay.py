"""Counterexample replay from memoised reset states, and the two reset protocols.

``bench.golden._replay_sequential_counterexample`` starts each design from
the post-reset state the sequential unroller memoised for the proof
(:func:`repro.formal.cone.post_reset_state`) and runs its cycles on generated
code once the state passes the x/z gate.  The oracle here is the replay as it
was before: a fresh scalar simulator per design, reset by
:func:`~repro.formal.cone.apply_reset_pulse`, then scalar clock cycles.

Every sequential counterexample of a tiny formal-mode Table V run must replay
to the same verdict on every prefix of its steps, a doctored one must still
raise ``FormalError``, and the reset pulse must run once per clocked design
and clocking across the whole run.  The last test measures where the
testbench's ``ResetSpec`` reset and ``apply_reset_pulse`` leave a suite
reference in different states.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.bench.golden as golden
import repro.formal as formal
import repro.formal.cone as cone
import repro.verilog.codegen as codegen
from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.experiments import ExperimentScale, build_suites
from repro.formal import Counterexample, EquivalenceResult, FormalError
from repro.runs.engine import RunEngine
from repro.runs.presets import table5_manifest
from repro.runs.store import RunStore
from repro.verilog.design import DesignDatabase, set_default_database
from repro.verilog.simulator import ModuleSimulator
from repro.verilog.simulator.testbench import TestbenchRunner

pytestmark = pytest.mark.formal

REPLAY_PARAMETERS = inspect.signature(golden._replay_sequential_counterexample)


def _scalar_replay(
    dut_source,
    reference_source,
    steps,
    checked_outputs,
    clock,
    reset,
    reset_active_low,
    module_name,
    reference_module_name,
) -> bool:
    """The oracle: reset two fresh scalar simulators, then scalar cycles."""

    def prepared(source, name):
        simulator = ModuleSimulator.from_source(source, name)
        cone.apply_reset_pulse(
            simulator, clock=clock, reset=reset, reset_active_low=reset_active_low
        )
        return simulator

    dut = prepared(dut_source, module_name)
    reference = prepared(reference_source, reference_module_name)
    for step_inputs in steps:
        dut.clock_cycle(clock, dict(step_inputs))
        reference.clock_cycle(clock, dict(step_inputs))
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
@pytest.fixture(scope="module")
def table5_run():
    """A tiny formal-mode Table V run under a fresh design database.

    Returns the arguments of every sequential counterexample replay and the
    ``(design key, clocking)`` of every reset pulse, both in call order.
    """
    replays: list[dict] = []
    pulses: list[tuple] = []
    replay = golden._replay_sequential_counterexample
    pulse = cone.apply_reset_pulse

    def spy_replay(*args, **kwargs):
        replays.append(dict(REPLAY_PARAMETERS.bind(*args, **kwargs).arguments))
        return replay(*args, **kwargs)

    def spy_pulse(simulator, *clocking, **keywords):
        pulses.append((simulator.compiled.key, clocking, tuple(sorted(keywords.items()))))
        return pulse(simulator, *clocking, **keywords)

    manifest = table5_manifest(ExperimentScale.tiny())
    manifest.config = dataclasses.replace(manifest.config, mode="formal")
    previous = set_default_database(DesignDatabase())
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(golden, "_replay_sequential_counterexample", spy_replay)
            patch.setattr(cone, "apply_reset_pulse", spy_pulse)
            store = RunStore.ephemeral()
            RunEngine(manifest, store).run()
    finally:
        set_default_database(previous)
    assert list(store.records())
    return replays, pulses


def test_replay_matches_the_scalar_replay_on_every_prefix(table5_run):
    replays, _ = table5_run
    assert len(replays) >= 20
    for replay in replays:
        assert golden._replay_sequential_counterexample(**replay), replay["dut_source"]
        for prefix in _prefixes(replay):
            assert golden._replay_sequential_counterexample(**prefix) == _scalar_replay(
                **prefix
            ), (replay["dut_source"], len(prefix["steps"]))


def test_a_doctored_counterexample_raises_formal_error(table5_run, monkeypatch):
    """Cut each counterexample before its first mismatch: no output differs."""
    replays, _ = table5_run
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
                reset_active_low=replay["reset_active_low"],
                induction_depth=1,
            )


def test_reset_pulse_runs_once_per_design_and_clocking(table5_run):
    replays, pulses = table5_run
    assert len(pulses) == len(set(pulses))
    # Every replayed design was reset (once, above), so no replay reset again.
    database = DesignDatabase()
    for replay in replays:
        for source, name in (
            (replay["dut_source"], replay["module_name"]),
            (replay["reference_source"], replay["reference_module_name"]),
        ):
            key = database.compile(source, name).key
            assert any(pulse[0] == key for pulse in pulses)


def test_a_handed_over_replay_builds_no_scalar_simulator(table5_run, monkeypatch):
    replays, _ = table5_run
    built, runs = _count_engines(monkeypatch)
    replay = replays[0]
    # The first replay memoises both reset states, as the proof would have.
    golden._replay_sequential_counterexample(**replay)
    built.clear()
    runs.clear()
    assert golden._replay_sequential_counterexample(**replay)
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
        # No reset pin: ``q`` is x after the parked clock, so the first cycle
        # is scalar and the rest hand over to generated code.
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
        clock="clk",
        reset=None,
        reset_active_low=False,
        module_name=None,
        reference_module_name=None,
    )
    assert golden._replay_sequential_counterexample(**replay)
    # Two memoised reset states, then the simulators the cycles needed.
    assert len(built) == 2 + engines["scalar"]
    assert len(runs) == engines["generated"]
    for prefix in _prefixes(replay):
        assert golden._replay_sequential_counterexample(**prefix) == _scalar_replay(**prefix)


# --------------------------------------------------------------------------- two reset protocols
#: Sequential references (task ids) whose post-reset state differs between
#: the testbench's ``ResetSpec`` reset and ``apply_reset_pulse``.
PROTOCOLS_DIFFER: list[str] = []


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


def test_reset_protocols_differ_only_on_the_pinned_references():
    tasks = _sequential_references()
    assert len(tasks) >= 200
    database = DesignDatabase()
    differ = []
    for task in tasks:
        golden_model = task.golden()
        testbench = ModuleSimulator.from_source(task.reference_source)
        TestbenchRunner(clock=task.clock, reset=task.reset)._apply_reset(
            testbench, golden_model
        )
        reset = task.reset
        formal_state = cone.post_reset_state(
            database.compile(task.reference_source),
            task.clock,
            *cone.resolve_reset(
                [port.name for port in testbench.design.input_ports()],
                reset.signal if reset is not None else None,
                bool(reset.active_low) if reset is not None else False,
            ),
        )
        if testbench.signals != formal_state:
            differ.append(task.task_id)
    assert differ == PROTOCOLS_DIFFER
