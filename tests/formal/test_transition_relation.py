"""Frames copied from the transition relation agree with per-frame execution.

:class:`~repro.formal.cone.SequentialUnroller` encodes a design's clock step
once and builds each time frame as a substituted copy of it.  The oracle in
``reference_unroller`` re-runs symbolic execution for every frame instead.
On every clocked design of the five tiny suites, one corrupted candidate of
each, and the unroller unit-test designs, at depths 1–5, from reset and from a
symbolic state, both constructions must give equivalent output bits (an
UNSAT miter per differing bit), the same live undef inputs, and the same
``FormalEncodingError`` behaviour.

The relation is built lazily, once per design and clocking, and memoised on
the compiled design, never on disk: the second half of this file counts the
builds.
"""

from __future__ import annotations

import random

import pytest
from reference_unroller import unroll_from_reset, unroll_from_symbolic_state

import repro.formal.cone as cone
import test_cone
from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.core.llm.corruption import CorruptionInjector
from repro.core.taxonomy import HallucinationSubtype
from repro.experiments import ExperimentScale, build_suites
from repro.formal import prove_sequential_by_induction
from repro.formal.aig import AIG, FormalEncodingError, SymVector
from repro.formal.cone import SequentialUnroller
from repro.formal.miter import _solve_miter
from repro.verilog.design import DesignDatabase, set_default_database
from repro.verilog.simulator.testbench import ResetSpec

DEPTHS = range(1, 6)

COUNTER = test_cone.TestSequentialUnroller.COUNTER
ACTIVE_LOW_COUNTER = COUNTER.replace("rst", "rst_n").replace("if (rst_n)", "if (!rst_n)")


# --------------------------------------------------------------------------- designs
def _clocked_designs() -> list[tuple[str, str, dict]]:
    """(label, source, clocking) for every design the differential test covers."""
    scale = ExperimentScale.tiny()
    suites = dict(build_suites(scale))
    suites["symbolic"] = build_symbolic_suite(
        SuiteConfig(num_tasks=scale.human_tasks, seed=scale.seed + 11)
    )
    tasks = [task for suite in suites.values() for task in suite.tasks]
    subtypes = list(HallucinationSubtype)
    designs = [
        ("counter", COUNTER, {}),
        (
            "counter-active-low",
            ACTIVE_LOW_COUNTER,
            {"reset": ResetSpec("rst_n", active_low=True)},
        ),
    ]
    for index, task in enumerate(tasks):
        if not task.golden().is_sequential:
            continue
        clocking = {"clock": task.clock, "reset": task.reset}
        candidate = CorruptionInjector(random.Random(index)).inject(
            task.reference_source, subtypes[index % len(subtypes)]
        ).code
        designs.append((task.task_id, task.reference_source, clocking))
        designs.append((f"{task.task_id}:candidate", candidate, clocking))
    return designs


DESIGNS = _clocked_designs()


def _unrollers(source: str, clocking: dict) -> tuple[SequentialUnroller, SequentialUnroller]:
    """The unroller under test and the oracle's, over one shared graph."""
    aig = AIG()
    return (
        SequentialUnroller(source, aig, undef_prefix="new:", **clocking),
        SequentialUnroller(source, aig, undef_prefix="old:", **clocking),
    )


def _outcome(build):
    try:
        return build(), None
    except FormalEncodingError as error:
        return None, error


def _assert_equivalent_bits(aig: AIG, expected, actual) -> None:
    """Every output bit of every step is the same literal or provably equal."""
    assert len(expected) == len(actual)
    for expected_step, actual_step in zip(expected, actual):
        assert expected_step.keys() == actual_step.keys()
        for name, vector in expected_step.items():
            assert vector.width == actual_step[name].width
            for old, new in zip(vector.bits, actual_step[name].bits):
                if old == new:
                    continue
                satisfiable, *_ = _solve_miter(aig, aig.XOR(old, new), None)
                assert not satisfiable, name


def _compare(source: str, clocking: dict, depth: int, symbolic: bool) -> bool:
    """Check one unrolling against the oracle; ``True`` when both encoded it."""
    try:
        new, old = _unrollers(source, clocking)
    except Exception:
        return False  # not a single-clock design: neither path gets this far
    aig = new.aig
    step_inputs = new.make_step_inputs(depth)
    if symbolic:
        expected, expected_error = _outcome(
            lambda: (unroll_from_symbolic_state(old, step_inputs, "state:"), set())
        )
        state = {
            name: SymVector(
                tuple(aig.literal(f"state:{name}[{bit}]") for bit in range(width))
            )
            for name, width in new.design.store.widths.items()
            if name not in {port.name for port in new.design.input_ports()}
        }
        actual, actual_error = _outcome(lambda: new.unroll(step_inputs, state))
    else:
        expected, expected_error = _outcome(lambda: unroll_from_reset(old, step_inputs))
        actual, actual_error = _outcome(lambda: new.unroll(step_inputs))
    if expected_error is None and actual_error is not None and not symbolic and depth == 1:
        # The relation is one step from an arbitrary state, so combinational
        # logic that only settles from constants (an FSM case without a
        # default) cannot be encoded.  The oracle still encodes a first frame
        # from the concrete reset state, and fails the same way from its
        # second frame on.
        _, oracle = _unrollers(source, clocking)
        _, second_frame_error = _outcome(
            lambda: unroll_from_reset(oracle, oracle.make_step_inputs(2))
        )
        assert str(second_frame_error) == str(actual_error)
        return False
    assert (expected_error is None) == (actual_error is None), (
        expected_error,
        actual_error,
    )
    if expected_error is not None:
        return False
    _assert_equivalent_bits(aig, expected[0], actual[0])
    assert {name.replace("old:", "") for name in expected[1]} == {
        name.replace("new:", "") for name in actual[1]
    }
    return True


@pytest.mark.parametrize("symbolic", [False, True], ids=["reset", "symbolic"])
@pytest.mark.parametrize("label,source,clocking", DESIGNS, ids=[d[0] for d in DESIGNS])
def test_frames_match_per_frame_execution(label, source, clocking, symbolic):
    for depth in DEPTHS:
        _compare(source, clocking, depth, symbolic)


def test_the_differential_covers_real_sequential_designs():
    labels = [label for label, _, _ in DESIGNS]
    assert len([label for label in labels if label.endswith(":candidate")]) >= 4
    encoded = sum(
        _compare(source, clocking, 2, symbolic=False) for _, source, clocking in DESIGNS
    )
    assert encoded >= len(DESIGNS) // 2


def test_live_undefs_survive_substitution():
    source = """
    module m(input clk, input d, output reg q, output reg p);
        always @(posedge clk) begin
            q <= d;
            p <= p;
        end
    endmodule
    """
    new, old = _unrollers(source, {})
    step_inputs = new.make_step_inputs(2)
    _, expected = unroll_from_reset(old, step_inputs)
    _, actual = new.unroll(step_inputs)
    assert actual == {"__undef__new:p[0]@reset"}
    assert {name.replace("old:", "new:") for name in expected} == actual


# --------------------------------------------------------------------------- built once, lazily
EQUIVALENT_COUNTER = COUNTER.replace("count + 4'd1", "4'd1 + count")
RESTYLED_COUNTER = COUNTER.replace("    ", "  ")


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """Relation builds (design source hashes) under a fresh on-disk database."""
    built: list[str] = []
    encode = cone.encode_transition_relation

    def counting(compiled, *clocking):
        built.append(compiled.key.source_hash)
        return encode(compiled, *clocking)

    monkeypatch.setattr(cone, "encode_transition_relation", counting)
    database = DesignDatabase(cache_dir=tmp_path)
    previous = set_default_database(database)
    try:
        yield built, database
    finally:
        set_default_database(previous)


def _prove(dut: str, reference: str) -> None:
    """A k-induction proof whose base case and inductive step both run."""
    assert prove_sequential_by_induction(dut, reference, depth=2).method == "induction"


def test_one_relation_per_design_across_base_and_step(builds):
    built, database = builds
    reference = database.compile(COUNTER)
    first = database.compile(EQUIVALENT_COUNTER)
    _prove(EQUIVALENT_COUNTER, COUNTER)
    assert sorted(built) == sorted([reference.key.source_hash, first.key.source_hash])

    second = database.compile(RESTYLED_COUNTER)
    _prove(RESTYLED_COUNTER, COUNTER)
    assert built[2:] == [second.key.source_hash]


def test_compiling_builds_no_relation(builds):
    built, database = builds
    compiled = database.compile(COUNTER)
    assert compiled.has_sequential_processes
    assert built == []
    assert "_derived" not in vars(compiled)


def test_simulation_run_builds_no_relation(builds):
    from repro.runs.engine import RunEngine
    from repro.runs.presets import table4_manifest
    from repro.runs.store import RunStore

    built, _ = builds
    store = RunStore.ephemeral()
    RunEngine(table4_manifest(ExperimentScale.tiny()), store).run()
    assert list(store.records())
    assert built == []


def test_relation_never_reaches_the_disk_tier(builds, tmp_path):
    built, database = builds
    compiled = database.compile(COUNTER)
    (entry,) = tmp_path.glob("*.pkl")
    before = entry.read_bytes()
    _prove(EQUIVALENT_COUNTER, COUNTER)
    assert compiled.key.source_hash in built
    assert entry.read_bytes() == before
    # Writing the artifact again, relation and reset state now memoised on
    # it, still gives the same bytes.
    database._store_to_disk(compiled.key, compiled)
    assert entry.read_bytes() == before
