"""The constant-operand XOR fold leaves every AIG bit-identical.

``AIG.XOR`` answers ``a ^ b`` when either operand is a constant literal
instead of running its AND/OR chain.  The chain already folds to that literal
and creates no node, so the graphs — and hence the CNF, the SAT search and
its conflict counts — must not change.  The oracle below keeps the chain.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.core.llm.corruption import CorruptionInjector
from repro.core.taxonomy import HallucinationSubtype
from repro.experiments import ExperimentScale, build_suites
from repro.formal.aig import AIG, FALSE, TRUE, negate
from repro.formal.cone import (
    SequentialUnroller,
    build_combinational_cone,
    encode_transition_relation,
)


class ChainXorAIG(AIG):
    """The XOR before the fold, counting calls that had a constant operand."""

    def __init__(self) -> None:
        super().__init__()
        self.constant_xors = 0

    def XOR(self, a: int, b: int) -> int:
        if a <= TRUE or b <= TRUE:
            self.constant_xors += 1
        return self.OR(self.AND(a, negate(b)), self.AND(negate(a), b))


def test_xor_and_xnor_match_the_chain_on_every_literal_pair():
    graphs = [AIG(), ChainXorAIG()]
    for aig in graphs:
        a, b = aig.add_input("a"), aig.add_input("b")
        c = aig.AND(a, negate(b))
    literals = [FALSE, TRUE, a, negate(a), b, negate(b), c, negate(c)]
    for left, right in itertools.product(literals, repeat=2):
        for op in ("XOR", "XNOR"):
            results = [getattr(aig, op)(left, right) for aig in graphs]
            assert results[0] == results[1], (op, left, right)
            assert graphs[0].num_nodes == graphs[1].num_nodes, (op, left, right)
    assert graphs[0]._fanins == graphs[1]._fanins
    assert graphs[1].constant_xors > 0


@pytest.fixture(scope="module")
def tiny_tasks():
    scale = ExperimentScale.tiny()
    suites = dict(build_suites(scale))
    suites["symbolic"] = build_symbolic_suite(
        SuiteConfig(num_tasks=scale.human_tasks, seed=scale.seed + 11)
    )
    return [task for suite in suites.values() for task in suite.tasks]


def _graphs(source: str, task, graph_class: type[AIG]):
    """The graphs a proof would build for ``source``, or the error it hits.

    A clocked design's frames are copies of its transition relation, which is
    encoded in a graph of its own: both graphs are of ``graph_class``, and the
    relation must equal the one the unroller memoises on the design.
    """
    graphs = [graph_class()]
    relation = None
    try:
        if task.golden().is_sequential:
            unroller = SequentialUnroller(
                source, graphs[0], clock=task.clock, reset=task.reset
            )
            graphs.append(graph_class())
            relation = encode_transition_relation(
                unroller.compiled, unroller.clock, unroller.reset, aig=graphs[1]
            )
            assert relation == SequentialUnroller.relation(unroller)
            unroller.relation = lambda: relation
            unroller.unroll(unroller.make_step_inputs(3))
        else:
            build_combinational_cone(source, aig=graphs[0])
    except Exception as exc:
        return [graph._fanins for graph in graphs], relation, f"{type(exc).__name__}: {exc}"
    return [graph._fanins for graph in graphs], relation, None


def test_suite_cones_are_identical_to_the_chain(tiny_tasks, monkeypatch):
    subtypes = list(HallucinationSubtype)
    built = constant_xors = clocked_constant_xors = 0
    oracles: list[ChainXorAIG] = []

    class CountedChainXorAIG(ChainXorAIG):
        def __init__(self) -> None:
            super().__init__()
            oracles.append(self)

    for index, task in enumerate(tiny_tasks):
        candidate = CorruptionInjector(random.Random(index)).inject(
            task.reference_source, subtypes[index % len(subtypes)]
        ).code
        for source in (task.reference_source, candidate):
            oracles.clear()
            expected = _graphs(source, task, CountedChainXorAIG)
            assert _graphs(source, task, AIG) == expected, task.task_id
            built += expected[2] is None
            xors = sum(oracle.constant_xors for oracle in oracles)
            constant_xors += xors
            if expected[1] is not None:
                clocked_constant_xors += xors
    assert len(tiny_tasks) == 24
    # The comparison covers real graphs that took the folded path, clocked
    # designs' transition relations included.
    assert built >= len(tiny_tasks) and constant_xors > 0
    assert clocked_constant_xors > 0
