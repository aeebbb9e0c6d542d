"""Differential parity suite for the incremental equivalence session.

The session must be *observably identical* to the fresh-solver provers: same
verdict on every candidate, and every refutation carries a counterexample that
reproduces as a real mismatch on the simulation engines.  Candidates are
randomized (correct rewrites and injected bugs alike) and round-tripped
through the Verilog writer before proving, so the sweep exercises the same
parse → write → parse surface the generation pipeline does.
"""

from __future__ import annotations

import random

import pytest

from repro.formal import (
    ConflictLimitExceeded,
    EquivalenceSession,
    prove_combinational_equivalence,
    proof_stats,
    reset_proof_stats,
)
from repro.verilog.parser import parse_module
from repro.verilog.writer import write_module
from scoring import design_mismatches


def _roundtrip(source: str) -> str:
    """Writer round-trip: the candidate text the pipeline would re-emit."""
    return write_module(parse_module(source))


REFERENCE = """
module refmod(input [3:0] a, input [3:0] b, input c, output [4:0] s, output p);
    assign s = a + b + c;
    assign p = ^(a ^ b);
endmodule
"""

#: Correct rewrites of the reference (distinct structure, same function).
GOOD_TEMPLATES = [
    "assign s = b + a + c;\n    assign p = (^a) ^ (^b);",
    "assign s = (a + c) + b;\n    assign p = ^{a, b};",
    "assign s = a + (b + c);\n    assign p = a[0]^a[1]^a[2]^a[3]^b[0]^b[1]^b[2]^b[3];",
]

#: Buggy rewrites: off-by-one sums, dropped carry, inverted parity.
BAD_TEMPLATES = [
    "assign s = a + b;\n    assign p = ^(a ^ b);",
    "assign s = a + b + c + 1;\n    assign p = ^(a ^ b);",
    "assign s = a + b + c;\n    assign p = ~(^(a ^ b));",
    "assign s = a - b + c;\n    assign p = ^(a ^ b);",
]


def _candidate(body: str) -> str:
    return _roundtrip(
        "module refmod(input [3:0] a, input [3:0] b, input c, "
        f"output [4:0] s, output p);\n    {body}\nendmodule"
    )


def _random_sweep(seed: int, length: int = 24) -> list[tuple[str, bool]]:
    """(candidate source, expected equivalent) pairs, randomized and repeated."""
    rng = random.Random(seed)
    pool = [(_candidate(body), True) for body in GOOD_TEMPLATES]
    pool += [(_candidate(body), False) for body in BAD_TEMPLATES]
    pool.append((_roundtrip(REFERENCE), True))
    return [pool[rng.randrange(len(pool))] for _ in range(length)]


@pytest.mark.parametrize("seed", range(4))
def test_session_matches_fresh_prover_on_randomized_sweeps(seed):
    session = EquivalenceSession(_roundtrip(REFERENCE))
    for code, expected in _random_sweep(seed):
        fresh = prove_combinational_equivalence(code, REFERENCE)
        incremental = session.prove(code)
        assert fresh.equivalent == incremental.equivalent == expected, code
        if not expected:
            # Both engines must produce *replayable* counterexamples: the
            # decoded assignment has to reproduce as a real mismatch on the
            # batched simulator (the differential oracle the bench uses).
            for result in (fresh, incremental):
                assert result.counterexample is not None
                assert design_mismatches(
                    code, REFERENCE, [result.counterexample.inputs]
                ), f"counterexample did not replay: {result.counterexample.inputs}"


def test_session_matches_fresh_prover():
    session = EquivalenceSession(REFERENCE)
    for code, expected in _random_sweep(99, length=12):
        assert session.prove(code).equivalent == expected


def test_missing_output_verdict_matches_fresh_prover():
    partial = _roundtrip(
        "module refmod(input [3:0] a, input [3:0] b, input c, output [4:0] s);\n"
        "    assign s = a + b + c;\nendmodule"
    )
    fresh = prove_combinational_equivalence(partial, REFERENCE)
    incremental = EquivalenceSession(REFERENCE).prove(partial)
    assert not fresh.equivalent and not incremental.equivalent
    assert incremental.counterexample.missing_outputs == ["p"]
    assert fresh.counterexample.missing_outputs == ["p"]


def test_repeat_candidates_reuse_the_encoded_cone():
    session = EquivalenceSession(REFERENCE)
    code = _candidate(GOOD_TEMPLATES[0])
    first = session.prove(code)
    again = session.prove(code)
    assert first.equivalent and again.equivalent
    assert session.proofs == 2
    # The cone is cached by content address, so the re-proof encodes nothing
    # new — but it still runs a genuine solve (no verdict memoization).
    assert again.method in ("sat", "structural")


def test_conflict_budget_is_per_proof_not_per_session():
    """Regression: candidate #N gets the same budget candidate #1 got.

    Before the incremental engine, each proof owned a fresh solver, so
    ``formal_conflict_limit`` was trivially per-proof.  The shared session
    must keep that contract: a budget that covers the *most expensive single
    proof* must never trip on a later candidate merely because the session's
    cumulative conflicts crossed it.
    """
    candidates = [_candidate(body) for body in GOOD_TEMPLATES] + [
        _roundtrip(REFERENCE)
    ]
    # Per-proof cost ceiling, measured on fresh sessions.
    costs = []
    for code in candidates:
        fresh = EquivalenceSession(REFERENCE)
        costs.append(fresh.prove(code).stats.conflicts)
    assert max(costs) > 0, "workload no longer exercises the SAT search"
    budget = max(costs) + 5

    session = EquivalenceSession(REFERENCE, conflict_limit=budget)
    total = 0
    for _ in range(4):  # sweep the pool repeatedly to accumulate conflicts
        for code in candidates:
            result = session.prove(code)  # must never raise ConflictLimitExceeded
            assert result.equivalent
            total += result.stats.conflicts
    assert total == session.total_conflicts
    # The point of the regression: the session as a whole burned more
    # conflicts than any single proof's budget, yet no proof tripped it.
    if total <= budget:
        pytest.skip("sweep too cheap to distinguish per-proof from cumulative")


def test_conflict_limit_still_enforced_per_proof():
    session = EquivalenceSession(REFERENCE)
    with pytest.raises(ConflictLimitExceeded):
        session.prove(_candidate(GOOD_TEMPLATES[2]), conflict_limit=1)
    # The session survives an exhausted budget: later proofs run normally.
    assert session.prove(_candidate(GOOD_TEMPLATES[0])).equivalent


def test_proof_registry_records_session_verdicts():
    reset_proof_stats()
    try:
        session = EquivalenceSession(REFERENCE)
        session.prove(_candidate(GOOD_TEMPLATES[0]))
        session.prove(_candidate(BAD_TEMPLATES[0]))
        stats = proof_stats()
        assert stats["total"] == 2
        assert stats["results"]["equivalent"] == 1
        assert stats["results"]["counterexample"] == 1
    finally:
        reset_proof_stats()


def test_result_carries_sat_accounting():
    session = EquivalenceSession(REFERENCE)
    result = session.prove(_candidate(GOOD_TEMPLATES[1]))
    assert result.equivalent
    stats = result.stats
    assert stats.propagations >= 0 and stats.decisions >= 0
    # Width-mismatched shared inputs are rejected exactly like the fresh path.
    wide = _candidate(GOOD_TEMPLATES[0]).replace("input [3:0] a", "input [4:0] a")
    from repro.formal import FormalEncodingError

    with pytest.raises(FormalEncodingError):
        session.prove(wide)


# --------------------------------------------------------------------------
# Redundant structure: the session proves it by CDCL search alone (no AIG
# rewriting before the encoding), so equal functions built from unrelated
# gates must still meet in the solver, and near-identical structures with a
# different function must still be told apart.

_CONE_INPUTS = [f"i{n}" for n in range(6)]


def _cone_module(wires: list[str], roots: list[str]) -> str:
    ports = ", ".join(f"input {name}" for name in _CONE_INPUTS)
    outputs = ", ".join(f"output o{n}" for n in range(len(roots)))
    body = "".join(
        f"    wire w{n};\n    assign w{n} = {expr};\n" for n, expr in enumerate(wires)
    )
    body += "".join(f"    assign o{n} = {root};\n" for n, root in enumerate(roots))
    return f"module cone({ports}, {outputs});\n{body}endmodule\n"


def _rewrite(op: str, a: str, b: str) -> str:
    """The same gate as ``a op b``, rebuilt with no shared structure."""
    if op == "&":
        return f"~(~({a}) | ~({b}))"
    if op == "|":
        return f"~(~({a}) & ~({b}))"
    return f"(({a}) & ~({b})) | (~({a}) & ({b}))"


def _random_cones(seed: int, num_gates: int = 24) -> tuple[str, str, str]:
    """(reference, De Morgan rewrite, one-gate mutant) of a random gate cone."""
    rng = random.Random(seed)
    literals = list(_CONE_INPUTS)
    gates = []
    for n in range(num_gates):
        op = rng.choice("&|^")
        a, b = (rng.choice(literals) for _ in range(2))
        a = f"~{a}" if rng.randint(0, 1) else a
        b = f"~{b}" if rng.randint(0, 1) else b
        gates.append((op, a, b))
        literals.append(f"w{n}")
    roots = [rng.choice(literals[len(_CONE_INPUTS):]) for _ in range(3)]
    reference = _cone_module([f"{a} {op} {b}" for op, a, b in gates], roots)
    rewrite = _cone_module([_rewrite(op, a, b) for op, a, b in gates], roots)
    target = rng.randrange(num_gates)
    mutated = [
        f"{a} {'|&^'['&|^'.index(op)] if n == target else op} {b}"
        for n, (op, a, b) in enumerate(gates)
    ]
    return reference, rewrite, _cone_module(mutated, roots)


def _exhaustively_equal(code: str, reference: str) -> bool:
    vectors = [
        {name: (value >> bit) & 1 for bit, name in enumerate(_CONE_INPUTS)}
        for value in range(1 << len(_CONE_INPUTS))
    ]
    return not design_mismatches(code, reference, vectors)


@pytest.mark.parametrize("seed", range(10))
def test_session_matches_exhaustive_simulation_on_redundant_cones(seed):
    reference, rewrite, mutant = _random_cones(seed)
    session = EquivalenceSession(reference)
    for code in (reference, rewrite, mutant):
        expected = _exhaustively_equal(code, reference)
        incremental = session.prove(code)
        fresh = prove_combinational_equivalence(code, reference)
        assert incremental.equivalent == fresh.equivalent == expected, code
        if not expected:
            assert design_mismatches(
                code, reference, [incremental.counterexample.inputs]
            ), f"counterexample did not replay: {incremental.counterexample.inputs}"
    assert _exhaustively_equal(rewrite, reference)


def test_session_proves_xor_encodings_without_shared_structure():
    reference = "module x(input a, input b, output y); assign y = a ^ b; endmodule"
    session = EquivalenceSession(reference)
    for body in ("(a & ~b) | (~a & b)", "~((a & b) | (~a & ~b))"):
        code = f"module x(input a, input b, output y); assign y = {body}; endmodule"
        assert session.prove(code).equivalent
        assert prove_combinational_equivalence(code, reference).equivalent


def test_session_refutes_a_complemented_output():
    reference = "module x(input a, input b, output y); assign y = a & b; endmodule"
    code = "module x(input a, input b, output y); assign y = ~(~~a & ~~b); endmodule"
    result = EquivalenceSession(reference).prove(code)
    assert not result.equivalent
    assert not prove_combinational_equivalence(code, reference).equivalent
    assert design_mismatches(code, reference, [result.counterexample.inputs])


def test_session_separates_structurally_similar_functions():
    # Every candidate pairs the same four input gates; only the pairing of
    # the outputs differs, so most gates look alike to a shallow comparison.
    def ring(step: int) -> str:
        gates = "".join(
            f"    wire g{n};\n    assign g{n} = i{n} & i{(n + 1) % 4};\n"
            for n in range(4)
        )
        outputs = "".join(
            f"    assign o{n} = g{n} & g{(n + step) % 4};\n" for n in range(4)
        )
        return (
            "module ring(input i0, input i1, input i2, input i3, "
            "output o0, output o1, output o2, output o3);\n"
            f"{gates}{outputs}endmodule\n"
        )

    reference = ring(2)
    session = EquivalenceSession(reference)
    assert session.prove(ring(2)).equivalent
    for step in (1, 3):
        result = session.prove(ring(step))
        assert not result.equivalent
        assert design_mismatches(
            ring(step), reference, [result.counterexample.inputs]
        )
