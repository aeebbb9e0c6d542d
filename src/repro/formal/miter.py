"""Miter construction and SAT equivalence proofs.

A *miter* joins two designs over shared inputs and ORs the XOR of every checked
output bit: the miter output is satisfiable exactly when some input assignment
makes the designs disagree.  ``UNSAT`` is therefore a **complete combinational
equivalence proof** — the formal counterpart of the (exponential or sampled)
sweeps in :mod:`repro.bench.golden`.

Output comparison deliberately mirrors ``batch_equivalence_check``: each output
is compared at the *DUT's* declared width with the reference value
zero-extended/truncated, so the formal and simulation engines return the same
verdict on width-mismatched interfaces.

Sequential designs get *bounded* equivalence: both designs are unrolled ``k``
steps from their concretely-computed reset states with fresh shared inputs per
step (:class:`~repro.formal.cone.SequentialUnroller`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..logic.expr import BoolExpr
from ..verilog.design import get_default_database
from .aig import AIG, FALSE, TRUE, FormalEncodingError, FormalError, SymVector
from .cnf import CNF, tseitin
from .cone import SequentialUnroller, build_combinational_cone
from .encode import expr_to_aig
from .sat import ConflictLimitExceeded, SatSolver, SatStats
from .stats import record_proof


@dataclass
class Counterexample:
    """A concrete input assignment on which two designs disagree.

    Attributes:
        steps: one input assignment (name → int) per clock step; combinational
            counterexamples have exactly one step.
        dut_outputs: per-step DUT output values on this stimulus.
        reference_outputs: per-step reference output values.
        mismatching_outputs: ``(step, output)`` pairs that differ.
        missing_outputs: checked outputs the DUT does not even declare.
    """

    steps: list[dict[str, int]]
    dut_outputs: list[dict[str, int]] = field(default_factory=list)
    reference_outputs: list[dict[str, int]] = field(default_factory=list)
    mismatching_outputs: list[tuple[int, str]] = field(default_factory=list)
    missing_outputs: list[str] = field(default_factory=list)

    @property
    def inputs(self) -> dict[str, int]:
        """The (first-step) input assignment — the usual combinational view."""
        return self.steps[0] if self.steps else {}

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.missing_outputs:
            return "DUT does not drive output(s): " + ", ".join(self.missing_outputs)
        parts = []
        for step, output in self.mismatching_outputs[:3]:
            expected = self.reference_outputs[step].get(output)
            actual = self.dut_outputs[step].get(output)
            where = f"step {step}: " if len(self.steps) > 1 else ""
            parts.append(f"{where}{output} expected {expected} got {actual}")
        stimulus = self.steps[0] if len(self.steps) == 1 else self.steps
        return f"inputs {stimulus} -> " + "; ".join(parts)


@dataclass
class EquivalenceResult:
    """Outcome of a formal equivalence query."""

    equivalent: bool
    counterexample: Counterexample | None = None
    stats: SatStats = field(default_factory=SatStats)
    checked_outputs: list[str] = field(default_factory=list)
    #: "structural" when the miter folded to constant 0 during construction,
    #: "sat" for a genuine solver verdict, "missing-output" for interface
    #: gaps, "induction" for an unbounded k-induction proof.
    method: str = "sat"
    #: 0 for combinational proofs, k for k-step bounded sequential equivalence
    #: (and the induction depth for ``method == "induction"``).
    sequential_steps: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


# --------------------------------------------------------------------------- helpers
def _decode_vector(cnf: CNF, model: Mapping[int, bool], vector: SymVector) -> int:
    """Read an input vector's integer value out of a SAT model."""
    value = 0
    for position, literal in enumerate(vector.bits):
        if literal == TRUE:
            bit = 1
        elif literal == FALSE:
            bit = 0
        else:
            var = cnf.node_vars.get(literal >> 1)
            bit = int(model.get(var, False)) if var is not None else 0
            bit ^= literal & 1
        value |= bit << position
    return value


def _vector_to_int(bits: Sequence[int]) -> int:
    value = 0
    for position, bit in enumerate(bits):
        value |= (1 if bit else 0) << position
    return value


def _bit_assignment(
    aig: AIG, vectors: Mapping[str, SymVector], values: Mapping[str, int]
) -> dict[str, int]:
    """Flatten name → int values into AIG-input-name → 0/1 for replay."""
    assignment: dict[str, int] = {}
    for name, vector in vectors.items():
        value = values.get(name, 0)
        for position, literal in enumerate(vector.bits):
            node = literal >> 1
            if literal not in (TRUE, FALSE) and aig.is_input(node):
                bit = (value >> position) & 1
                assignment[aig.input_name(node)] = bit ^ (literal & 1)
    return assignment


def _compare_output(aig: AIG, dut: SymVector, reference: SymVector) -> int:
    """Miter literal for one output: 1 iff the values differ at DUT width."""
    reference = reference.resized(dut.width)
    return aig.or_all(
        aig.XOR(a, b) for a, b in zip(dut.bits, reference.bits)
    )


def _solve_miter(
    aig: AIG, root: int, conflict_limit: int | None
) -> tuple[bool, CNF | None, dict[int, bool], SatStats]:
    """Solve ``root == 1``; returns (satisfiable, cnf, model, stats)."""
    if root == FALSE:
        return False, None, {}, SatStats()
    cnf, (root_literal,) = tseitin(aig, [root])
    solver = SatSolver.from_cnf(cnf)
    solver.add_clause([root_literal])
    result = solver.solve(conflict_limit=conflict_limit)
    return result.satisfiable, cnf, result.model, result.stats


# --------------------------------------------------------------------------- expression equivalence
def prove_expr_equivalence(
    left: BoolExpr,
    right: BoolExpr,
    conflict_limit: int | None = None,
) -> EquivalenceResult:
    """SAT equivalence of two boolean expressions over the union of variables.

    Complements :meth:`BitTable.equivalent`: the bit-table sweep is O(2**n)
    in memory/time while the SAT proof scales with the expressions' structure,
    so this is the path for wide variable counts.
    """
    names = sorted(set(left.variables()) | set(right.variables()))
    aig = AIG()
    inputs = {name: aig.add_input(name) for name in names}
    left_literal = expr_to_aig(left, aig, inputs)
    right_literal = expr_to_aig(right, aig, inputs)
    root = aig.XOR(left_literal, right_literal)
    satisfiable, cnf, model, stats = _solve_miter(aig, root, conflict_limit)
    if not satisfiable:
        return EquivalenceResult(
            equivalent=True,
            stats=stats,
            checked_outputs=["expr"],
            method="structural" if root == FALSE else "sat",
        )
    assert cnf is not None
    assignment = {
        name: _decode_vector(cnf, model, SymVector((literal,)))
        for name, literal in inputs.items()
    }
    left_value, right_value = (
        aig.evaluate([left_literal, right_literal], assignment)
    )
    if left_value == right_value:
        raise FormalError("SAT counterexample failed to reproduce on the AIG")
    counterexample = Counterexample(
        steps=[assignment],
        dut_outputs=[{"expr": left_value}],
        reference_outputs=[{"expr": right_value}],
        mismatching_outputs=[(0, "expr")],
    )
    return EquivalenceResult(
        equivalent=False,
        counterexample=counterexample,
        stats=stats,
        checked_outputs=["expr"],
    )


# --------------------------------------------------------------------------- combinational equivalence
def prove_combinational_equivalence(
    dut_source: str,
    reference_source: str,
    outputs: Sequence[str] | None = None,
    module_name: str | None = None,
    reference_module_name: str | None = None,
    conflict_limit: int | None = None,
    _record: bool = True,
) -> EquivalenceResult:
    """Complete SAT equivalence proof of two combinational Verilog modules.

    Raises:
        FormalEncodingError: when either design falls outside the provable
            subset (sequential processes handled by
            :func:`prove_sequential_equivalence`; four-state behaviour, etc.).
    """
    database = get_default_database()
    dut_compiled = database.compile(dut_source, module_name)
    reference_compiled = database.compile(reference_source, reference_module_name)
    aig = AIG()
    reference_cone = build_combinational_cone(
        reference_compiled, aig, undef_prefix="ref:"
    )
    # Share input literals by name; DUT-only inputs get fresh plain-named ones.
    shared: dict[str, SymVector] = {}
    for port in dut_compiled.input_ports():
        existing = reference_cone.inputs.get(port.name)
        if existing is not None:
            if existing.width != port.width:
                raise FormalEncodingError(
                    f"input {port.name!r} is {port.width} bits in the DUT but "
                    f"{existing.width} bits in the reference"
                )
            shared[port.name] = existing
        else:
            shared[port.name] = SymVector(
                tuple(
                    aig.add_input(f"{port.name}[{bit}]") for bit in range(port.width)
                )
            )
    dut_cone = build_combinational_cone(
        dut_compiled, aig, input_literals=shared, undef_prefix="dut:"
    )

    checked = list(outputs) if outputs is not None else sorted(reference_cone.outputs)
    missing = [name for name in checked if name not in dut_cone.outputs]
    if missing:
        zero_inputs = {name: 0 for name in reference_cone.inputs}
        counterexample = Counterexample(steps=[zero_inputs], missing_outputs=missing)
        if _record:
            record_proof("counterexample", 0)
        return EquivalenceResult(
            equivalent=False,
            counterexample=counterexample,
            checked_outputs=checked,
            method="missing-output",
        )
    reference_cone.check_defined(checked)
    dut_cone.check_defined(checked)

    root = aig.or_all(
        _compare_output(aig, dut_cone.outputs[name], reference_cone.outputs[name])
        for name in checked
    )
    try:
        satisfiable, cnf, model, stats = _solve_miter(aig, root, conflict_limit)
    except ConflictLimitExceeded:
        if _record:
            record_proof("unknown", conflict_limit or 0)
        raise
    if not satisfiable:
        if _record:
            record_proof("equivalent", stats.conflicts)
        return EquivalenceResult(
            equivalent=True,
            stats=stats,
            checked_outputs=checked,
            method="structural" if root == FALSE else "sat",
        )
    assert cnf is not None
    all_inputs = dict(reference_cone.inputs)
    all_inputs.update(shared)
    assignment = {
        name: _decode_vector(cnf, model, vector)
        for name, vector in all_inputs.items()
    }
    counterexample = _replay_on_aig(
        aig, all_inputs, assignment, dut_cone.outputs, reference_cone.outputs, checked
    )
    if _record:
        record_proof("counterexample", stats.conflicts)
    return EquivalenceResult(
        equivalent=False,
        counterexample=counterexample,
        stats=stats,
        checked_outputs=checked,
    )


def _replay_on_aig(
    aig: AIG,
    input_vectors: Mapping[str, SymVector],
    assignment: dict[str, int],
    dut_outputs: Mapping[str, SymVector],
    reference_outputs: Mapping[str, SymVector],
    checked: Sequence[str],
) -> Counterexample:
    """Evaluate both cones on the decoded assignment and record the mismatch."""
    bits = _bit_assignment(aig, input_vectors, assignment)
    dut_values: dict[str, int] = {}
    reference_values: dict[str, int] = {}
    mismatching: list[tuple[int, str]] = []
    for name in checked:
        dut_vector = dut_outputs[name]
        reference_vector = reference_outputs[name]
        dut_values[name] = _vector_to_int(aig.evaluate(dut_vector.bits, bits))
        reference_values[name] = _vector_to_int(
            aig.evaluate(reference_vector.bits, bits)
        )
        mask = (1 << dut_vector.width) - 1
        if dut_values[name] != (reference_values[name] & mask):
            mismatching.append((0, name))
    if not mismatching:
        raise FormalError("SAT counterexample failed to reproduce on the AIG")
    return Counterexample(
        steps=[assignment],
        dut_outputs=[dut_values],
        reference_outputs=[reference_values],
        mismatching_outputs=mismatching,
    )


# --------------------------------------------------------------------------- sequential equivalence
def prove_sequential_equivalence(
    dut_source: str,
    reference_source: str,
    steps: int,
    clock: str = "clk",
    reset: str | None = None,
    reset_active_low: bool = False,
    outputs: Sequence[str] | None = None,
    module_name: str | None = None,
    reference_module_name: str | None = None,
    conflict_limit: int | None = None,
    _record: bool = True,
) -> EquivalenceResult:
    """Bounded (k-step) sequential equivalence from the reset state.

    Both designs are reset concretely, then unrolled ``steps`` clock cycles
    over shared fresh inputs; the miter ORs every per-step output difference.
    ``UNSAT`` proves the designs agree on *every* input sequence of length
    ``steps`` — stronger than any sampled stimulus sweep of the same depth,
    but (unlike the combinational proof) not an unbounded guarantee.
    """
    if steps < 1:
        raise ValueError("bounded sequential equivalence needs at least one step")
    aig = AIG()
    dut_unroller = SequentialUnroller(
        dut_source,
        aig,
        clock=clock,
        reset=reset,
        reset_active_low=reset_active_low,
        module_name=module_name,
        undef_prefix="dut:",
    )
    reference_unroller = SequentialUnroller(
        reference_source,
        aig,
        clock=clock,
        reset=reset,
        reset_active_low=reset_active_low,
        module_name=reference_module_name,
        undef_prefix="ref:",
    )
    # Shared per-step inputs over the union of both data-input sets.
    widths: dict[str, int] = {}
    for unroller in (reference_unroller, dut_unroller):
        for name in unroller.data_inputs:
            width = unroller.design.store.widths[name]
            if widths.setdefault(name, width) != width:
                raise FormalEncodingError(
                    f"input {name!r} has mismatched widths across the designs"
                )
    step_inputs: list[dict[str, SymVector]] = []
    for step in range(steps):
        step_inputs.append(
            {
                name: SymVector(
                    tuple(
                        aig.add_input(f"{name}@{step}[{bit}]") for bit in range(width)
                    )
                )
                for name, width in widths.items()
            }
        )
    dut_steps, dut_undefs = dut_unroller.unroll(step_inputs)
    reference_steps, reference_undefs = reference_unroller.unroll(step_inputs)

    checked = (
        list(outputs)
        if outputs is not None
        else sorted(reference_steps[0]) if reference_steps else []
    )
    missing = [name for name in checked if name not in dut_steps[0]]
    if missing:
        zero_steps = [{name: 0 for name in widths} for _ in range(steps)]
        if _record:
            record_proof("counterexample", 0)
        return EquivalenceResult(
            equivalent=False,
            counterexample=Counterexample(steps=zero_steps, missing_outputs=missing),
            checked_outputs=checked,
            method="missing-output",
            sequential_steps=steps,
        )

    difference_literals: list[int] = []
    for step in range(steps):
        for name in checked:
            difference_literals.append(
                _compare_output(aig, dut_steps[step][name], reference_steps[step][name])
            )
    root = aig.or_all(difference_literals)
    tainted = aig.support([root]) & (dut_undefs | reference_undefs)
    if tainted:
        raise FormalEncodingError(
            "sequential miter depends on undefined reset state: "
            + ", ".join(sorted(tainted)[:4])
        )
    try:
        satisfiable, cnf, model, stats = _solve_miter(aig, root, conflict_limit)
    except ConflictLimitExceeded:
        if _record:
            record_proof("unknown", conflict_limit or 0)
        raise
    if not satisfiable:
        if _record:
            record_proof("equivalent", stats.conflicts)
        return EquivalenceResult(
            equivalent=True,
            stats=stats,
            checked_outputs=checked,
            method="structural" if root == FALSE else "sat",
            sequential_steps=steps,
        )
    assert cnf is not None
    assignments: list[dict[str, int]] = []
    for step in range(steps):
        assignments.append(
            {
                name: _decode_vector(cnf, model, vector)
                for name, vector in step_inputs[step].items()
            }
        )
    # Replay on the AIG step by step to fill expected/actual values.
    flat_bits: dict[str, int] = {}
    for step in range(steps):
        flat_bits.update(_bit_assignment(aig, step_inputs[step], assignments[step]))
    dut_values: list[dict[str, int]] = []
    reference_values: list[dict[str, int]] = []
    mismatching: list[tuple[int, str]] = []
    for step in range(steps):
        dut_row: dict[str, int] = {}
        reference_row: dict[str, int] = {}
        for name in checked:
            dut_vector = dut_steps[step][name]
            dut_row[name] = _vector_to_int(aig.evaluate(dut_vector.bits, flat_bits))
            reference_row[name] = _vector_to_int(
                aig.evaluate(reference_steps[step][name].bits, flat_bits)
            )
            mask = (1 << dut_vector.width) - 1
            if dut_row[name] != (reference_row[name] & mask):
                mismatching.append((step, name))
        dut_values.append(dut_row)
        reference_values.append(reference_row)
    if not mismatching:
        raise FormalError("SAT counterexample failed to reproduce on the AIG")
    if _record:
        record_proof("counterexample", stats.conflicts)
    return EquivalenceResult(
        equivalent=False,
        counterexample=Counterexample(
            steps=assignments,
            dut_outputs=dut_values,
            reference_outputs=reference_values,
            mismatching_outputs=mismatching,
        ),
        stats=stats,
        checked_outputs=checked,
        sequential_steps=steps,
    )
