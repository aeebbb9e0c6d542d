"""Incremental equivalence sessions: one solver, many candidates.

A pass@k sweep proves k candidate designs against the *same* reference cone.
The one-shot provers in :mod:`repro.formal.miter` rebuild the CNF and a fresh
CDCL instance per candidate, throwing away everything the search learned.
:class:`EquivalenceSession` keeps all of it alive:

* the reference cone is symbolically executed and Tseitin-encoded **once**,
  at construction;
* each candidate's cone is pushed into the same solver through an
  :class:`IncrementalEncoder` (append-only Tseitin: already-encoded AIG nodes
  keep their variables, hash-consing means a re-submitted candidate encodes
  zero new clauses);
* each candidate's miter root is guarded by a fresh **activation literal**
  ``act → miter`` and solved under ``assumptions=(act,)``, so one
  :class:`~repro.formal.sat.SatSolver` — with its learned clauses, VSIDS
  activity and saved phases — survives the whole sweep.

The conflict budget is **per proof**: every ``prove`` call passes its own
``conflict_limit`` into a fresh ``SatStats`` accounting inside
``SatSolver.solve``, so candidate #40 gets exactly the budget candidate #1
got, no matter how many conflicts the session has burned in total (the
session-lifetime aggregate lives in :attr:`total_conflicts`).

Verdicts and counterexamples are differentially interchangeable with
:func:`~repro.formal.miter.prove_combinational_equivalence`: the parity suite
sweeps randomized candidates through both engines and requires identical
verdicts plus replayable counterexamples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from ..verilog.design import get_default_database
from .aig import AIG, FALSE, TRUE, FormalEncodingError, SymVector
from .cone import build_combinational_cone
from .miter import (
    Counterexample,
    EquivalenceResult,
    _compare_output,
    _replay_on_aig,
)
from .sat import ConflictLimitExceeded, SatSolver
from .stats import record_proof

__all__ = ["EquivalenceSession", "IncrementalEncoder", "candidate_key"]


def candidate_key(source: str, module_name: str | None = None) -> str:
    """Content address of a candidate inside one session."""
    digest = hashlib.sha256()
    digest.update((module_name or "").encode())
    digest.update(b"\x00")
    digest.update(source.encode())
    return digest.hexdigest()


class IncrementalEncoder:
    """Append-only Tseitin encoder bound to a live :class:`SatSolver`.

    The clause shapes are exactly :func:`repro.formal.cnf.tseitin`'s — one
    variable per AIG node, three clauses per AND gate — but encoded nodes are
    remembered across calls and new clauses go straight into the solver, so
    encoding the cone of a new root only pays for the nodes the solver has
    never seen.  Duck-types the ``node_vars`` attribute of
    :class:`~repro.formal.cnf.CNF` for the shared model-decoding helpers.
    """

    def __init__(self, aig: AIG, solver: SatSolver):
        self.aig = aig
        self.solver = solver
        self.node_vars: dict[int, int] = {}
        self.input_vars: dict[str, int] = {}
        self._num_vars = solver.num_vars
        self._const_var: int | None = None

    def new_var(self) -> int:
        """Allocate a fresh solver variable (activation literals use this too)."""
        self._num_vars += 1
        self.solver.ensure_vars(self._num_vars)
        return self._num_vars

    def _constant_var(self) -> int:
        if self._const_var is None:
            self._const_var = self.new_var()
            self.solver.add_clause([self._const_var])  # fixed true
        return self._const_var

    def _literal_of(self, aig_literal: int) -> int:
        if aig_literal in (TRUE, FALSE):
            var = self._constant_var()
            return var if aig_literal == TRUE else -var
        var = self.node_vars[aig_literal >> 1]
        return -var if aig_literal & 1 else var

    def literal(self, aig_literal: int) -> int:
        """Encode the cone of ``aig_literal`` and return its DIMACS literal."""
        if aig_literal in (TRUE, FALSE):
            return self._literal_of(aig_literal)
        for node in self.aig.cone([aig_literal]):
            if node in self.node_vars:
                continue
            var = self.new_var()
            self.node_vars[node] = var
            if self.aig.is_input(node):
                self.input_vars[self.aig.input_name(node)] = var
            else:
                left, right = self.aig.fanin(node)
                a = self._literal_of(left)
                b = self._literal_of(right)
                self.solver.add_clause((-var, a))
                self.solver.add_clause((-var, b))
                self.solver.add_clause((var, -a, -b))
        return self._literal_of(aig_literal)


@dataclass
class _Candidate:
    """Per-candidate state kept for re-proofs and counterexample decoding."""

    activation: int | None = None
    all_inputs: dict[str, SymVector] = field(default_factory=dict)
    dut_outputs: dict[str, SymVector] = field(default_factory=dict)
    checked: list[str] = field(default_factory=list)
    #: Filled for verdicts that need no solver call (structural equality /
    #: missing outputs); ``prove`` returns it directly.
    precomputed: EquivalenceResult | None = None


class EquivalenceSession:
    """A persistent combinational equivalence prover for one reference design.

    Construction compiles the reference, builds its cone into the session AIG
    with shared input vectors, and Tseitin-encodes it into the session solver
    exactly once.  Every :meth:`prove` call then costs only the candidate's
    own cone — and whatever the SAT search still has to discover after all
    previous candidates primed the clause database.

    Sessions are single-threaded and meant to live per worker process (see
    ``repro.bench.jobs``), one per reference design key.
    """

    def __init__(
        self,
        reference_source: str,
        *,
        outputs: Sequence[str] | None = None,
        reference_module_name: str | None = None,
        conflict_limit: int | None = 50_000,
        database=None,
    ):
        database = database if database is not None else get_default_database()
        self._database = database
        self.conflict_limit = conflict_limit
        self.aig = AIG()
        self.reference_compiled = database.compile(
            reference_source, reference_module_name
        )
        self.reference_cone = build_combinational_cone(
            self.reference_compiled, self.aig, undef_prefix="ref:"
        )
        self.outputs = list(outputs) if outputs is not None else None
        self.solver = SatSolver()
        self.encoder = IncrementalEncoder(self.aig, self.solver)
        # Encode the reference cone eagerly — this is the "once per session"
        # cost every candidate proof amortises.
        for name in sorted(self.reference_cone.outputs):
            for literal in self.reference_cone.outputs[name].bits:
                if literal not in (TRUE, FALSE):
                    self.encoder.literal(literal)
        #: Free inputs the reference does not declare, shared across
        #: candidates by (name, bit) so sweeps stay on one input space.
        self._extra_input_bits: dict[str, list[int]] = {}
        self._candidates: dict[str, _Candidate] = {}
        #: Session-lifetime aggregates (the per-proof numbers live in each
        #: result's ``stats``).
        self.proofs = 0
        self.total_conflicts = 0

    # ------------------------------------------------------------------ inputs
    def _free_input(self, name: str, width: int) -> SymVector:
        """A candidate-shared input vector for a name the reference lacks."""
        bits = self._extra_input_bits.setdefault(name, [])
        while len(bits) < width:
            bits.append(self.aig.add_input(f"{name}[{len(bits)}]"))
        return SymVector(tuple(bits[:width]))

    def _shared_inputs(self, dut_compiled) -> dict[str, SymVector]:
        shared: dict[str, SymVector] = {}
        for port in dut_compiled.input_ports():
            existing = self.reference_cone.inputs.get(port.name)
            if existing is not None:
                if existing.width != port.width:
                    raise FormalEncodingError(
                        f"input {port.name!r} is {port.width} bits in the DUT but "
                        f"{existing.width} bits in the reference"
                    )
                shared[port.name] = existing
            else:
                shared[port.name] = self._free_input(port.name, port.width)
        return shared

    # ------------------------------------------------------------------ candidates
    def _admit(self, dut_source: str, module_name: str | None) -> _Candidate:
        """Build and encode a candidate's cone; cached by content address."""
        key = candidate_key(dut_source, module_name)
        cached = self._candidates.get(key)
        if cached is not None:
            return cached
        dut_compiled = self._database.compile(dut_source, module_name)
        shared = self._shared_inputs(dut_compiled)
        index = len(self._candidates)
        dut_cone = build_combinational_cone(
            dut_compiled, self.aig, input_literals=shared, undef_prefix=f"dut{index}:"
        )
        candidate = _Candidate()
        candidate.checked = (
            list(self.outputs)
            if self.outputs is not None
            else sorted(self.reference_cone.outputs)
        )
        missing = [
            name for name in candidate.checked if name not in dut_cone.outputs
        ]
        if missing:
            zero_inputs = {name: 0 for name in self.reference_cone.inputs}
            candidate.precomputed = EquivalenceResult(
                equivalent=False,
                counterexample=Counterexample(
                    steps=[zero_inputs], missing_outputs=missing
                ),
                checked_outputs=candidate.checked,
                method="missing-output",
            )
            self._candidates[key] = candidate
            return candidate
        self.reference_cone.check_defined(candidate.checked)
        dut_cone.check_defined(candidate.checked)

        candidate.all_inputs = dict(self.reference_cone.inputs)
        candidate.all_inputs.update(shared)
        candidate.dut_outputs = {
            name: dut_cone.outputs[name] for name in candidate.checked
        }
        root = self.aig.or_all(
            _compare_output(
                self.aig, dut_cone.outputs[name], self.reference_cone.outputs[name]
            )
            for name in candidate.checked
        )
        if root == FALSE:
            candidate.precomputed = EquivalenceResult(
                equivalent=True,
                checked_outputs=candidate.checked,
                method="structural",
            )
            self._candidates[key] = candidate
            return candidate
        # act → miter: the clause is inert until `prove` assumes act, so the
        # sweep's other candidates never pay for this one.
        candidate.activation = self.encoder.new_var()
        root_literal = self.encoder.literal(root)
        self.solver.add_clause((-candidate.activation, root_literal))
        self._candidates[key] = candidate
        return candidate

    # ------------------------------------------------------------------ proving
    def prove(
        self,
        dut_source: str,
        module_name: str | None = None,
        conflict_limit: int | None = None,
    ) -> EquivalenceResult:
        """Prove one candidate against the session's reference.

        Semantically identical to
        :func:`~repro.formal.miter.prove_combinational_equivalence` (same
        verdicts, same counterexample contract, same exceptions) — just
        incremental.  ``conflict_limit`` overrides the session default for
        this proof only; either way the budget is charged per proof.
        """
        limit = conflict_limit if conflict_limit is not None else self.conflict_limit
        candidate = self._admit(dut_source, module_name)
        self.proofs += 1
        if candidate.precomputed is not None:
            result = candidate.precomputed
            record_proof(
                "equivalent" if result.equivalent else "counterexample", 0
            )
            return result
        assert candidate.activation is not None
        try:
            outcome = self.solver.solve(
                assumptions=(candidate.activation,), conflict_limit=limit
            )
        except ConflictLimitExceeded:
            self.total_conflicts += limit or 0
            record_proof("unknown", limit or 0)
            raise
        self.total_conflicts += outcome.stats.conflicts
        if not outcome.satisfiable:
            record_proof("equivalent", outcome.stats.conflicts)
            return EquivalenceResult(
                equivalent=True,
                stats=outcome.stats,
                checked_outputs=candidate.checked,
                method="sat",
            )
        counterexample = _replay_on_aig(
            self.aig,
            self.encoder,
            outcome.model,
            [candidate.all_inputs],
            [candidate.dut_outputs],
            [self.reference_cone.outputs],
            candidate.checked,
        )
        record_proof("counterexample", outcome.stats.conflicts)
        return EquivalenceResult(
            equivalent=False,
            counterexample=counterexample,
            stats=outcome.stats,
            checked_outputs=candidate.checked,
        )
