"""``repro.formal``: SAT-based equivalence proofs for the reproduction stack.

The simulation engines (:mod:`repro.logic.bittable`,
:mod:`repro.verilog.simulator.batch`) decide equivalence by enumeration or
sampling: exponential in the input count, or incomplete.  This package closes
that gap with a classical formal pipeline, all in pure Python:

* :mod:`~repro.formal.aig` — And-Inverter Graph netlists (hash-consed, folding);
* :mod:`~repro.formal.encode` — ``BoolExpr``/``BitTable`` → AIG;
* :mod:`~repro.formal.cone` — Verilog combinational cones and transition
  relations → AIG (two-valued, bit-exact with the simulators); every frame of
  a k-step sequential unrolling is a substituted copy of one encoded clock
  step;
* :mod:`~repro.formal.cnf` — Tseitin transformation;
* :mod:`~repro.formal.sat` — a CDCL solver (two-watched literals, first-UIP
  learning, VSIDS activity, Luby restarts);
* :mod:`~repro.formal.miter` — miter construction, equivalence proofs and
  counterexample extraction;
* :mod:`~repro.formal.incremental` — :class:`EquivalenceSession`: one
  persistent solver proving a whole candidate sweep against one reference
  under per-candidate activation literals;
* :mod:`~repro.formal.induction` — unbounded sequential proofs by
  k-induction (base + inductive step over the unrolled transition relation);
* :mod:`~repro.formal.stats` — process-wide proof counters exported at the
  service's ``GET /metrics``.

Counterexamples are *actionable*: ``bench.golden`` replays them on the batched
simulator as a differential oracle, and the hallucination detector consumes
them to sharpen Table II subtype classification.
"""

from .aig import AIG, FALSE, TRUE, FormalEncodingError, FormalError, SymVector
from .cnf import CNF, tseitin
from .cone import ConeResult, SequentialUnroller, build_combinational_cone
from .encode import bittable_to_aig, expr_to_aig
from .incremental import EquivalenceSession, IncrementalEncoder
from .induction import InductionInconclusive, prove_sequential_by_induction
from .miter import (
    Counterexample,
    EquivalenceResult,
    prove_combinational_equivalence,
    prove_expr_equivalence,
    prove_sequential_equivalence,
)
from .sat import ConflictLimitExceeded, SatResult, SatSolver, SatStats, solve_cnf
from .stats import proof_stats, record_proof, reset_proof_stats

__all__ = [
    "AIG",
    "CNF",
    "FALSE",
    "TRUE",
    "ConeResult",
    "ConflictLimitExceeded",
    "Counterexample",
    "EquivalenceResult",
    "EquivalenceSession",
    "FormalEncodingError",
    "FormalError",
    "IncrementalEncoder",
    "InductionInconclusive",
    "SatResult",
    "SatSolver",
    "SatStats",
    "SequentialUnroller",
    "SymVector",
    "bittable_to_aig",
    "build_combinational_cone",
    "expr_to_aig",
    "proof_stats",
    "prove_combinational_equivalence",
    "prove_expr_equivalence",
    "prove_sequential_by_induction",
    "prove_sequential_equivalence",
    "record_proof",
    "reset_proof_stats",
    "solve_cnf",
    "tseitin",
]
