"""k-induction: unbounded sequential equivalence proofs.

Bounded unrolling (:func:`~repro.formal.miter.prove_sequential_equivalence`)
only certifies the first ``k`` cycles after reset.  k-induction upgrades that
to an **unbounded** proof with two UNSAT queries over the same transition
relation:

* **Base case** — the existing bounded proof: no input sequence of length
  ``k`` distinguishes the designs starting from their concrete reset states.
  A SAT verdict here is a *real*, replayable counterexample.
* **Inductive step** — both designs are unrolled ``k + 1`` cycles from a
  **fully symbolic** state pair (every register bit a fresh AIG input, so the
  query ranges over *all* states, reachable or not), sharing fresh data
  inputs per cycle.  The query asks for a run whose outputs agree for the
  first ``k`` cycles and differ on cycle ``k + 1``; UNSAT means agreement is
  ``k``-inductive.

Both queries build their frames the same way: each is a substituted copy of
the design's once-encoded :class:`~repro.formal.cone.TransitionRelation`,
started from the reset state (base) or from fresh ``dut_state:`` /
``ref_state:`` inputs (step) — the BMC construction of Biere et al. (TACAS
1999) with the induction of Eén & Sörensson (BMC 2003).

Base ∧ step ⟹ the outputs agree on every cycle of every input sequence, by
strong induction on the trace length.  The inductive step over-approximates
reachability, so a SAT verdict there proves nothing — the query may have
started from an unreachable state pair.  That outcome raises
:class:`InductionInconclusive` (a :class:`FormalEncodingError`, so existing
callers fall back to simulation exactly as they do for designs outside the
provable subset), never a wrong verdict.
"""

from __future__ import annotations

from typing import Sequence

from ..verilog.simulator.testbench import ResetSpec
from .aig import AIG, FormalEncodingError, negate
from .miter import (
    EquivalenceResult,
    _compare_output,
    _sequential_unrollers,
    _solve_miter,
    prove_sequential_equivalence,
)
from .sat import ConflictLimitExceeded, SatStats
from .stats import record_proof

__all__ = ["InductionInconclusive", "prove_sequential_by_induction"]


class InductionInconclusive(FormalEncodingError):
    """The inductive step failed at this depth; no verdict either way.

    Not an equivalence refutation: the distinguishing run may start from an
    unreachable state pair.  Callers should fall back to bounded proofs or
    simulation (the type is a ``FormalEncodingError`` so every existing
    fallback path already does).
    """


def _merge_stats(base: SatStats, step: SatStats) -> SatStats:
    return SatStats(
        decisions=base.decisions + step.decisions,
        conflicts=base.conflicts + step.conflicts,
        propagations=base.propagations + step.propagations,
        restarts=base.restarts + step.restarts,
        learned_clauses=base.learned_clauses + step.learned_clauses,
    )


def prove_sequential_by_induction(
    dut_source: str,
    reference_source: str,
    depth: int,
    clock: str = "clk",
    reset: ResetSpec | None = ResetSpec(),
    outputs: Sequence[str] | None = None,
    module_name: str | None = None,
    reference_module_name: str | None = None,
    conflict_limit: int | None = None,
) -> EquivalenceResult:
    """Unbounded sequential equivalence by k-induction at ``depth``.

    Returns an equivalent result with ``method="induction"`` when both the
    base case and the inductive step are UNSAT — a proof over *every* cycle,
    not just the first ``depth``.  A base-case counterexample is returned as
    the (real, replayable) refutation.

    Raises:
        InductionInconclusive: the inductive step found a distinguishing run
            from some (possibly unreachable) state — retry with a larger
            ``depth`` or fall back to bounded/simulation checking.
        FormalEncodingError: either design is outside the provable subset.
        ConflictLimitExceeded: a solver call exhausted ``conflict_limit``.
    """
    if depth < 1:
        raise ValueError("k-induction needs depth >= 1")
    base = prove_sequential_equivalence(
        dut_source,
        reference_source,
        steps=depth,
        clock=clock,
        reset=reset,
        outputs=outputs,
        module_name=module_name,
        reference_module_name=reference_module_name,
        conflict_limit=conflict_limit,
        _record=False,
    )
    if not base.equivalent:
        record_proof("counterexample", base.stats.conflicts)
        return base

    aig = AIG()
    dut_unroller, reference_unroller, step_inputs = _sequential_unrollers(
        aig, dut_source, reference_source, depth + 1, clock, reset,
        module_name, reference_module_name,
    )
    dut_steps, _ = dut_unroller.unroll(
        step_inputs, dut_unroller.symbolic_state("dut_state:")
    )
    reference_steps, _ = reference_unroller.unroll(
        step_inputs, reference_unroller.symbolic_state("ref_state:")
    )

    checked = list(base.checked_outputs)
    # Miter per cycle: agree on cycles 0..depth-1, differ on cycle `depth`.
    constraints: list[int] = []
    for step in range(depth + 1):
        difference = aig.or_all(
            _compare_output(
                aig, dut_steps[step][name], reference_steps[step][name]
            )
            for name in checked
        )
        constraints.append(
            difference if step == depth else negate(difference)
        )
    root = aig.and_all(constraints)
    try:
        satisfiable, _, _, step_stats = _solve_miter(aig, root, conflict_limit)
    except ConflictLimitExceeded:
        record_proof("unknown", (conflict_limit or 0) + base.stats.conflicts)
        raise
    stats = _merge_stats(base.stats, step_stats)
    if satisfiable:
        record_proof("unknown", stats.conflicts)
        raise InductionInconclusive(
            f"k-induction at depth {depth} is inconclusive: outputs can "
            f"disagree {depth} cycles after an arbitrary (possibly "
            "unreachable) state — increase the depth or fall back"
        )
    record_proof("equivalent", stats.conflicts)
    return EquivalenceResult(
        equivalent=True,
        stats=stats,
        checked_outputs=checked,
        method="induction",
        sequential_steps=depth,
    )
