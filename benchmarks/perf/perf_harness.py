"""Microbenchmark harness for the bit-parallel engines.

Times the tracked hot paths and reports before/after numbers:

* ``truth_table_8var``  — full truth-table extraction (minterms) of an
  8-variable expression: legacy per-assignment ``evaluate`` walk vs one
  bit-parallel compile (caches cleared inside the timed region, so the
  compile cost is really measured).
* ``qm_minimize_8var``  — Quine–McCluskey prime implicants + cover on an
  8-variable on-set: the seed all-pairs/per-minterm algorithm (kept here
  verbatim as the timing baseline) vs the bitset implementation in
  :mod:`repro.logic.minimize`.
* ``batch_sim``         — batched functional-equivalence checking of a
  combinational ALU against its golden model over 256 stimuli: the scalar
  per-vector ``TestbenchRunner`` loop vs one column-parallel
  ``BatchTestbenchRunner`` pass (the differential check that both agree runs
  before timing, so ``make bench`` always exercises the batch engine against
  the scalar oracle).
* ``codegen_sim``       — the same ALU workload's 256 vectors swept as lanes
  of one ``BatchSimulator`` on generated code vs one after another on the
  scalar ``ModuleSimulator``, the oracle.  A differential gate (codegen vs
  scalar, on the passing workload *and* on a mutated DUT whose per-lane
  mismatches must agree exactly) runs before timing; the acceptance bar is a
  >=5x speedup over the scalar sweep.
* ``codegen_seq``       — one 64-cycle clocked check of a Moore sequence
  detector (the state-diagram task shape): the scalar ``TestbenchRunner``
  vs ``BatchTestbenchRunner``, which resets on the scalar engine and runs the
  cycles on the design's fused generated loop.  A verdict-parity gate (the
  passing DUT and a mutated one must agree on pass/fail, check count and
  failure summary, plus a ``differential=True`` run) precedes timing; the
  acceptance bar is a >=5x speedup for the whole check.  Both columns are
  warm, so ``cold_s`` adds what a design seen for the first time pays before
  its first cycle: lowering its elaborated processes to ``codegen_run`` and
  Python's ``compile()`` of that source, with the compile cache cleared.
* ``ldataset_quick_build`` — a quick-scale end-to-end L-dataset build, the
  workload every layer above the engine feeds into.
* ``formal_incremental`` — a 50-candidate pass@k sweep (10 unique codes, two
  of them buggy) proven on one persistent :class:`EquivalenceSession` vs a
  fresh solver per candidate.  A verdict-parity gate (bit-identical verdicts,
  counterexamples on every refutation) runs before timing; the acceptance bar
  is a >=5x speedup over the fresh-solver baseline.
* ``formal_eq``         — complete SAT equivalence proof of a 24-input
  combinational miter (carry-select adder vs behavioural ``a + b``), where the
  exhaustive ``2**24``-lane sweep is infeasible for the simulation engines; the
  sampled 1024-lane batch sweep is recorded as the (incomplete) comparison
  column.  Differential gates run before timing: the proof must be a real SAT
  verdict, a mutated DUT must be refuted, and the refutation's counterexample
  must replay as an actual mismatch on the batched simulator.

* ``compile_cache``     — cold vs warm evaluation of a 50-candidate pass@k
  sweep (10 unique codes, the shape temperature sampling produces): caching
  disabled vs the compile-once ``DesignDatabase`` + content-addressed verdict
  memo.  A differential gate asserts per-candidate verdicts agree before
  timing; the acceptance bar is a >=3x warm-vs-cold speedup.

``collect_results`` returns the dict committed as ``BENCH_perf.json``; see
``run_perf.py`` for the CLI and the regression gate.
"""

from __future__ import annotations

import platform
import random
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from repro.bench.golden import SequenceDetectorGolden, VectorFunctionGolden
from repro.core.dataset.ldataset import LDatasetConfig, LDatasetGenerator
from repro.logic import bittable
from repro.logic.bittable import BitTable
from repro.logic.expr import RandomExpressionGenerator, reference_minterms
from repro.logic.minimize import Implicant, minimal_cover, prime_implicants, _cover_mask
from repro.verilog.simulator.testbench import (
    BatchTestbenchRunner,
    ExpectedTrace,
    ResetSpec,
    TestbenchRunner,
)

#: Benchmark keys whose timings the regression gate tracks (seconds, lower is better).
TRACKED = (
    ("truth_table_8var", "bit_parallel_s"),
    ("qm_minimize_8var", "bitset_s"),
    ("batch_sim", "batch_s"),
    ("codegen_sim", "codegen_s"),
    ("codegen_seq", "codegen_s"),
    ("ldataset_quick_build", "seconds"),
    ("formal_eq", "prove_s"),
    ("formal_incremental", "incremental_s"),
    ("compile_cache", "warm_s"),
)

#: Stimulus count for the batched functional-equivalence benchmark (the
#: acceptance bar is a >=4x speedup at 64+ stimuli; 256 shows the scaling).
BATCH_SIM_STIMULI = 256

#: Combinational ALU used as the equivalence-check DUT (case statement, adders,
#: comparisons, concatenation — the constructs the bench families exercise).
BATCH_SIM_SOURCE = """
module top_module (
    input [7:0] a,
    input [7:0] b,
    input [1:0] op,
    output reg [7:0] result,
    output reg [3:0] flags
);
    always @(*) begin
        case (op)
            2'b00: result = a + b;
            2'b01: result = a - b;
            2'b10: result = a ^ b;
            2'b11: result = ~a;
            default: result = 8'd0;
        endcase
        flags = {result == 8'd0, result[7], a > b, a == b};
    end
endmodule
"""

_EIGHT_VARS = ["a", "b", "c", "d", "e", "f", "g", "h"]


def expression_8var():
    """A deterministic 8-variable expression used by the truth-table benchmark."""
    generator = RandomExpressionGenerator(seed=11)
    for _ in range(100):
        candidate = generator.generate(_EIGHT_VARS, max_depth=7)
        if len(candidate.variables()) == len(_EIGHT_VARS):
            return candidate
    raise RuntimeError("seed search failed to produce an 8-variable expression")


def onset_8var() -> list[int]:
    """A deterministic 120-minterm on-set over 8 variables."""
    return sorted(random.Random(2025).sample(range(256), 120))


#: Seconds ``measure`` keeps repeating rounds for, past its ``repeat`` minimum
#: (``measure_pair`` gets twice as long, one window per side).
MEASURE_WINDOW_S = 0.5


def _measure_interleaved(
    fns: tuple[Callable[[], object], ...], repeat: int, min_time: float
) -> list[float]:
    """Best per-call seconds of each of ``fns``, their rounds alternating.

    A round is the smallest power-of-two batch of calls that takes at least
    ``min_time`` (sized per function).  Each pass runs one round of every
    function in turn; passes repeat until ``repeat`` of them have run *and*
    ``len(fns)`` measurement windows have passed.  On a loaded host the
    scheduler pre-empts some rounds and a garbage collection lands in others;
    with many short rounds spread over the window, enough run undisturbed
    that the minimum is the uncontended cost.  Calls slower than the window
    still get ``repeat`` rounds of one call each.
    """
    numbers: list[int] = []
    best: list[float] = []
    for fn in fns:
        number = 1
        while True:
            start = time.perf_counter()
            for _ in range(number):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= min_time or number >= 1 << 20:
                break
            number *= 2
        numbers.append(number)
        best.append(elapsed / number)
    rounds = 1
    deadline = time.perf_counter() + MEASURE_WINDOW_S * len(fns)
    while rounds < repeat or time.perf_counter() < deadline:
        for index, (fn, number) in enumerate(zip(fns, numbers)):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            best[index] = min(best[index], (time.perf_counter() - start) / number)
        rounds += 1
    return best


def measure(fn: Callable[[], object], repeat: int = 5, min_time: float = 0.002) -> float:
    """Best per-call seconds of ``fn``, measured as :func:`_measure_interleaved` does."""
    return _measure_interleaved((fn,), repeat, min_time)[0]


def measure_pair(
    slow: Callable[[], object],
    fast: Callable[[], object],
    repeat: int = 5,
    min_time: float = 0.002,
) -> tuple[float, float]:
    """Best per-call seconds of ``slow`` and of ``fast``, measured interleaved.

    The two sides of a speedup alternate rounds inside one window, so load
    that lands on the host during the measurement hits both, and their
    ratio does not depend on which side ran while the host was busy.
    """
    slow_s, fast_s = _measure_interleaved((slow, fast), repeat, min_time)
    return slow_s, fast_s


# --------------------------------------------------------------------------- legacy QM
# Verbatim copy of the seed (pre-bitset) Quine–McCluskey inner loops, kept only
# as the timing baseline for the "before" column of BENCH_perf.json.
def _legacy_combine(a: Implicant, b: Implicant) -> Implicant | None:
    if a.mask != b.mask:
        return None
    differing = (a.values ^ b.values) & ~a.mask
    if differing == 0 or (differing & (differing - 1)) != 0:
        return None
    return Implicant(values=a.values & ~differing, mask=a.mask | differing, width=a.width)


def legacy_prime_implicants(minterms, num_variables):
    current = {Implicant(values=m, mask=0, width=num_variables) for m in set(minterms)}
    primes = set()
    while current:
        combined = set()
        used = set()
        current_list = sorted(current, key=lambda imp: (imp.mask, imp.values))
        for i, a in enumerate(current_list):
            for b in current_list[i + 1 :]:
                merged = _legacy_combine(a, b)
                if merged is not None:
                    combined.add(merged)
                    used.add(a)
                    used.add(b)
        primes.update(current - used)
        current = combined
    return sorted(primes, key=lambda imp: (imp.mask, imp.values))


def legacy_minimal_cover(minterms, primes):
    remaining = set(minterms)
    if not remaining:
        return []
    chosen = []
    coverage = {m: [p for p in primes if p.covers(m)] for m in remaining}
    for minterm, covering in sorted(coverage.items()):
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
    for prime in chosen:
        remaining = {m for m in remaining if not prime.covers(m)}
    while remaining:
        best = max(
            primes,
            key=lambda p: (sum(1 for m in remaining if p.covers(m)), -p.literal_count()),
        )
        covered = {m for m in remaining if best.covers(m)}
        if not covered:
            break
        chosen.append(best)
        remaining -= covered
    return chosen


# --------------------------------------------------------------------------- benchmarks
def bench_truth_table(repeat: int = 5) -> dict[str, float]:
    expression = expression_8var()

    def fast() -> list[int]:
        bittable.clear_caches()
        return BitTable.from_expr(expression).minterms()

    assert fast() == reference_minterms(expression), "bit-parallel path diverged from oracle"
    legacy_s, bit_parallel_s = measure_pair(
        lambda: reference_minterms(expression), fast, repeat=repeat
    )
    return {
        "legacy_s": legacy_s,
        "bit_parallel_s": bit_parallel_s,
        "speedup": legacy_s / bit_parallel_s,
    }


def bench_qm(repeat: int = 5) -> dict[str, float]:
    onset = onset_8var()

    def legacy() -> list[Implicant]:
        primes = legacy_prime_implicants(onset, 8)
        return legacy_minimal_cover(onset, primes)

    def fast() -> list[Implicant]:
        _cover_mask.cache_clear()
        bittable.clear_caches()
        primes = prime_implicants(onset, 8)
        return minimal_cover(onset, primes)

    assert fast() == legacy(), "bitset QM diverged from legacy cover"
    legacy_s, bitset_s = measure_pair(legacy, fast, repeat=repeat)
    return {"legacy_s": legacy_s, "bitset_s": bitset_s, "speedup": legacy_s / bitset_s}


def _batch_sim_workload() -> tuple[VectorFunctionGolden, list[dict[str, int]]]:
    rng = random.Random(77)

    def alu(inputs):
        a, b, op = inputs["a"], inputs["b"], inputs["op"]
        result = {0: a + b, 1: a - b, 2: a ^ b, 3: ~a}[op] & 0xFF
        flags = ((result == 0) << 3) | ((result >> 7) << 2) | ((a > b) << 1) | (a == b)
        return {"result": result, "flags": flags}

    stimulus = [
        {"a": rng.randrange(256), "b": rng.randrange(256), "op": rng.randrange(4)}
        for _ in range(BATCH_SIM_STIMULI)
    ]
    return VectorFunctionGolden(alu), stimulus


def bench_batch_sim(repeat: int = 5) -> dict[str, float]:
    """Scalar per-vector equivalence checking vs one column-parallel pass."""
    golden, stimulus = _batch_sim_workload()
    scalar_runner = TestbenchRunner()
    batch_runner = BatchTestbenchRunner()

    def scalar() -> bool:
        return scalar_runner.run(BATCH_SIM_SOURCE, golden, stimulus).passed

    def batched() -> bool:
        return batch_runner.run(BATCH_SIM_SOURCE, golden, stimulus).passed

    # Differential gate: the batch engine must agree with the scalar oracle
    # (and both must pass) before any timing is recorded.
    assert BatchTestbenchRunner(differential=True).run(BATCH_SIM_SOURCE, golden, stimulus).passed, (
        "batch_sim workload failed its own functional check"
    )
    scalar_s, batch_s = measure_pair(scalar, batched, repeat=repeat)
    return {
        "stimuli": float(BATCH_SIM_STIMULI),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_codegen_sim(repeat: int = 5) -> dict[str, float]:
    """Generated code vs the scalar oracle on the batched ALU workload.

    The tracked column is one column-parallel ``BatchSimulator`` sweep of the
    256 vectors on generated code; the comparison column is a scalar
    ``ModuleSimulator`` sweep of the same 256 vectors, one after another.
    """
    from repro.verilog import codegen as codegen_mod
    from repro.verilog.design import compile_design
    from repro.verilog.simulator.batch import BatchSimulator
    from repro.verilog.simulator.simulator import ModuleSimulator
    from repro.verilog.simulator.values import BatchVector, LogicVector

    golden, stimulus = _batch_sim_workload()
    fallbacks_before = codegen_mod.fallback_stats()["total"]

    # Differential gate before timing.  The passing workload: the batched
    # runner with differential=True re-runs the scalar oracle internally, and
    # the scalar runner must pass too.
    assert BatchTestbenchRunner(differential=True).run(
        BATCH_SIM_SOURCE, golden, stimulus
    ).passed, "codegen back end disagreed with the scalar oracle"
    assert TestbenchRunner().run(BATCH_SIM_SOURCE, golden, stimulus).passed
    # And a mutated DUT: both engines must report the identical per-lane
    # mismatches, not merely the same pass/fail bit.
    buggy = BATCH_SIM_SOURCE.replace("result = a - b;", "result = a + b;")
    scalar_fail = TestbenchRunner().run(buggy, golden, stimulus)
    codegen_fail = BatchTestbenchRunner().run(buggy, golden, stimulus)
    assert not scalar_fail.passed and not codegen_fail.passed
    assert [str(m) for m in codegen_fail.mismatches] == [
        str(m) for m in scalar_fail.mismatches
    ], "engines disagreed on the mutated DUT's mismatches"
    assert codegen_mod.fallback_stats()["total"] == fallbacks_before, (
        "the codegen_sim workload left generated code"
    )

    # Timed region: the sweep itself (apply + settle over all 256 vectors).
    # The runner's per-lane golden-model comparison is identical Python on
    # both sides and would drown the engine delta being tracked.
    compiled = compile_design(BATCH_SIM_SOURCE)
    lanes = BATCH_SIM_STIMULI
    widths = compiled.input_widths()
    # A second stimulus set, so every timed sweep propagates real value
    # changes instead of settling an already-settled state.
    vector_sets = [
        stimulus,
        [
            {"a": vector["a"] ^ 0xFF, "b": vector["b"] ^ 0x55, "op": vector["op"] ^ 0x3}
            for vector in stimulus
        ],
    ]
    # Both sets are packed into columns up front: list→column packing is not
    # work the scalar sweep does and would otherwise blur the delta.
    packed = [
        {
            name: BatchVector.from_vectors(
                [LogicVector.from_int(vector[name], widths[name]) for vector in vectors],
                widths[name],
            )
            for name in ("a", "b", "op")
        }
        for vectors in vector_sets
    ]

    batch = BatchSimulator(compiled, lanes=lanes)
    scalar = ModuleSimulator(compiled)
    scalar_outputs: list[dict[str, LogicVector]] = []
    state = {"batch": 0, "scalar": 0}

    def codegen_sweep():
        state["batch"] ^= 1
        batch.apply_inputs(packed[state["batch"]])

    def scalar_sweep():
        state["scalar"] ^= 1
        scalar_outputs.clear()
        for vector in vector_sets[state["scalar"]]:
            scalar.apply_inputs(vector)
            scalar_outputs.append({name: scalar.get(name) for name in ("result", "flags")})

    codegen_sweep()
    scalar_sweep()
    for name in ("result", "flags"):
        assert batch.get(name).to_vectors() == [outputs[name] for outputs in scalar_outputs], (
            "engine sweeps diverged on the timing workload"
        )
    scalar_s, codegen_s = measure_pair(scalar_sweep, codegen_sweep, repeat=repeat)
    return {
        "stimuli": float(BATCH_SIM_STIMULI),
        "scalar_s": scalar_s,
        "codegen_s": codegen_s,
        "speedup": scalar_s / codegen_s,
    }


#: Clock cycles of the sequential-check benchmark.
CODEGEN_SEQ_CYCLES = 64

#: Moore detector for the serial pattern 1011 (overlapping), synchronous reset.
CODEGEN_SEQ_SOURCE = """
module top_module (
    input clk,
    input rst,
    input din,
    output detected
);
    localparam S0 = 3'd0;
    localparam S1 = 3'd1;
    localparam S2 = 3'd2;
    localparam S3 = 3'd3;
    localparam S4 = 3'd4;
    reg [2:0] state;
    reg [2:0] next_state;
    always @(posedge clk) begin
        if (rst)
            state <= S0;
        else
            state <= next_state;
    end
    always @(*) begin
        case (state)
            S0: next_state = din ? S1 : S0;
            S1: next_state = din ? S1 : S2;
            S2: next_state = din ? S3 : S0;
            S3: next_state = din ? S4 : S2;
            S4: next_state = din ? S1 : S2;
            default: next_state = S0;
        endcase
    end
    assign detected = (state == S4);
endmodule
"""


def bench_codegen_seq(repeat: int = 5) -> dict[str, float]:
    """A whole 64-cycle clocked check: scalar runner vs the fused generated loop.

    Both columns compile through the same (warm) design database and reset
    on the scalar engine; they differ in the engine that runs the cycles.
    """
    rng = random.Random(2024)
    stimulus = [{"rst": 0, "din": rng.randrange(2)} for _ in range(CODEGEN_SEQ_CYCLES)]
    stimulus[CODEGEN_SEQ_CYCLES // 2]["rst"] = 1  # a mid-run reset is checked too
    reset = ResetSpec(signal="rst")

    def golden():
        return SequenceDetectorGolden(pattern=(1, 0, 1, 1))

    scalar = TestbenchRunner(reset=reset)
    fused = BatchTestbenchRunner(reset=reset)
    # Verdict-parity gate: the passing DUT and a mutated (non-overlapping)
    # one must get the identical outcome from both engines, and the
    # differential runner re-checks the fused run against the scalar oracle.
    buggy = CODEGEN_SEQ_SOURCE.replace("S3: next_state = din ? S4 : S2;", "S3: next_state = din ? S4 : S0;")
    for source, should_pass in ((CODEGEN_SEQ_SOURCE, True), (buggy, False)):
        slow = scalar.run(source, golden(), stimulus)
        fast = BatchTestbenchRunner(reset=reset, differential=True).run(source, golden(), stimulus)
        assert slow.passed is should_pass, slow.failure_summary
        assert (fast.passed, fast.total_checks, fast.failure_summary) == (
            slow.passed, slow.total_checks, slow.failure_summary
        ), "fused sequential run disagreed with the scalar oracle"

    scalar_s, codegen_s = measure_pair(
        lambda: scalar.run(CODEGEN_SEQ_SOURCE, golden(), stimulus),
        lambda: fused.run(CODEGEN_SEQ_SOURCE, golden(), stimulus),
        repeat=repeat,
    )

    from repro.verilog import codegen as codegen_mod
    from repro.verilog.design import DesignDatabase

    compiled = DesignDatabase(max_entries=0).compile(CODEGEN_SEQ_SOURCE)

    def cold():
        codegen_mod._COMPILE_CACHE.clear()
        artifact = codegen_mod.generate(
            compiled.template,
            has_latch_risk=compiled.has_latch_risk,
            undef_sources=tuple(sorted(compiled.undef_sources)),
        )
        codegen_mod._compiled_function(artifact.sequence.source, "codegen_run")

    return {
        "cycles": float(CODEGEN_SEQ_CYCLES),
        "scalar_s": scalar_s,
        "codegen_s": codegen_s,
        "speedup": scalar_s / codegen_s,
        "cold_s": measure(cold, repeat=repeat),
    }


#: 24 primary inputs: a carry-select adder vs the behavioural `a + b`.  The
#: exhaustive sweep would need 2**24 (~16.7M) lanes — gated out of the
#: simulation engines — while the SAT miter proves equivalence outright.
FORMAL_EQ_INPUT_BITS = 24

FORMAL_EQ_DUT = """
module top_module(input [11:0] a, input [11:0] b, output [12:0] s);
    wire [6:0] lo_sum;
    wire [6:0] hi_sum0, hi_sum1;
    assign lo_sum = a[5:0] + b[5:0];
    assign hi_sum0 = a[11:6] + b[11:6];
    assign hi_sum1 = a[11:6] + b[11:6] + 6'd1;
    assign s = {(lo_sum[6] ? hi_sum1 : hi_sum0), lo_sum[5:0]};
endmodule
"""

FORMAL_EQ_REFERENCE = """
module top_module(input [11:0] a, input [11:0] b, output [12:0] s);
    assign s = a + b;
endmodule
"""

#: Lanes for the sampled-sweep comparison column (covers 1024 of the 2**24
#: assignments — fast but incomplete, which is exactly the gap `formal_eq`
#: closes).
FORMAL_EQ_SWEEP_LANES = 1024


def bench_formal_eq(repeat: int = 3) -> dict[str, float]:
    """Complete SAT equivalence proof of a 24-input miter vs a sampled sweep."""
    from repro.bench.golden import formal_equivalence_check, random_vectors
    from repro.formal import prove_combinational_equivalence
    from repro.verilog.design import compile_design
    from repro.verilog.simulator.testbench import BatchTestbenchRunner, ReplayGolden

    # Differential gates before timing: the proof must go through the SAT
    # engine (not a structural fold), and a mutated DUT must be refuted with
    # a counterexample that replays as a real mismatch (formal_equivalence_check
    # raises FormalError when it does not).
    proof = prove_combinational_equivalence(FORMAL_EQ_DUT, FORMAL_EQ_REFERENCE)
    assert proof.equivalent and proof.method == "sat", (
        "formal_eq workload no longer exercises the SAT engine"
    )
    buggy = FORMAL_EQ_DUT.replace("+ 6'd1", "+ 6'd2")
    assert not formal_equivalence_check(buggy, FORMAL_EQ_REFERENCE).equivalent

    stimulus = random_vectors({"a": 12, "b": 12}, FORMAL_EQ_SWEEP_LANES, seed=5)
    runner = BatchTestbenchRunner()

    def sampled_sweep():
        # The DUT scored against the reference's outputs on every lane.
        reference = compile_design(FORMAL_EQ_REFERENCE)
        trace = runner.record(reference, stimulus, ["s"], sequential=False)
        return runner.run(FORMAL_EQ_DUT, ReplayGolden(trace), stimulus, check_outputs=["s"])

    assert sampled_sweep().passed, "formal_eq DUT mismatches its reference on the sweep"
    sweep_s, prove_s = measure_pair(
        sampled_sweep,
        lambda: prove_combinational_equivalence(FORMAL_EQ_DUT, FORMAL_EQ_REFERENCE),
        repeat=repeat,
    )
    return {
        "input_bits": float(FORMAL_EQ_INPUT_BITS),
        "sweep_lanes": float(FORMAL_EQ_SWEEP_LANES),
        "sampled_sweep_s": sweep_s,
        "prove_s": prove_s,
        # Complete proof vs the (incomplete!) 1024-lane sampled sweep — how
        # much faster the proof is than even a 1/16384th-coverage simulation.
        "speedup": sweep_s / prove_s,
        "conflicts": float(proof.stats.conflicts),
    }


# --------------------------------------------------------------------------- incremental formal
#: Candidate count for the incremental-session sweep benchmark: 50 candidates
#: with 10 unique codes (8 correct variants + 2 buggy), the shape a pass@k
#: temperature sweep produces.
FORMAL_INC_CANDIDATES = 50
FORMAL_INC_UNIQUE = 10


def _formal_inc_candidates() -> list[str]:
    """10 unique candidate codes (last two buggy), cycled to 50 submissions."""
    unique = []
    for index in range(FORMAL_INC_UNIQUE):
        code = FORMAL_EQ_DUT + f"\n// candidate variant {index}\n"
        if index >= FORMAL_INC_UNIQUE - 2:
            code = code.replace("+ 6'd1", "+ 6'd2")  # broken carry select
        unique.append(code)
    return [unique[i % FORMAL_INC_UNIQUE] for i in range(FORMAL_INC_CANDIDATES)]


def bench_formal_incremental(repeat: int = 3) -> dict[str, float]:
    """Incremental equivalence session vs a fresh solver per candidate.

    The workload is a 50-candidate pass@k sweep against one reference: the
    baseline rebuilds the reference cone, the Tseitin CNF and a cold CDCL
    instance for every candidate; the session encodes the reference once and
    proves each candidate's miter, Tseitin-encoded as built with no AIG
    rewriting, under an activation literal on one persistent solver (learned
    clauses, VSIDS activity and saved phases survive the sweep).

    A verdict-parity gate runs before timing: both engines must agree on every
    candidate, bit for bit, and every refutation must carry a counterexample.
    """
    from repro.formal import EquivalenceSession, prove_combinational_equivalence

    candidates = _formal_inc_candidates()

    def fresh_sweep() -> list[bool]:
        return [
            prove_combinational_equivalence(code, FORMAL_EQ_REFERENCE).equivalent
            for code in candidates
        ]

    def incremental_sweep() -> list[bool]:
        session = EquivalenceSession(FORMAL_EQ_REFERENCE)
        return [session.prove(code).equivalent for code in candidates]

    # Verdict-parity gate: the incremental engine must be bit-identical to the
    # fresh-solver baseline on the whole sweep (and actually refute the buggy
    # candidates) before its timing means anything.
    fresh_verdicts = fresh_sweep()
    incremental_verdicts = incremental_sweep()
    assert fresh_verdicts == incremental_verdicts, (
        "incremental session diverged from the fresh-solver prover"
    )
    assert not all(fresh_verdicts), "sweep no longer exercises refutations"
    session = EquivalenceSession(FORMAL_EQ_REFERENCE)
    for code, expected in zip(candidates, fresh_verdicts):
        result = session.prove(code)
        assert result.equivalent == expected
        assert result.equivalent or result.counterexample is not None

    fresh_s, incremental_s = measure_pair(fresh_sweep, incremental_sweep, repeat=repeat)
    return {
        "candidates": float(FORMAL_INC_CANDIDATES),
        "unique_codes": float(FORMAL_INC_UNIQUE),
        "fresh_s": fresh_s,
        "incremental_s": incremental_s,
        "speedup": fresh_s / incremental_s,
    }


def bench_ldataset(repeat: int = 3) -> dict[str, float]:
    config = LDatasetConfig(num_concise=12, num_faithful=8, seed=7)

    def build() -> int:
        return len(LDatasetGenerator(config).generate().l_dataset)

    assert build() > 0
    return {"seconds": measure(build, repeat=repeat, min_time=0.0)}


# --------------------------------------------------------------------------- compile cache
#: Candidate count for the pass@k-sweep caching benchmark: 50 candidates with
#: 10 unique codes, the shape low-temperature sampling produces.
COMPILE_CACHE_CANDIDATES = 50
COMPILE_CACHE_UNIQUE = 10
COMPILE_CACHE_STIMULI = 32


def _alu_golden() -> VectorFunctionGolden:
    """Golden model of the benchmark ALU."""

    def alu(inputs):
        a, b, op = inputs["a"], inputs["b"], inputs["op"]
        result = {0: a + b, 1: a - b, 2: a ^ b, 3: ~a}[op] & 0xFF
        flags = ((result == 0) << 3) | ((result >> 7) << 2) | ((a > b) << 1) | (a == b)
        return {"result": result, "flags": flags}

    return VectorFunctionGolden(alu)


def _compile_cache_candidates() -> list[str]:
    """50 candidate codes over 10 unique variants; the last two variants are buggy."""
    variants = []
    for index in range(COMPILE_CACHE_UNIQUE):
        source = BATCH_SIM_SOURCE + f"\n// candidate variant {index}\n"
        if index >= COMPILE_CACHE_UNIQUE - 2:
            source = source.replace("result = a - b;", "result = a + b;")
        variants.append(source)
    return [variants[i % COMPILE_CACHE_UNIQUE] for i in range(COMPILE_CACHE_CANDIDATES)]


def bench_compile_cache(repeat: int = 3) -> dict[str, float]:
    """Cold vs warm evaluation of a 50-candidate pass@k sweep.

    * **cold** — the pre-database behaviour: every candidate pays the full
      front end (caching disabled via a zero-capacity default
      ``DesignDatabase``, per-candidate salted keys so nothing memoises);
    * **warm** — the steady state of the compile-once orchestrator: the memo
      and database are primed, re-evaluating the sweep (the repeated-candidate
      workload of temperature sweeps and re-runs) is content-addressed lookups.

    A differential gate runs before timing: the per-candidate verdicts of both
    paths must agree exactly, and the sweep must contain real failures (the
    two buggy variants) alongside real passes.
    """
    from repro.bench.jobs import (
        CheckRequest,
        ResultKey,
        design_key,
        mode_key,
        run_checks,
        stimulus_key,
    )
    from repro.verilog import codegen as codegen_mod
    from repro.verilog.design import DesignDatabase, set_default_database

    fallbacks_before = codegen_mod.fallback_stats()["total"]
    candidates = _compile_cache_candidates()
    rng = random.Random(99)
    stimulus = [
        {"a": rng.randrange(256), "b": rng.randrange(256), "op": rng.randrange(4)}
        for _ in range(COMPILE_CACHE_STIMULI)
    ]
    mode = mode_key(mode="simulation", differential=False, formal_conflict_limit=None)
    expected = ExpectedTrace.record(_alu_golden(), stimulus)

    def requests_for(salted: bool) -> list:
        requests = []
        for index, code in enumerate(candidates):
            key = ResultKey(
                design_key=design_key(code),
                stimulus_key=stimulus_key(
                    "compile_cache",
                    stimulus,
                    None,
                    "clk",
                    None,
                    salt=str(index) if salted else "",
                ),
                mode=mode,
            )
            requests.append(
                CheckRequest(
                    key=key,
                    code=code,
                    task_id=f"compile_cache{index}" if salted else "compile_cache",
                    expected=expected,
                    stimulus=stimulus,
                )
            )
        return requests

    def cold() -> list[bool]:
        previous = set_default_database(DesignDatabase(max_entries=0))
        try:
            requests = requests_for(salted=True)
            results = run_checks(requests).results()
            return [results[request.key].passed for request in requests]
        finally:
            set_default_database(previous)

    previous_db = set_default_database(DesignDatabase())
    try:
        memo = run_checks(requests_for(salted=False)).results()  # prime database + memo

        def warm() -> list[bool]:
            verdicts = dict(memo)
            pending = [r for r in requests_for(salted=False) if r.key not in verdicts]
            verdicts.update(run_checks(pending).results())
            return [verdicts[request.key].passed for request in requests_for(salted=False)]

        cold_verdicts = cold()
        warm_verdicts = warm()
        assert cold_verdicts == warm_verdicts, (
            "cached and uncached sweeps disagreed on per-candidate verdicts"
        )
        assert any(cold_verdicts) and not all(cold_verdicts), (
            "compile_cache sweep must mix passing and failing candidates"
        )

        cold_s, warm_s = measure_pair(cold, warm, repeat=repeat)
    finally:
        set_default_database(previous_db)
    return {
        "candidates": float(COMPILE_CACHE_CANDIDATES),
        "unique_codes": float(COMPILE_CACHE_UNIQUE),
        "stimuli": float(COMPILE_CACHE_STIMULI),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        # The sweep runs on generated code where it can: checks that left it
        # for the scalar simulator while it ran.  A jump here means codegen
        # coverage of the candidate workload regressed.
        "codegen_fallbacks": float(
            codegen_mod.fallback_stats()["total"] - fallbacks_before
        ),
    }


def _git_sha() -> str:
    """The checked-out commit, so baselines are attributable across commits."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parents[2],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        return "unknown"


def collect_results(repeat: int = 5) -> dict:
    """Run every benchmark and assemble the BENCH_perf.json payload."""
    return {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "hostname": platform.node(),
            "git_sha": _git_sha(),
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "benchmarks": {
            "truth_table_8var": bench_truth_table(repeat=repeat),
            "qm_minimize_8var": bench_qm(repeat=repeat),
            "batch_sim": bench_batch_sim(repeat=repeat),
            "codegen_sim": bench_codegen_sim(repeat=repeat),
            "codegen_seq": bench_codegen_seq(repeat=repeat),
            "ldataset_quick_build": bench_ldataset(),
            "formal_eq": bench_formal_eq(),
            "formal_incremental": bench_formal_incremental(),
            "compile_cache": bench_compile_cache(repeat=repeat),
        },
    }


def regressions(current: dict, baseline: dict, threshold: float = 2.0) -> list[str]:
    """Tracked metrics that regressed more than ``threshold``x versus baseline."""
    problems = []
    for bench, key in TRACKED:
        base = baseline.get("benchmarks", {}).get(bench, {}).get(key)
        now = current.get("benchmarks", {}).get(bench, {}).get(key)
        if base is None or now is None:
            problems.append(f"{bench}.{key}: missing from baseline or current run")
            continue
        if now > base * threshold:
            problems.append(
                f"{bench}.{key}: {now:.6f}s vs baseline {base:.6f}s (>{threshold:g}x)"
            )
    return problems
