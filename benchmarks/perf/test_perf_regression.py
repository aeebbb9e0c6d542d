"""Perf regression gate: tracked microbenchmarks vs the committed baseline.

Marked ``perf`` so the gate can be selected (``-m perf``) or skipped
(``-m "not perf"``) independently of the functional suite.  Two kinds of
assertion:

* machine-independent: the bit-parallel engine must keep its speedup over the
  legacy per-assignment path measured on the *same* machine in the same run
  (>=10x on 8-variable truth-table extraction, >=3x on QM minimisation, >=4x on
  batched functional-equivalence checking at 64+ stimuli, >=5x for a
  generated-code lane sweep over the scalar simulator's sweep of the same
  256 stimuli,
  >=5x for a 64-cycle clocked check on the fused generated loop over the
  scalar cycle-serial runner, >=5x for a 50-candidate pass@k sweep proven on
  one persistent equivalence session — reference encoded once, each
  candidate under an activation literal — over a fresh solver per candidate,
  >=3x for compile-once over cold evaluation of a 50-candidate sweep);
* baseline-relative: no tracked timing may regress more than 2x versus the
  committed ``BENCH_perf.json``.

The ``batch_sim`` fixture runs the batched testbench with the differential
oracle enabled, so every ``make bench`` / ``make perf-tests`` invocation also
re-validates the batch engine against the scalar simulator.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perf_harness import (
    bench_batch_sim,
    bench_codegen_seq,
    bench_codegen_sim,
    bench_compile_cache,
    bench_formal_eq,
    bench_formal_incremental,
    bench_qm,
    bench_truth_table,
    regressions,
)

BASELINE_PATH = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


@pytest.fixture(scope="module")
def current():
    return {
        "benchmarks": {
            "truth_table_8var": bench_truth_table(repeat=3),
            "qm_minimize_8var": bench_qm(repeat=3),
            "batch_sim": bench_batch_sim(repeat=3),
            "codegen_sim": bench_codegen_sim(repeat=3),
            "codegen_seq": bench_codegen_seq(repeat=3),
            "formal_eq": bench_formal_eq(repeat=3),
            "formal_incremental": bench_formal_incremental(repeat=3),
            "compile_cache": bench_compile_cache(repeat=3),
        }
    }


@pytest.fixture(scope="module")
def baseline():
    assert BASELINE_PATH.exists(), "BENCH_perf.json baseline missing; run make bench-update"
    return json.loads(BASELINE_PATH.read_text())


@pytest.mark.perf
def test_truth_table_speedup_holds(current):
    result = current["benchmarks"]["truth_table_8var"]
    assert result["speedup"] >= 10.0, (
        f"bit-parallel truth-table extraction only {result['speedup']:.1f}x "
        f"faster than the legacy evaluate walk (need >=10x)"
    )


@pytest.mark.perf
def test_qm_speedup_holds(current):
    result = current["benchmarks"]["qm_minimize_8var"]
    assert result["speedup"] >= 3.0, (
        f"bitset QM only {result['speedup']:.1f}x faster than the legacy "
        f"per-minterm cover (need >=3x)"
    )


@pytest.mark.perf
def test_batch_sim_speedup_holds(current):
    result = current["benchmarks"]["batch_sim"]
    assert result["stimuli"] >= 64, "batch_sim must measure at 64+ stimuli"
    assert result["speedup"] >= 4.0, (
        f"batched equivalence checking only {result['speedup']:.1f}x faster than "
        f"the scalar per-vector loop at {int(result['stimuli'])} stimuli (need >=4x)"
    )


@pytest.mark.perf
def test_codegen_sim_speedup_holds(current):
    result = current["benchmarks"]["codegen_sim"]
    assert result["stimuli"] >= 256, "codegen_sim must measure at 256+ stimuli"
    assert result["speedup"] >= 5.0, (
        f"the generated-code lane sweep only {result['speedup']:.1f}x faster than "
        f"the scalar simulator's sweep of the same {int(result['stimuli'])} stimuli "
        f"(need >=5x)"
    )


@pytest.mark.perf
def test_codegen_seq_speedup_holds(current):
    result = current["benchmarks"]["codegen_seq"]
    assert result["cycles"] >= 64, "codegen_seq must measure a 64+ cycle check"
    assert result["speedup"] >= 5.0, (
        f"fused generated cycle loop only {result['speedup']:.1f}x faster than "
        f"the scalar runner on a {int(result['cycles'])}-cycle clocked check "
        f"(need >=5x)"
    )


@pytest.mark.perf
def test_formal_eq_proves_wide_miter(current):
    result = current["benchmarks"]["formal_eq"]
    assert result["input_bits"] >= 20, "formal_eq must prove a >=20-input miter"
    # A complete proof of a space 16384x larger than the sampled sweep must
    # stay within interactive budgets (the gate vs baseline bounds drift).
    assert result["prove_s"] < 5.0, (
        f"SAT proof of the {int(result['input_bits'])}-input miter took "
        f"{result['prove_s']:.2f}s"
    )


@pytest.mark.perf
def test_formal_incremental_speedup_holds(current):
    result = current["benchmarks"]["formal_incremental"]
    assert result["candidates"] >= 50, "must measure a 50+ candidate sweep"
    assert result["speedup"] >= 5.0, (
        f"incremental equivalence session only {result['speedup']:.1f}x faster "
        f"than a fresh solver per candidate on the "
        f"{int(result['candidates'])}-candidate sweep (need >=5x)"
    )


@pytest.mark.perf
def test_compile_cache_speedup_holds(current):
    result = current["benchmarks"]["compile_cache"]
    assert result["candidates"] >= 50, "compile_cache must sweep 50+ candidates"
    assert result["speedup"] >= 3.0, (
        f"warm (compile-once) evaluation only {result['speedup']:.1f}x faster than "
        f"cold over a {int(result['candidates'])}-candidate sweep (need >=3x)"
    )


@pytest.mark.perf
def test_no_regression_vs_committed_baseline(current, baseline):
    tracked_now = {
        "benchmarks": {
            name: dict(values) for name, values in current["benchmarks"].items()
        }
    }
    # The dataset build is tracked by the runner script, not re-timed here: it
    # is too coarse for a quick per-test measurement.  Copy the baseline value
    # through so `regressions` only gates what this test measured.
    tracked_now["benchmarks"]["ldataset_quick_build"] = baseline["benchmarks"][
        "ldataset_quick_build"
    ]
    problems = regressions(tracked_now, baseline, threshold=2.0)
    assert not problems, "; ".join(problems)
