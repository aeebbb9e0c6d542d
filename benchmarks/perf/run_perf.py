"""Perf runner: record or gate the tracked microbenchmarks.

Usage (from the repository root, ``PYTHONPATH=src``):

    python benchmarks/perf/run_perf.py            # print current numbers
    python benchmarks/perf/run_perf.py --update   # rewrite BENCH_perf.json
    python benchmarks/perf/run_perf.py --check    # exit 1 on a >2x regression

``make bench`` runs ``--check``; ``make bench-update`` refreshes the baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_harness import collect_results, regressions

BASELINE_PATH = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


def _render(results: dict) -> str:
    lines = ["benchmark                 before (s)    after (s)     speedup"]
    benches = results["benchmarks"]
    tt = benches["truth_table_8var"]
    qm = benches["qm_minimize_8var"]
    bs = benches["batch_sim"]
    ld = benches["ldataset_quick_build"]
    lines.append(
        f"truth_table_8var          {tt['legacy_s']:<13.6f} {tt['bit_parallel_s']:<13.6f} {tt['speedup']:.1f}x"
    )
    lines.append(
        f"qm_minimize_8var          {qm['legacy_s']:<13.6f} {qm['bitset_s']:<13.6f} {qm['speedup']:.1f}x"
    )
    lines.append(
        f"batch_sim                 {bs['scalar_s']:<13.6f} {bs['batch_s']:<13.6f} {bs['speedup']:.1f}x"
        f"  ({int(bs['stimuli'])} stimuli)"
    )
    lines.append(f"ldataset_quick_build      {'-':<13} {ld['seconds']:<13.6f}")
    fe = benches.get("formal_eq")
    if fe is not None:
        speedup = f"{fe['speedup']:.1f}x  " if "speedup" in fe else ""
        lines.append(
            f"formal_eq                 {fe['sampled_sweep_s']:<13.6f} {fe['prove_s']:<13.6f} "
            f"{speedup}({int(fe['input_bits'])}-input miter: sampled {int(fe['sweep_lanes'])}-lane "
            f"sweep vs complete SAT proof)"
        )
    fi = benches.get("formal_incremental")
    if fi is not None:
        lines.append(
            f"formal_incremental        {fi['fresh_s']:<13.6f} {fi['incremental_s']:<13.6f} {fi['speedup']:.1f}x"
            f"  ({int(fi['candidates'])}-candidate sweep, {int(fi['unique_codes'])} unique, "
            f"shared solver vs fresh per candidate)"
        )
    cs = benches.get("codegen_sim")
    if cs is not None:
        lines.append(
            f"codegen_sim               {cs['scalar_s']:<13.6f} {cs['codegen_s']:<13.6f} {cs['speedup']:.1f}x"
            f"  ({int(cs['stimuli'])} stimuli, generated lanes vs scalar sweep)"
        )
    sq = benches.get("codegen_seq")
    if sq is not None:
        lines.append(
            f"codegen_seq               {sq['scalar_s']:<13.6f} {sq['codegen_s']:<13.6f} {sq['speedup']:.1f}x"
            f"  ({int(sq['cycles'])}-cycle clocked check, fused generated loop vs scalar)"
        )
    cc = benches.get("compile_cache")
    if cc is not None:
        lines.append(
            f"compile_cache             {cc['cold_s']:<13.6f} {cc['warm_s']:<13.6f} {cc['speedup']:.1f}x"
            f"  ({int(cc['candidates'])}-candidate sweep, {int(cc['unique_codes'])} unique)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the committed baseline")
    parser.add_argument("--check", action="store_true", help="fail on >threshold regression vs baseline")
    parser.add_argument("--threshold", type=float, default=2.0, help="regression factor (default 2.0)")
    parser.add_argument("--repeat", type=int, default=5, help="minimum measurement rounds per benchmark")
    args = parser.parse_args(argv)

    results = collect_results(repeat=args.repeat)
    print(_render(results))

    if args.update:
        BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        if not BASELINE_PATH.exists():
            print(f"no baseline at {BASELINE_PATH}; run with --update first", file=sys.stderr)
            return 2
        try:
            baseline = json.loads(BASELINE_PATH.read_text())
        except json.JSONDecodeError as error:
            print(f"unreadable baseline {BASELINE_PATH}: {error}; rerun --update", file=sys.stderr)
            return 2
        problems = regressions(results, baseline, threshold=args.threshold)
        if problems:
            print("PERF REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"no regression vs baseline (threshold {args.threshold:g}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
