"""Write reference.json: the expected outputs of every workload, per seed.

    PYTHONPATH=src python3 e2ebench/make_reference.py

For each of the ``REFERENCE_SEEDS`` seeds, the Table IV and service manifests run serially in this
process with ``differential_oracle=True``, so every batched verdict is
re-checked against the scalar simulator, and Table V's subset runs in
simulation mode: ``table5-formal`` counts how its formal verdicts differ from
those.  A quarantine, a degraded verdict or an execution warning aborts,
because a reference has to come from a clean run.  Table V's subset also runs
in formal mode, as the benchmark runs it, in a fresh interpreter
(``--formal-seed``); its verdicts, quarantines included,
are stored so that a later formal run that changes a proven verdict or
quarantines more units fails the check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import e2e_workloads as workloads


def run_serial(manifest, *, allow_quarantine: bool = False) -> tuple[list[dict], str]:
    """Journal records and rendered report of a clean serial run."""
    from repro.runs.aggregate import StreamingAggregator
    from repro.runs.engine import RunEngine
    from repro.runs.store import RunStore

    store = RunStore.ephemeral()
    engine = RunEngine(manifest, store)
    stats = engine.run()
    records = list(store.records())
    degraded = sum(1 for record in records if record.get("outcome", {}).get("degradation"))
    warnings = len(store.warning_records())
    if (stats.quarantined and not allow_quarantine) or degraded or warnings:
        raise RuntimeError(
            f"{manifest.name} (seed {manifest.config.seed}) is not clean:"
            f" {stats.quarantined} quarantined, {degraded} degraded, {warnings} warning(s)"
        )
    report = StreamingAggregator(manifest, engine.resolver).feed_store(store).report()
    return records, report


def fresh_formal_verdicts(seed: int, size: str) -> dict:
    """Formal-mode verdicts of Table V's subset, from a fresh interpreter.

    Formal verdicts depend on what the process ran before: after the other
    workloads had run in the same process, 57 units were quarantined instead
    of 49.  Every benchmark repetition starts cold, so the reference does too.
    """
    completed = subprocess.run(
        [sys.executable, __file__, "--formal-seed", str(seed), "--size", size],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    pairs = json.loads(completed.stdout.strip().splitlines()[-1])
    return {tuple(key): None if verdict is None else tuple(verdict) for key, verdict in pairs}


def build_reference(seeds, size: str = "quick") -> dict:
    seeds = list(seeds)
    entries: dict[str, dict] = {workload: {} for workload in workloads.WORKLOADS}
    for seed in seeds:
        records, _ = run_serial(
            workloads.manifest_for("table4-sim", seed, size, differential=True)
        )
        entries["table4-sim"][str(seed)] = {
            "verdicts": workloads.verdict_digest(workloads.unit_verdicts(records))
        }
        records, report = run_serial(
            workloads.manifest_for("service-queue", seed, size, differential=True)
        )
        entries["service-queue"][str(seed)] = {
            "verdicts": workloads.verdict_digest(workloads.unit_verdicts(records)),
            "report": workloads.report_digest(report),
        }
        records, _ = run_serial(
            workloads.manifest_for("table5-formal", seed, size, mode="simulation", differential=True)
        )
        verdicts = workloads.unit_verdicts(records)
        entry = {
            "units": workloads.units_digest(verdicts),
            "simulation_codes": workloads.verdict_codes(verdicts),
        }
        formal = fresh_formal_verdicts(seed, size)
        entry["formal_codes"] = workloads.verdict_codes(formal)
        correct, detail, disagreements = workloads.compare_with_simulation(formal, entry)
        if not correct:
            raise RuntimeError(f"table5-formal (seed {seed}): {detail}")
        entry["quarantined"] = entry["formal_codes"].count("q")
        entry["disagreements"] = disagreements
        entries["table5-formal"][str(seed)] = entry
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    return {"size": size, "seeds": len(seeds), "workloads": entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--formal-seed", type=int, help="print the formal-mode verdicts of this seed and exit"
    )
    parser.add_argument(
        "--size", choices=("quick", "tiny"), default="quick", help="with --formal-seed"
    )
    args = parser.parse_args(argv)
    if args.formal_seed is not None:
        manifest = workloads.manifest_for("table5-formal", args.formal_seed, args.size)
        records, _ = run_serial(manifest, allow_quarantine=True)
        print(json.dumps(list(workloads.unit_verdicts(records).items())))
        return 0
    reference = build_reference(range(workloads.REFERENCE_SEEDS))
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
