"""Generated code against the scalar oracle on the real suites.

    PYTHONPATH=src python tools/codegen_differential.py
    # or: make codegen-differential

Runs quick-scale Table IV (the four Table IV suites) and Table V's symbolic
suite in simulation mode, in this process, with ``differential_oracle=True``:
every check that ran on generated code — a fused clocked run or a batch of
combinational lanes — is re-checked on the scalar ``ModuleSimulator``, and a
divergence raises inside the check.  The run engine records such a check as
degraded, so a clean run is the evidence: prints one JSON line per manifest
(units, quarantined, degraded, warnings) and exits 1 when any is not zero.
"""

from __future__ import annotations

import dataclasses
import json
import sys


def differential_runs(scale) -> list[dict]:
    """One summary per manifest, each run with every fast check re-checked."""
    from repro.runs.engine import RunEngine
    from repro.runs.presets import table4_manifest, table5_manifest
    from repro.runs.store import RunStore

    summaries = []
    for manifest in (table4_manifest(scale), table5_manifest(scale)):
        manifest.config = dataclasses.replace(
            manifest.config, mode="simulation", differential_oracle=True
        )
        store = RunStore.ephemeral()
        stats = RunEngine(manifest, store).run()
        records = list(store.records())
        summaries.append(
            {
                "manifest": manifest.name,
                "units": stats.total_units,
                "quarantined": stats.quarantined,
                "degraded": sum(
                    1 for record in records if record.get("outcome", {}).get("degradation")
                ),
                "warnings": len(store.warning_records()),
            }
        )
    return summaries


def clean(summary: dict) -> bool:
    return not (summary["quarantined"] or summary["degraded"] or summary["warnings"])


def main() -> int:
    from repro.experiments import ExperimentScale

    summaries = differential_runs(ExperimentScale.quick())
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True))
    return 0 if all(clean(summary) for summary in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
