"""Paper-scale Table IV, once: time, peak RSS and the per-unit verdict digest.

    PYTHONPATH=src python tools/paper_table4.py        # or: make paper-table4

Runs the paper-scale Table IV sweep (``ExperimentScale.paper()``: the
143/156/29/156-task suites, n = 10, three temperatures, 290,400 units)
through ``RunEngine`` into an in-memory store, then prints one JSON line:

* ``setup_s``: building datasets, fine-tuned profiles and suites;
* ``wall_s``: ``RunEngine.run`` alone;
* ``units_per_s``: journaled units per second of ``wall_s``;
* ``peak_rss_mb``: this process's peak resident set size;
* ``digest``: the per-unit verdict digest ``e2ebench`` checks
  (``e2e_workloads.verdict_digest``): sha256 over every
  (unit, (syntax_ok, functional_passed)) pair in unit order.

The exit code is 1 when the digest differs from :data:`EXPECTED_DIGEST`, the
digest of the sweep's verdicts before the check core memoised syntax
verdicts, check keys and task latents: a speed-up must not change a verdict.
One run takes under a minute on two cores, so it is not part of the tier-1
test suite.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "e2ebench"))

from e2e_workloads import unit_verdicts, verdict_digest  # noqa: E402
from repro.experiments import ExperimentScale
from repro.runs.engine import RunEngine
from repro.runs.presets import table4_manifest
from repro.runs.resolve import ManifestResolver
from repro.runs.store import RunStore

EXPECTED_DIGEST = "27c3e73923a140a255098ed9a8fb9d490bfcd2e57513d717145530c5c6b1ffa7"


def main() -> int:
    started = time.monotonic()
    manifest = table4_manifest(ExperimentScale.paper())
    resolver = ManifestResolver(manifest)
    store = RunStore.ephemeral()
    engine = RunEngine(manifest, store, resolver)
    for spec in manifest.profiles:
        resolver.pipeline(spec.profile_id)
    ready = time.monotonic()
    stats = engine.run()
    finished = time.monotonic()
    digest = verdict_digest(unit_verdicts(store.records()))
    wall_s = finished - ready
    print(
        json.dumps(
            {
                "units": stats.total_units,
                "setup_s": round(ready - started, 2),
                "wall_s": round(wall_s, 2),
                "units_per_s": round(stats.total_units / wall_s, 1),
                "peak_rss_mb": round(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
                ),
                "digest": digest,
                "digest_ok": digest == EXPECTED_DIGEST,
            }
        )
    )
    if digest != EXPECTED_DIGEST:
        print(f"verdict digest changed: expected {EXPECTED_DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
