"""Resumable, shardable experiment runs.

This package lifts PR 4's content-addressed discipline from single checks to
whole experiment sweeps:

* :class:`~repro.runs.manifest.RunManifest` declares a sweep (profiles, suites,
  :class:`~repro.bench.scoring.EvaluationConfig`, temperatures, samples) and
  deterministically expands into content-addressed
  :class:`~repro.runs.manifest.WorkUnit`\\ s keyed by ``(manifest_hash,
  profile_id, suite_id, task_id, temperature, sample_index)``;
* :class:`~repro.runs.store.RunStore` persists every completed unit in an
  append-only JSONL journal (pluggable directory via ``REPRO_RUN_DIR``) with an
  in-memory index, recovering from a corrupted trailing line after a crash;
* :class:`~repro.runs.engine.RunEngine` executes units through the shared
  ``run_checks`` pool, skips everything already journaled (kill ``-9`` a sweep
  and re-invoke: it resumes where it left off) and shards disjointly with
  ``--shard i/n``;
* :class:`~repro.runs.aggregate.StreamingAggregator` rebuilds pass@k, the
  Table IV/V/VI rows and the Fig. 3/4 series incrementally from the journal, so
  reports render from partially complete runs.

``python -m repro.runs`` exposes the ``plan`` / ``run`` / ``status`` /
``report`` CLI; the ``run_*`` drivers in :mod:`repro.experiments` are thin
manifest-builders on top of this machinery.

Public names load on first access (see :mod:`repro._lazy`): the journal
layer (manifest, store, aggregator) imports no check engine, and
:class:`~repro.runs.engine.RunEngine` loads the check core when it is first
read.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".aggregate": ("RunProgress", "StreamingAggregator"),
        ".engine": ("QuarantineInfo", "RunEngine", "RunStats", "UnitResult"),
        ".manifest": ("ProfileSpec", "RunManifest", "SuiteSpec", "WorkUnit"),
        ".resolve": ("ManifestResolver",),
        ".store": ("RunStore",),
    },
)
