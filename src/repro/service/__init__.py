"""Evaluation-as-a-service: run the benchmark as a long-lived fleet.

The :mod:`repro.runs` layer made sweeps resumable and shardable for one
operator at one terminal.  This package turns the same machinery into a
service:

- :mod:`~repro.service.broker` — a durable, file-backed work queue.
  Submitted :class:`~repro.runs.manifest.RunManifest`\\ s expand into
  content-addressed work units that workers *lease* with a TTL; a worker
  that stops heartbeating loses its leases and the units requeue.  Completed
  units land in the ordinary :class:`~repro.runs.store.RunStore` journal, so
  resume, sharding and reporting semantics are unchanged.
- :mod:`~repro.service.worker` — the fleet member: lease → execute through
  the shared :class:`~repro.runs.engine.RunEngine` core (with the full
  fault-tolerance policy) → journal exactly once per unit.
- :mod:`~repro.service.api` — the stdlib HTTP face: submit manifests, poll
  run status, stream reports, scrape Prometheus metrics, probe health.
- :mod:`~repro.service.metrics` / :mod:`~repro.service.ratelimit` — the
  operational trimmings: text-format exposition and per-client token buckets.

``python -m repro.service --help`` for the command-line entry points.

Public names load on first access (see :mod:`repro._lazy`): only the worker
imports the check engine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".api": ("ReproServiceServer", "ServiceConfig"),
        ".broker": (
            "BROKER_DIR_ENV",
            "AdmissionError",
            "BrokerError",
            "FileBroker",
            "Lease",
            "RunStatus",
            "SubmitReceipt",
        ),
        ".metrics": ("HttpCounters", "MetricFamily", "ServiceMetrics"),
        ".ratelimit": ("RateLimiter", "TokenBucket"),
        ".worker": ("STALL_ENV", "ServiceWorker", "WorkerStats"),
    },
)
