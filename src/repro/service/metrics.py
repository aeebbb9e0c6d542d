"""Prometheus text-format metrics for the evaluation service.

Everything durable is derived on scrape from the broker's on-disk state —
journals (units completed, quarantines, per-check latency via
``CheckOutcome.duration_s``), event logs (lease requeues, completion
timestamps for the units/s gauge) and lease files (in-flight units, queue
depth) — so the numbers survive server restarts and reflect the whole fleet,
not one process.  Journals and event logs are read through the broker's
per-run views, so a scrape parses only the lines appended since the last
one.  Process-local sources (HTTP request counters, rate-limit
rejections, the design-database cache) come from the server's in-memory
:class:`HttpCounters` and the process-wide
:class:`~repro.verilog.design.DesignDatabase` stats.

The exposition format is the Prometheus text format, version 0.0.4:
``# HELP`` / ``# TYPE`` headers followed by ``name{labels} value`` samples.
Latency quantiles use the summary convention
(``name{quantile="0.5"}`` + ``_sum`` + ``_count``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Mapping

from ..bench.outcomes import percentile
from .broker import FileBroker

#: Trailing window (seconds) for the units/s throughput gauge.
RATE_WINDOW_S = 60.0

#: Latency quantiles exported by the check-latency summary.
LATENCY_QUANTILES = (0.5, 0.9, 0.99)


def escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_sample(name: str, labels: Mapping[str, str], value: float) -> str:
    """One exposition line: ``name{k="v",...} value``."""
    if labels:
        inner = ",".join(
            f'{key}="{escape_label_value(str(val))}"' for key, val in labels.items()
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricFamily:
    """One named metric: HELP/TYPE header plus its samples."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind  # counter | gauge | summary
        self.help_text = help_text
        self.samples: list[str] = []

    def add(
        self,
        value: float,
        labels: Mapping[str, str] | None = None,
        *,
        suffix: str = "",
    ) -> "MetricFamily":
        self.samples.append(format_sample(self.name + suffix, labels or {}, value))
        return self

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(self.samples)
        return "\n".join(lines)


def render_families(families: Iterable[MetricFamily]) -> str:
    body = "\n".join(family.render() for family in families if family.samples)
    return body + "\n" if body else ""


class HttpCounters:
    """Thread-safe request/rejection counters for the HTTP layer."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests: dict[tuple[str, str, int], int] = {}
        self.rate_limited = 0
        self.admission_rejected = 0

    def observe(self, method: str, route: str, code: int) -> None:
        with self._lock:
            key = (method, route, int(code))
            self.requests[key] = self.requests.get(key, 0) + 1
            if code == 429:
                self.rate_limited += 1
            if code == 503:
                self.admission_rejected += 1

    def snapshot(self) -> tuple[dict[tuple[str, str, int], int], int, int]:
        with self._lock:
            return dict(self.requests), self.rate_limited, self.admission_rejected


class ServiceMetrics:
    """Scrape-time metric assembly over a broker plus server-local counters."""

    def __init__(
        self,
        broker: FileBroker,
        http: HttpCounters | None = None,
        *,
        clock: Callable[[], float] = time.time,
        rate_window_s: float = RATE_WINDOW_S,
    ):
        self.broker = broker
        self.http = http or HttpCounters()
        self._clock = clock
        self.rate_window_s = float(rate_window_s)
        self._started = clock()

    # ------------------------------------------------------------------ assembly
    def render(self) -> str:
        families = [self._service_info()]
        families.extend(self._broker_families())
        families.extend(self._cache_families())
        families.extend(self._codegen_families())
        families.extend(self._formal_families())
        families.extend(self._http_families())
        return render_families(families)

    def _service_info(self) -> MetricFamily:
        uptime = MetricFamily(
            "repro_service_uptime_seconds",
            "gauge",
            "Seconds since this service process started.",
        )
        uptime.add(max(0.0, self._clock() - self._started))
        return uptime

    def _broker_families(self) -> list[MetricFamily]:
        completed = MetricFamily(
            "repro_units_completed_total",
            "counter",
            "Work units scored into the journal, per run.",
        )
        quarantined = MetricFamily(
            "repro_units_quarantined_total",
            "counter",
            "Work units journaled as poison after burning every attempt.",
        )
        requeues = MetricFamily(
            "repro_lease_requeues_total",
            "counter",
            "Leases that expired (dead or stalled worker) and were requeued.",
        )
        leased = MetricFamily(
            "repro_leases_active",
            "gauge",
            "Units currently under a live worker lease.",
        )
        pending = MetricFamily(
            "repro_run_pending_units",
            "gauge",
            "Units neither journaled nor leased, per run.",
        )
        depth = MetricFamily(
            "repro_queue_depth",
            "gauge",
            "Pending units across every queued run (admission-control input).",
        )
        rate = MetricFamily(
            "repro_units_per_second",
            "gauge",
            f"Unit completions over the trailing {int(self.rate_window_s)}s window.",
        )
        latency = MetricFamily(
            "repro_check_latency_seconds",
            "summary",
            "Settling check-attempt latency of journaled units (p50/p90/p99).",
        )

        now = self._clock()
        total_depth = 0
        recent = 0
        latencies: list[float] = []
        for run_id in self.broker.run_ids():
            status = self.broker.run_status(run_id)
            labels = {"run": run_id[:12]}
            completed.add(status.completed, labels)
            quarantined.add(status.quarantined, labels)
            requeues.add(status.requeues, labels)
            leased.add(status.leased, labels)
            pending.add(status.pending, labels)
            total_depth += status.pending
            for event in self.broker.events(run_id):
                if event["event"] != "complete":
                    continue
                if now - float(event.get("ts", 0.0)) <= self.rate_window_s:
                    recent += 1
            store = self.broker.store(run_id)
            for record in store.records():
                if record.get("kind", "unit") != "unit":
                    continue
                duration = record.get("outcome", {}).get("duration_s")
                if duration:
                    latencies.append(float(duration))
        depth.add(total_depth)
        rate.add(recent / self.rate_window_s if self.rate_window_s else 0.0)

        if latencies:
            latencies.sort()
            for quantile in LATENCY_QUANTILES:
                latency.add(
                    percentile(latencies, quantile), {"quantile": str(quantile)}
                )
            latency.add(sum(latencies), suffix="_sum")
            latency.add(len(latencies), suffix="_count")
        return [completed, quarantined, requeues, leased, pending, depth, rate, latency]

    def _cache_families(self) -> list[MetricFamily]:
        from ..verilog.design import get_default_database

        stats = get_default_database().stats.as_dict()
        hits = MetricFamily(
            "repro_design_cache_events_total",
            "counter",
            "Process-wide DesignDatabase cache events by tier.",
        )
        for tier, value in sorted(stats.items()):
            hits.add(int(value), {"tier": tier})
        ratio = MetricFamily(
            "repro_design_cache_hit_ratio",
            "gauge",
            "Warm-tier hit ratio of the process-wide DesignDatabase.",
        )
        warm = stats.get("hits", 0) + stats.get("disk_hits", 0)
        lookups = warm + stats.get("misses", 0)
        if lookups:
            ratio.add(warm / lookups)
        return [hits, ratio]

    def _codegen_families(self) -> list[MetricFamily]:
        from ..verilog import codegen

        stats = codegen.fallback_stats()
        total = MetricFamily(
            "repro_codegen_fallback_total",
            "counter",
            "Simulation checks that fell back to the scalar simulator, by reason.",
        )
        if stats["total"]:
            for reason, count in sorted(stats["reasons"].items()):
                total.add(int(count), {"reason": reason})
        else:
            total.add(0)
        return [total]

    def _formal_families(self) -> list[MetricFamily]:
        from ..formal import proof_stats

        stats = proof_stats()
        proofs = MetricFamily(
            "repro_formal_proofs_total",
            "counter",
            "Formal equivalence proofs attempted in this process, by verdict.",
        )
        if stats["total"]:
            for result, count in sorted(stats["results"].items()):
                proofs.add(int(count), {"result": result})
        else:
            proofs.add(0)
        conflicts = MetricFamily(
            "repro_formal_conflicts_total",
            "counter",
            "SAT conflicts burned across every formal proof in this process.",
        )
        conflicts.add(int(stats["conflicts"]))
        return [proofs, conflicts]

    def _http_families(self) -> list[MetricFamily]:
        requests, rate_limited, admission = self.http.snapshot()
        http = MetricFamily(
            "repro_http_requests_total",
            "counter",
            "HTTP requests served, by method, route template and status code.",
        )
        for (method, route, code), count in sorted(requests.items()):
            http.add(count, {"method": method, "route": route, "code": str(code)})
        limited = MetricFamily(
            "repro_http_rate_limited_total",
            "counter",
            "Requests rejected by the per-client token bucket (HTTP 429).",
        )
        limited.add(rate_limited)
        rejected = MetricFamily(
            "repro_admission_rejected_total",
            "counter",
            "Submissions rejected by queue admission control (HTTP 503).",
        )
        rejected.add(admission)
        return [http, limited, rejected]
