"""The HTTP face of the evaluation service (stdlib ``http.server``).

Routes::

    POST /runs               submit a RunManifest (JSON body) → {"run_id", ...}
    GET  /runs               list queued runs with status summaries
    GET  /runs/<id>          one run's status (units complete/leased/pending,
                             quarantines, requeues, health)
    GET  /runs/<id>/report   the experiment report rendered from the partial
                             journal by the streaming aggregators (text/plain)
    GET  /metrics            Prometheus text exposition (see service.metrics)
    GET  /healthz            liveness: 200 while the server thread is serving
    GET  /readyz             readiness: 200 when the broker directory is
                             usable; the body maps every run to its
                             ``repro.runs status`` exit-code semantics

Submission is guarded twice: a per-client token bucket (``X-Client-Id``
header, else the peer address; HTTP 429 with ``Retry-After``) and queue
admission control (a new manifest whose units would push the broker's pending
backlog past ``max_queued_units`` is rejected with HTTP 503 before anything
is written).  Resubmitting an already-queued manifest is idempotent and
always admitted.

The server is a ``ThreadingHTTPServer``: each request gets a thread, the
broker's on-disk structures are multi-process safe, and nothing here blocks
on check execution — workers are separate processes.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..runs.aggregate import StreamingAggregator
from ..runs.manifest import RunManifest
from .broker import AdmissionError, BrokerError, FileBroker
from .metrics import HttpCounters, ServiceMetrics
from .ratelimit import RateLimiter

_RUN_ROUTE = re.compile(r"^/runs/(?P<run_id>[0-9a-f]{16,64})(?P<rest>/report)?$")

#: Maximum accepted request-body size (a manifest is a few KiB of JSON).
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral (the bound port is on server_address)
    #: Admission control: maximum pending units across all queued runs.
    max_queued_units: int = 10_000
    #: Token-bucket refill rate per client, requests/second.
    rate_per_s: float = 10.0
    #: Token-bucket burst capacity per client.
    burst: float = 20.0
    #: Routes exempt from rate limiting (probes and scrapes must never 429).
    exempt_routes: tuple[str, ...] = ("/healthz", "/readyz", "/metrics")


class ReproServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wiring the broker, limiter and metrics together."""

    daemon_threads = True

    def __init__(self, config: ServiceConfig, broker: FileBroker):
        self.config = config
        self.broker = broker
        self.http_counters = HttpCounters()
        self.limiter = RateLimiter(rate_per_s=config.rate_per_s, burst=config.burst)
        self.metrics = ServiceMetrics(broker, self.http_counters)
        #: run id → cached StreamingAggregator (resolver reuse across scrapes).
        self._aggregators: dict[str, StreamingAggregator] = {}
        self._aggregators_lock = threading.Lock()
        super().__init__((config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def render_report(self, run_id: str) -> str:
        """The run's report plus a progress footer, from the journal so far.

        The run's aggregator is cached across requests and fed only the
        records journaled since the previous one.
        """
        store = self.broker.store(run_id)
        with self._aggregators_lock:
            aggregator = self._aggregators.get(run_id)
            if aggregator is None:
                aggregator = StreamingAggregator(self.broker.manifest(run_id))
                self._aggregators[run_id] = aggregator
            aggregator.feed_store(store)
            progress = aggregator.progress()
            report = aggregator.report()
        footer = (
            f"\n[rendered from {progress.completed}/{progress.total} units"
            f" ({progress.percent:.1f}% complete)]\n"
        )
        return report + "\n" + footer


@dataclass
class _Response:
    code: int
    body: bytes
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)


def _json_response(code: int, payload) -> _Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return _Response(code=code, body=body)


def _text_response(code: int, text: str, content_type: str = "text/plain") -> _Response:
    return _Response(
        code=code, body=text.encode("utf-8"), content_type=f"{content_type}; charset=utf-8"
    )


def _error(code: int, message: str, **extra) -> _Response:
    return _json_response(code, {"error": message, **extra})


class _Handler(BaseHTTPRequestHandler):
    server: ReproServiceServer  # set by http.server machinery
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ plumbing
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics endpoint's job

    def _client_key(self) -> str:
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _route_template(self, path: str) -> str:
        if path in ("/runs", "/metrics", "/healthz", "/readyz"):
            return path
        match = _RUN_ROUTE.match(path)
        if match:
            return "/runs/{id}/report" if match.group("rest") else "/runs/{id}"
        return "<unmatched>"

    def _send(self, response: _Response, method: str, route: str) -> None:
        self.server.http_counters.observe(method, route, response.code)
        self.send_response(response.code)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _rate_limited(self, route: str) -> _Response | None:
        if route in self.server.config.exempt_routes:
            return None
        key = self._client_key()
        if self.server.limiter.allow(key):
            return None
        retry_after = self.server.limiter.retry_after_s(key)
        response = _error(429, "rate limit exceeded", client=key)
        response.headers["Retry-After"] = f"{max(0.0, retry_after):.3f}"
        return response

    # ------------------------------------------------------------------ methods
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = self._route_template(path)
        limited = self._rate_limited(route)
        if limited is not None:
            self._send(limited, "GET", route)
            return
        try:
            response = self._get(path, route)
        except BrokerError as error:
            response = _error(404, str(error))
        except Exception as error:  # pragma: no cover - defensive
            response = _error(500, f"internal error: {error}")
        self._send(response, "GET", route)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = self._route_template(path)
        limited = self._rate_limited(route)
        if limited is not None:
            self._send(limited, "POST", route)
            return
        if route != "/runs":
            self._send(_error(404, f"no such route: POST {path}"), "POST", route)
            return
        try:
            response = self._post_run()
        except AdmissionError as error:
            response = _error(
                503,
                str(error),
                queued_units=error.queued,
                submitted_units=error.incoming,
                limit=error.limit,
            )
        except Exception as error:  # pragma: no cover - defensive
            response = _error(500, f"internal error: {error}")
        self._send(response, "POST", route)

    # ------------------------------------------------------------------ GET routes
    def _get(self, path: str, route: str) -> _Response:
        server = self.server
        if route == "/healthz":
            return _text_response(200, "ok\n")
        if route == "/readyz":
            return self._readyz()
        if route == "/metrics":
            return _text_response(200, server.metrics.render())
        if route == "/runs":
            statuses = [
                server.broker.run_status(run_id).to_dict()
                for run_id in server.broker.run_ids()
            ]
            return _json_response(200, {"runs": statuses})
        match = _RUN_ROUTE.match(path)
        if match:
            run_id = match.group("run_id")
            if match.group("rest"):
                return _text_response(200, server.render_report(run_id))
            return _json_response(200, server.broker.run_status(run_id).to_dict())
        return _error(404, f"no such route: GET {path}")

    def _readyz(self) -> _Response:
        broker = self.server.broker
        try:
            run_ids = broker.run_ids()
            probe = broker.directory / "runs"
            writable = probe.is_dir() and os.access(probe, os.W_OK)
        except OSError as error:
            return _error(503, f"broker unavailable: {error}")
        if not writable:
            return _error(503, f"broker directory not writable: {broker.directory}")
        runs = {}
        for run_id in run_ids:
            status = broker.run_status(run_id)
            runs[run_id[:12]] = {
                "exit_code": status.exit_code,
                "complete": status.complete,
                "healthy": status.healthy,
            }
        return _json_response(200, {"ready": True, "runs": runs})

    # ------------------------------------------------------------------ POST /runs
    def _post_run(self) -> _Response:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return _error(400, "missing request body (a RunManifest JSON object)")
        if length > MAX_BODY_BYTES:
            return _error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
            manifest = RunManifest.from_dict(payload)
        except (ValueError, KeyError, TypeError) as error:
            return _error(400, f"invalid manifest: {error}")
        receipt = self.server.broker.submit(
            manifest, admission_limit=self.server.config.max_queued_units
        )
        body = {
            "run_id": receipt.run_id,
            "total_units": receipt.total_units,
            "created": receipt.created,
            "status_url": f"/runs/{receipt.run_id}",
            "report_url": f"/runs/{receipt.run_id}/report",
        }
        return _json_response(201 if receipt.created else 200, body)
