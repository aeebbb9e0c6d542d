"""HTTP API contract: routes, status codes, rate limiting, admission, parity.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven with ``urllib``
— no mocked transport.  The flagship assertion: a run submitted over HTTP
and drained by an in-process worker renders a report identical to a serial
``RunEngine`` run of the same manifest.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.runs.aggregate import StreamingAggregator
from repro.runs.engine import RunEngine
from repro.runs.store import JOURNAL_FILENAME, RunStore
from repro.service import FileBroker, ServiceWorker
from repro.service.api import ReproServiceServer, ServiceConfig
from conftest import small_manifest


@pytest.fixture()
def server(tmp_path):
    broker = FileBroker(tmp_path / "broker", lease_ttl_s=10.0)
    instance = ReproServiceServer(
        ServiceConfig(rate_per_s=1000.0, burst=1000.0), broker
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def request(server, path, *, data=None, headers=None):
    """(status, headers, body-bytes) — errors return their response, not raise."""
    req = urllib.request.Request(
        server.url + path, data=data, headers=dict(headers or {})
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def submit(server, manifest, **kwargs):
    return request(
        server, "/runs", data=json.dumps(manifest.to_dict()).encode(), **kwargs
    )


class TestRoutes:
    def test_healthz(self, server):
        code, _, body = request(server, "/healthz")
        assert (code, body) == (200, b"ok\n")

    def test_readyz_lists_runs_with_exit_codes(self, server):
        manifest = small_manifest()
        submit(server, manifest)
        code, _, body = request(server, "/readyz")
        payload = json.loads(body)
        assert code == 200 and payload["ready"]
        entry = payload["runs"][manifest.manifest_hash[:12]]
        assert entry == {"exit_code": 3, "complete": False, "healthy": False}

    def test_unknown_run_is_404(self, server):
        code, _, body = request(server, "/runs/" + "0" * 64)
        assert code == 404
        assert "error" in json.loads(body)

    def test_unknown_route_is_404(self, server):
        assert request(server, "/nope")[0] == 404
        assert request(server, "/nope", data=b"x")[0] == 404

    def test_bad_manifest_is_400(self, server):
        assert request(server, "/runs", data=b"{not json")[0] == 400
        assert request(server, "/runs", data=b'{"name": "x"}')[0] == 400

    def test_missing_body_is_400(self, server):
        assert request(server, "/runs", data=b"")[0] == 400


class TestSubmission:
    def test_submit_then_resubmit(self, server):
        manifest = small_manifest()
        code, _, body = submit(server, manifest)
        receipt = json.loads(body)
        assert code == 201 and receipt["created"]
        assert receipt["run_id"] == manifest.manifest_hash
        assert receipt["total_units"] > 0

        code, _, body = submit(server, manifest)
        again = json.loads(body)
        assert code == 200 and not again["created"]
        assert again["run_id"] == receipt["run_id"]

    def test_status_route_tracks_progress(self, server):
        manifest = small_manifest()
        _, _, body = submit(server, manifest)
        receipt = json.loads(body)
        code, _, body = request(server, receipt["status_url"])
        status = json.loads(body)
        assert code == 200
        assert status["pending_units"] == receipt["total_units"]
        assert not status["complete"]

    def test_admission_control_is_503(self, tmp_path):
        broker = FileBroker(tmp_path / "broker")
        instance = ReproServiceServer(
            ServiceConfig(max_queued_units=1, rate_per_s=1000.0, burst=1000.0), broker
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            code, _, body = submit(instance, small_manifest())
            payload = json.loads(body)
            assert code == 503
            assert payload["limit"] == 1
            assert payload["submitted_units"] > 1
            assert broker.run_ids() == []
            metrics = request(instance, "/metrics")[2].decode()
            assert "repro_admission_rejected_total 1" in metrics
        finally:
            instance.shutdown()
            instance.server_close()


class TestRateLimiting:
    @pytest.fixture()
    def throttled(self, tmp_path):
        broker = FileBroker(tmp_path / "broker")
        instance = ReproServiceServer(
            ServiceConfig(rate_per_s=0.001, burst=2.0), broker
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        yield instance
        instance.shutdown()
        instance.server_close()

    def test_burst_then_429_with_retry_after(self, throttled):
        headers = {"X-Client-Id": "impatient"}
        assert request(throttled, "/runs", headers=headers)[0] == 200
        assert request(throttled, "/runs", headers=headers)[0] == 200
        code, resp_headers, _ = request(throttled, "/runs", headers=headers)
        assert code == 429
        assert float(resp_headers["Retry-After"]) > 0

    def test_clients_are_isolated(self, throttled):
        for _ in range(3):
            request(throttled, "/runs", headers={"X-Client-Id": "greedy"})
        assert request(throttled, "/runs", headers={"X-Client-Id": "other"})[0] == 200

    def test_probes_and_scrapes_are_exempt(self, throttled):
        headers = {"X-Client-Id": "prometheus"}
        for _ in range(10):
            assert request(throttled, "/healthz", headers=headers)[0] == 200
            assert request(throttled, "/metrics", headers=headers)[0] == 200


SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+Ee-]+$"
)


class TestEndToEnd:
    def test_worker_drains_run_and_report_matches_serial(self, server, tmp_path):
        manifest = small_manifest()
        _, _, body = submit(server, manifest)
        run_id = json.loads(body)["run_id"]

        worker = ServiceWorker(
            server.broker, "api-test-worker", lease_limit=8, exit_when_idle=True
        )
        stats = worker.run_forever()
        assert stats.completed == json.loads(body)["total_units"]
        assert stats.quarantined == 0

        code, _, body = request(server, f"/runs/{run_id}")
        status = json.loads(body)
        assert status["complete"] and status["healthy"]
        assert status["exit_code"] == 0

        # The service-run report must match a serial run of the same manifest.
        serial_store = RunStore(tmp_path / "serial")
        serial_store.write_manifest(manifest)
        RunEngine(manifest, serial_store).run()
        serial_report = (
            StreamingAggregator(manifest).feed_store(serial_store).report()
        )
        code, headers, body = request(server, f"/runs/{run_id}/report")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")
        service_report = body.decode()
        assert service_report.startswith(serial_report)
        assert "100.0% complete" in service_report

    def test_second_report_feeds_only_new_records(self, server, monkeypatch):
        manifest = small_manifest()
        _, _, body = submit(server, manifest)
        run_id = json.loads(body)["run_id"]

        def drain(units):
            ServiceWorker(server.broker, "report-worker", lease_limit=units, max_loops=1).run_forever()

        drain(2)
        assert request(server, f"/runs/{run_id}/report")[0] == 200

        fed = []
        original = StreamingAggregator.feed

        def counting(aggregator, record):
            fed.append(record["key"])
            return original(aggregator, record)

        monkeypatch.setattr(StreamingAggregator, "feed", counting)
        before = len(server.broker.store(run_id))
        drain(3)
        store = server.broker.store(run_id)
        assert len(store) == before + 3

        code, _, body = request(server, f"/runs/{run_id}/report")
        assert code == 200
        assert fed == [record["key"] for record in store.records(before)]

        fresh = StreamingAggregator(manifest).feed_store(store)
        progress = fresh.progress()
        assert progress.completed == 5
        assert body.decode() == (
            fresh.report()
            + "\n\n"
            + f"[rendered from {progress.completed}/{progress.total} units"
            + f" ({progress.percent:.1f}% complete)]\n"
        )

    def test_report_after_the_journal_is_truncated_and_regrown(self, server):
        manifest = small_manifest()
        _, _, body = submit(server, manifest)
        run_id = json.loads(body)["run_id"]
        ServiceWorker(server.broker, "report-worker", lease_limit=3, max_loops=1).run_forever()
        code, _, first = request(server, f"/runs/{run_id}/report")
        assert code == 200

        # The journal is replaced by as many records with flipped verdicts:
        # the store starts over, then regrows to the length already fed.
        journal = server.broker.store_dir(run_id) / JOURNAL_FILENAME
        regrown = []
        for line in journal.read_bytes().splitlines():
            record = json.loads(line)
            record["outcome"]["functional_passed"] = not record["outcome"]["functional_passed"]
            regrown.append(json.dumps(record) + "\n")
        assert len(regrown) == 3
        journal.write_bytes(b"")
        assert len(server.broker.store(run_id)) == 0
        journal.write_text("".join(regrown))

        code, _, second = request(server, f"/runs/{run_id}/report")
        assert code == 200
        fresh = StreamingAggregator(manifest).feed_store(server.broker.store(run_id))
        assert not first.decode().startswith(fresh.report())
        assert second.decode().startswith(fresh.report())

    def test_concurrent_reports_feed_each_record_once(self, server, monkeypatch):
        manifest = small_manifest(num_samples=6)
        _, _, body = submit(server, manifest)
        run_id = json.loads(body)["run_id"]
        fed = Counter()
        original = StreamingAggregator.feed

        def counting(aggregator, record):
            fed[record["key"]] += 1
            time.sleep(0.005)  # widen the window in which another poller may feed
            return original(aggregator, record)

        monkeypatch.setattr(StreamingAggregator, "feed", counting)
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                server.render_report(run_id)

        pollers = [threading.Thread(target=poll, daemon=True) for _ in range(6)]
        try:
            for poller in pollers:
                poller.start()
            ServiceWorker(server.broker, "racing-worker", lease_limit=1, exit_when_idle=True).run_forever()
        finally:
            stop.set()
            for poller in pollers:
                poller.join(timeout=10)
        assert not any(poller.is_alive() for poller in pollers)

        report = server.render_report(run_id)
        store = server.broker.store(run_id)
        assert fed == Counter(record["key"] for record in store.records())
        fresh = StreamingAggregator(manifest).feed_store(store)
        assert report.startswith(fresh.report())

    def test_metrics_are_parseable_prometheus_text(self, server):
        manifest = small_manifest()
        _, _, body = submit(server, manifest)
        run_id = json.loads(body)["run_id"]
        ServiceWorker(
            server.broker, "metrics-worker", lease_limit=8, exit_when_idle=True
        ).run_forever()

        code, headers, body = request(server, "/metrics")
        assert code == 200
        text = body.decode()
        names = set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                names.add(line.split()[2])
                continue
            assert SAMPLE_LINE.match(line), f"unparseable sample: {line!r}"
        assert {
            "repro_queue_depth",
            "repro_units_completed_total",
            "repro_lease_requeues_total",
            "repro_units_per_second",
            "repro_check_latency_seconds",
            "repro_http_requests_total",
        } <= names
        label = run_id[:12]
        assert f'repro_units_completed_total{{run="{label}"}}' in text
        assert 'repro_check_latency_seconds{quantile="0.5"}' in text
        assert 'repro_check_latency_seconds{quantile="0.99"}' in text
        assert "repro_queue_depth 0" in text
        assert "repro_codegen_fallback_total" in text

    def test_codegen_fallbacks_surface_in_metrics(self, server):
        from repro.verilog import codegen
        from repro.verilog.simulator import BatchSimulator, LaneFallback

        codegen.reset_fallback_stats()
        try:
            with pytest.raises(LaneFallback):
                BatchSimulator.from_source(
                    "module slow(input [3:0] a, input [3:0] b, output [3:0] y);"
                    " assign y = a % b; endmodule",
                    lanes=4,
                )
            text = request(server, "/metrics")[2].decode()
            assert 'repro_codegen_fallback_total{reason="mul-div-mod"} 1' in text
            # Per-design labels are unbounded (one series per design ever
            # simulated), so they stay out of the exposition.
            assert "repro_codegen_design_fallback_total" not in text
        finally:
            codegen.reset_fallback_stats()

    def test_formal_proofs_surface_in_metrics(self, server):
        from repro.formal import record_proof, reset_proof_stats

        reset_proof_stats()
        try:
            record_proof("equivalent", 17)
            record_proof("counterexample", 4)
            text = request(server, "/metrics")[2].decode()
            assert 'repro_formal_proofs_total{result="equivalent"} 1' in text
            assert 'repro_formal_proofs_total{result="counterexample"} 1' in text
            assert "repro_formal_conflicts_total 21" in text
        finally:
            reset_proof_stats()

    def test_formal_counters_present_when_idle(self, server):
        from repro.formal import reset_proof_stats

        reset_proof_stats()
        try:
            text = request(server, "/metrics")[2].decode()
            assert "repro_formal_proofs_total 0" in text
            assert "repro_formal_conflicts_total 0" in text
        finally:
            reset_proof_stats()
