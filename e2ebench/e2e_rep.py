"""One repetition of a workload, in a fresh interpreter.

    python3 e2ebench/e2e_rep.py --workload table4-sim --seed 0 --trace 0 \
        --spawned-at <the parent's time.monotonic()> --work-dir DIR [--spans FILE]

``run.py`` starts one per repetition and passes the monotonic time at which
it spawned this interpreter, so set-up time includes interpreter start and
imports.  The repetition writes ``result.json`` into ``--work-dir``: its
end-to-end metrics, unit counts, the output check and, when traced, the
per-layer rows and metrics.  A traced repetition also writes its spans to
``--spans``.

Local workloads run ``RunEngine`` into an in-memory store and render the
report with ``StreamingAggregator``.  ``service-queue`` is a closed-loop HTTP
client of a ``serve`` process and one ``worker`` process (``e2e_service.py``)
that share a broker directory inside ``--work-dir``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import e2e_layers
import e2e_workloads as workloads
from e2e_trace import SpanRecorder, self_times

HERE = Path(__file__).resolve().parent
#: Service client: status poll interval and /metrics scrape interval.
POLL_S = 0.1
SCRAPE_S = 1.0
#: Longest a service repetition waits for its run to complete.
SERVICE_TIMEOUT_S = 150.0
#: The closed-loop client must never meet the per-client rate limiter.
SERVE_OPTIONS = ["--port", "0", "--rate", "1000", "--burst", "1000"]
#: The served report ends with this progress footer.
REPORT_FOOTER = "\n[rendered from "
#: Renders of the finished report per repetition; report_s is the fastest.
REPORT_RENDERS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(path: Path | None, payload: dict) -> None:
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def journal_facts(records: list[dict]) -> dict:
    """Unit counts and SAT conflicts read back from the journal."""
    scored = [record for record in records if record.get("kind", "unit") == "unit"]
    quarantined = sum(1 for record in records if record.get("kind") == "quarantine")
    return {
        "journaled": len(scored) + quarantined,
        "quarantined": quarantined,
        # Only compiled code reaches the checks, so quarantined units compiled.
        "compiled_units": quarantined + sum(1 for r in scored if r["outcome"]["syntax_ok"]),
        "conflicts": sum(
            int(r["outcome"].get("proof_stats", {}).get("conflicts", 0)) for r in scored
        ),
    }


def summarize(
    args,
    timings: dict,
    records: list[dict],
    expected: int,
    *,
    report: str | None = None,
    http_errors: int = 0,
    requeues: int = 0,
    trace: dict | None = None,
) -> dict:
    """The repetition's result record: metrics, counts and the output check."""
    facts = journal_facts(records)
    correct, detail, disagreements = workloads.check_against_reference(
        args.workload,
        args.seed,
        workloads.unit_verdicts(records),
        workloads.load_reference(args.reference),
        report,
    )
    if facts["journaled"] != expected:
        correct, detail = False, f"{facts['journaled']} of {expected} units journaled"
    facts.update(
        http_errors=http_errors,
        requeues=requeues,
        report_s=timings["report_s"],
        unit_fail_ratio=(facts["quarantined"] + http_errors) / expected,
        verdict_disagreements=disagreements,
    )
    result = {
        "metrics": {
            "setup_s": timings["setup_s"],
            "wall_s": timings["wall_s"],
            "units_per_s": facts["journaled"] / timings["exec_s"],
            "report_s": timings["report_s"],
            "peak_rss_mb": timings["peak_rss_mb"],
            "unit_fail_ratio": facts["unit_fail_ratio"],
            "verdict_disagreements": disagreements,
        },
        "run_s": timings["setup_s"] + timings["wall_s"],
        "expected_units": expected,
        "journaled": facts["journaled"],
        "quarantined": facts["quarantined"],
        "http_errors": http_errors,
        "correct": correct,
        "detail": detail,
    }
    if trace is not None:
        result["layer_rows"] = trace["rows"]
        result["layer_metrics"] = e2e_layers.layer_metrics(
            trace["rows"], trace["counters"], trace["samples"], facts
        )
    return result


# --------------------------------------------------------------------------- local
def run_local(args) -> dict:
    """RunEngine → StreamingAggregator in this process."""
    from repro.runs.aggregate import StreamingAggregator
    from repro.runs.engine import RunEngine
    from repro.runs.resolve import ManifestResolver
    from repro.runs.store import RunStore

    recorder = SpanRecorder()
    if args.trace:
        e2e_layers.install_layers(recorder)
    manifest = workloads.manifest_for(args.workload, args.seed, args.size)
    store = RunStore.ephemeral()
    resolver = ManifestResolver(manifest)
    engine = RunEngine(manifest, store, resolver)
    expected = len(engine.units())
    # Datasets, fine-tuning and suites are built before the first unit runs.
    for spec in manifest.profiles:
        resolver.pipeline(spec.profile_id)
    started = time.monotonic()
    engine.run()
    executed = time.monotonic()
    StreamingAggregator(manifest, resolver).feed_store(store).report()
    reported = time.monotonic()
    trace = None
    if args.trace:
        e2e_layers.record_process_stats(recorder)
        recorder.restore()
        write_spans(args.spans, {"repetition": recorder.payload()})
        trace = {
            "rows": self_times(recorder.spans),
            "counters": recorder.counters,
            "samples": recorder.samples,
        }
    # report_s is the fastest of several renders (untraced after the first):
    # one render takes milliseconds, and a collection of the garbage
    # collector's oldest generation lands in some renders and takes longer.
    renders = [reported - executed]
    for _ in range(REPORT_RENDERS - 1):
        render_started = time.monotonic()
        StreamingAggregator(manifest, resolver).feed_store(store).report()
        renders.append(time.monotonic() - render_started)
    timings = {
        "setup_s": started - args.spawned_at,
        "exec_s": executed - started,
        "report_s": min(renders),
        "wall_s": reported - started,
        "peak_rss_mb": peak_rss_mb(),
    }
    return summarize(args, timings, list(store.records()), expected, trace=trace)


# --------------------------------------------------------------------------- service
class _Client:
    """Closed-loop HTTP client: one request in flight at a time, each timed."""

    def __init__(self, url: str):
        self.url = url
        self.errors = 0
        # The server is local: never send its traffic to a configured proxy.
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def request(self, path: str, body: bytes | None = None) -> tuple[int, bytes, float]:
        request = urllib.request.Request(
            self.url + path,
            data=body,
            headers={"X-Client-Id": "e2ebench", "Content-Type": "application/json"},
        )
        started = time.monotonic()
        try:
            with self._opener.open(request, timeout=30) as response:
                code, payload = response.status, response.read()
        except urllib.error.HTTPError as error:
            code, payload = error.code, error.read()
        elapsed = time.monotonic() - started
        if code >= 300:
            self.errors += 1
        return code, payload, elapsed


def _spawn(role: str, args, log) -> subprocess.Popen:
    command = [
        sys.executable,
        str(HERE / "e2e_service.py"),
        role,
        "--broker",
        str(args.work_dir / "broker"),
        "--result",
        str(args.work_dir / f"{role}.json"),
        "--trace",
        str(args.trace),
    ]
    if role == "serve":
        command += SERVE_OPTIONS
    return subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)


def _await_url(log_path: Path, server: subprocess.Popen, timeout_s: float = 60.0) -> str:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for line in log_path.read_text(errors="replace").splitlines(keepends=True):
            if line.startswith("listening on ") and line.endswith("\n"):
                return line.split()[-1]
        if server.poll() is not None:
            raise RuntimeError(f"the server exited with code {server.returncode}")
        time.sleep(0.01)
    raise TimeoutError("the server did not start listening")


def _poll_until_complete(
    client: _Client, run_id: str, worker: subprocess.Popen, samples: dict
) -> dict:
    deadline = time.monotonic() + SERVICE_TIMEOUT_S
    next_scrape = time.monotonic()
    while True:
        code, payload, elapsed = client.request(f"/runs/{run_id}")
        samples["service.api.poll_ms"].append(1000.0 * elapsed)
        if code == 200:
            status = json.loads(payload)
            if status["complete"]:
                return status
        now = time.monotonic()
        if now >= next_scrape:
            _code, _payload, elapsed = client.request("/metrics")
            samples["service.api.scrape_ms"].append(1000.0 * elapsed)
            next_scrape = now + SCRAPE_S
        if worker.poll() not in (None, 0):
            raise RuntimeError(f"the worker exited with code {worker.returncode}")
        if now > deadline:
            raise TimeoutError(f"the run did not complete within {SERVICE_TIMEOUT_S:g}s")
        time.sleep(POLL_S)


def _stop(process: subprocess.Popen, grace_s: float = 10.0) -> None:
    """SIGTERM, then SIGKILL after ``grace_s``; returns once the process has ended."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def run_service(args) -> dict:
    """Submit over HTTP to a serve process with one worker process; poll; fetch the report."""
    from repro.service.broker import FileBroker

    manifest = workloads.manifest_for("service-queue", args.seed, args.size)
    body = json.dumps(manifest.to_dict()).encode("utf-8")
    samples: dict[str, list[float]] = {"service.api.poll_ms": [], "service.api.scrape_ms": []}
    processes: list[subprocess.Popen] = []
    with open(args.work_dir / "serve.log", "w") as serve_log, open(
        args.work_dir / "worker.log", "w"
    ) as worker_log:
        try:
            server = _spawn("serve", args, serve_log)
            processes.append(server)
            client = _Client(_await_url(args.work_dir / "serve.log", server))
            # The worker is up before the submission, as a running fleet is.
            worker = _spawn("worker", args, worker_log)
            processes.append(worker)
            posted = time.monotonic()
            code, payload, _elapsed = client.request("/runs", body)
            if code not in (200, 201):
                raise RuntimeError(f"POST /runs answered {code}: {payload[:200]!r}")
            receipt = json.loads(payload)
            status = _poll_until_complete(client, receipt["run_id"], worker, samples)
            code, payload, first_report_s = client.request(receipt["report_url"])
            reported = time.monotonic()
            if code != 200:
                raise RuntimeError(f"GET {receipt['report_url']} answered {code}")
            # The idle worker exits by itself; its teardown (and, traced, the
            # dump of its spans) is not the service's time, so it is waited
            # for only after wall_s ends.
            worker.wait(timeout=60)
            # As for local renders, report_s is the fastest of several: the
            # server re-reads the journal and renders the report on every GET.
            report_s = min(
                [first_report_s]
                + [
                    client.request(receipt["report_url"])[2]
                    for _ in range(REPORT_RENDERS - 1)
                ]
            )
        finally:
            for process in processes:
                _stop(process)
    worker_result = _read_json(args.work_dir / "worker.json")
    served = payload.decode("utf-8")
    head, footer, _progress = served.rpartition(REPORT_FOOTER)
    trace = None
    if args.trace:
        traces = {
            role: _read_json(args.work_dir / f"{role}.json").get("trace", {})
            for role in ("worker", "serve")
        }
        write_spans(args.spans, traces)
        counters: dict[str, float] = {}
        for process_trace in traces.values():
            for name, value in process_trace.get("counters", {}).items():
                counters[name] = counters.get(name, 0.0) + value
            for name, values in process_trace.get("samples", {}).items():
                samples.setdefault(name, []).extend(values)
        trace = {
            "rows": e2e_layers.merge_rows(
                *(self_times(process_trace.get("spans", [])) for process_trace in traces.values())
            ),
            "counters": counters,
            "samples": samples,
        }
    first = worker_result["stamps"]["first_execute"]
    last = worker_result["stamps"]["last_complete"]
    timings = {
        "setup_s": first - args.spawned_at,
        "exec_s": last - first,
        "report_s": report_s,
        "wall_s": reported - posted,
        "peak_rss_mb": worker_result["peak_rss_mb"],
    }
    records = list(FileBroker(args.work_dir / "broker").store(receipt["run_id"]).records())
    return summarize(
        args,
        timings,
        records,
        receipt["total_units"],
        report=head if footer else served,
        http_errors=client.errors,
        requeues=status["requeues"],
        trace=trace,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--size", choices=("quick", "tiny"), default="quick")
    parser.add_argument("--reference", type=Path, default=workloads.REFERENCE_PATH)
    args = parser.parse_args(argv)
    run = run_service if args.workload == "service-queue" else run_local
    result = run(args)
    (args.work_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
