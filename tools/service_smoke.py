"""Service smoke: real processes, a killed worker, an exact requeue count.

The CI ``service-smoke`` job (and ``make service-smoke``) runs this script.
It boots the HTTP API and a worker as real subprocesses, submits a tiny
manifest over HTTP, SIGKILLs the worker while the ``REPRO_SERVICE_STALL_S``
fault hook has it frozen holding leases, and lets a second worker finish the
run.  It then submits a second tiny manifest and drains it with two worker
processes at once, each keeping its own incrementally refreshed view of the
shared journal.  It asserts the service contract:

* every lease the dead worker held expired and was requeued — exactly that
  many ``requeue`` events, no more;
* both runs completed healthy, and every unit of the two-worker run has
  exactly one journal line and exactly one ``complete`` event;
* ``/metrics`` parses and reports the exact requeue count and a nonzero
  units/s throughput.

Exit code 0 on success; any broken assertion or timeout fails the job.  The
broker tree lives in a temporary directory that is removed either way; on a
failure its path is printed first.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEASE_TTL_S = 2.0
STALLED_LEASES = 2


def log(message: str) -> None:
    print(f"[service-smoke] {message}", flush=True)


def service_cmd(broker_dir: Path, *args: str) -> list[str]:
    return [sys.executable, "-m", "repro.service", "--broker", str(broker_dir), *args]


def service_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_SERVICE_STALL_S", None)
    env.update(extra)
    return env


def wait_for(predicate, *, timeout_s: float, what: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise TimeoutError(f"timed out after {timeout_s}s waiting for {what}")


def http_json(url: str, data: bytes | None = None) -> dict:
    with urllib.request.urlopen(
        urllib.request.Request(url, data=data), timeout=15
    ) as response:
        return json.load(response)


def submit_tiny_table4(base_url: str, baseline_key: str) -> tuple[str, int]:
    """Submit a one-baseline tiny Table IV manifest over HTTP: (run id, units)."""
    build = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json\n"
            "from repro.experiments import ExperimentScale\n"
            "from repro.runs.presets import table4_manifest\n"
            "manifest = table4_manifest(ExperimentScale.tiny(),"
            f" baseline_keys=[{baseline_key!r}], include_haven=False)\n"
            "print(json.dumps(manifest.to_dict()))",
        ],
        env=service_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    receipt = http_json(base_url + "/runs", data=build.stdout.encode())
    return receipt["run_id"], receipt["total_units"]


def worker_cmd(broker_dir: Path, *args: str) -> list[str]:
    return service_cmd(broker_dir, "worker", "--lease-ttl", str(LEASE_TTL_S), *args)


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    broker_dir = scratch / "broker"
    procs: list[subprocess.Popen] = []
    passed = False
    try:
        # --- boot the API server and parse its ephemeral port -------------
        server = subprocess.Popen(
            service_cmd(broker_dir, "serve", "--port", "0", "--lease-ttl", str(LEASE_TTL_S)),
            env=service_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        procs.append(server)
        banner = server.stdout.readline().strip()
        match = re.search(r"listening on (http://\S+)", banner)
        assert match, f"unexpected server banner: {banner!r}"
        base_url = match.group(1)
        log(f"server up at {base_url}")

        # --- submit a tiny manifest over HTTP ------------------------------
        run_id, total = submit_tiny_table4(base_url, "gpt-4")
        log(f"submitted run {run_id[:12]}: {total} units")
        assert total > STALLED_LEASES

        # --- a worker leases units, then plays dead ------------------------
        victim = subprocess.Popen(
            worker_cmd(broker_dir, "--lease-limit", str(STALLED_LEASES)),
            env=service_env(REPRO_SERVICE_STALL_S="300"),
        )
        procs.append(victim)
        leases_dir = broker_dir / "runs" / run_id / "leases"
        held = wait_for(
            lambda: (
                sorted(path.name for path in leases_dir.iterdir())
                if leases_dir.is_dir()
                and len(list(leases_dir.iterdir())) >= STALLED_LEASES
                else None
            ),
            timeout_s=90,
            what="the victim worker to acquire its leases",
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        log(f"killed worker holding {len(held)} leases")

        # --- a survivor sweeps the corpses and drains the run --------------
        survivor = subprocess.Popen(
            worker_cmd(broker_dir, "--exit-when-idle"), env=service_env()
        )
        procs.append(survivor)
        assert survivor.wait(timeout=600) == 0, "survivor worker failed"

        status = http_json(f"{base_url}/runs/{run_id}")
        log(
            f"run finished: {status['completed_units']}/{status['total_units']}"
            f" units, {status['requeues']} requeues"
        )
        assert status["complete"], f"run incomplete: {status}"
        assert status["healthy"], f"run unhealthy: {status}"
        assert status["completed_units"] == total
        assert status["requeues"] == len(held), (
            f"expected exactly {len(held)} requeues, saw {status['requeues']}"
        )

        # --- two workers drain a second run at once -------------------------
        pair_id, pair_total = submit_tiny_table4(base_url, "gpt-3.5")
        log(f"submitted run {pair_id[:12]}: {pair_total} units for two workers")
        pair = [
            subprocess.Popen(worker_cmd(broker_dir, "--exit-when-idle"), env=service_env())
            for _ in range(2)
        ]
        procs.extend(pair)
        for worker in pair:
            assert worker.wait(timeout=600) == 0, "a two-worker drain worker failed"
        pair_status = http_json(f"{base_url}/runs/{pair_id}")
        assert pair_status["healthy"], f"two-worker run unhealthy: {pair_status}"
        assert pair_status["completed_units"] == pair_total
        journal = broker_dir / "runs" / pair_id / "store" / "journal.jsonl"
        keys = [json.loads(line)["key"] for line in journal.read_text().splitlines()]
        assert len(keys) == len(set(keys)) == pair_total, (
            f"{len(keys)} journal lines for {len(set(keys))} keys,"
            f" expected {pair_total} units journaled exactly once"
        )
        events = broker_dir / "runs" / pair_id / "events.jsonl"
        completes = [
            record["key"]
            for record in map(json.loads, events.read_text().splitlines())
            if record["event"] == "complete"
        ]
        assert sorted(completes) == sorted(keys), (
            f"{len(completes)} complete events for {len(set(completes))} keys,"
            f" expected one per each of the {pair_total} journaled units"
        )
        log(
            f"two-worker drain: {pair_total} units, each journaled exactly once"
            " with one complete event"
        )

        # --- the metrics endpoint agrees -----------------------------------
        with urllib.request.urlopen(base_url + "/metrics", timeout=15) as response:
            metrics = response.read().decode()
        requeue_line = f'repro_lease_requeues_total{{run="{run_id[:12]}"}} {len(held)}'
        assert requeue_line in metrics, f"missing {requeue_line!r} in /metrics"
        rate = [
            float(line.split()[-1])
            for line in metrics.splitlines()
            if line.startswith("repro_units_per_second")
        ]
        assert rate and rate[0] > 0, f"units/s not positive: {rate}"
        log(f"metrics ok: {requeue_line}; units/s={rate[0]}")
        log("PASS")
        passed = True
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if not passed:
            log(f"FAIL: removing the broker tree {broker_dir}")
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
