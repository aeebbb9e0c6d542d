"""Benchmark-owned entry point for the service's server and worker processes.

    python3 e2ebench/e2e_service.py serve  --broker DIR --result FILE --trace 0|1 [serve options]
    python3 e2ebench/e2e_service.py worker --broker DIR --result FILE --trace 0|1 [worker options]

Each role runs the real ``python -m repro.service`` subcommand in this
process.  With ``--trace 1`` the layer wrappers go in first, so the spans come
from the process that does the work.  The worker waits for the first queued
run, drains the broker (``--exit-when-idle``) and stamps when it began
executing units and when it journaled the last one; the server serves until
SIGTERM.  On exit both write their spans, counters, stamps and peak resident
memory to ``--result``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import time
from pathlib import Path

import e2e_layers
from e2e_trace import SpanRecorder

#: Longest the worker waits for the client to submit a run.
RUN_WAIT_S = 120.0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _stamped_completion(complete, stamps: dict):
    @functools.wraps(complete)
    def stamped(*args, **kwargs):
        try:
            return complete(*args, **kwargs)
        finally:
            stamps["last_complete"] = time.monotonic()

    return stamped


def _stamp_worker(recorder: SpanRecorder, stamps: dict) -> None:
    """Record when units start executing and when the last one is journaled."""
    from repro.runs.engine import RunEngine
    from repro.service.broker import FileBroker

    execute = RunEngine.execute_units

    @functools.wraps(execute)
    def execute_units(self, *args, **kwargs):
        stamps.setdefault("first_execute", time.monotonic())
        return execute(self, *args, **kwargs)

    recorder.patch(RunEngine, "execute_units", execute_units)
    for attr in ("complete", "complete_quarantine"):
        recorder.patch(FileBroker, attr, _stamped_completion(getattr(FileBroker, attr), stamps))


def _wait_for_run(broker_dir: str) -> None:
    from repro.service.broker import FileBroker

    broker = FileBroker(broker_dir)
    deadline = time.monotonic() + RUN_WAIT_S
    while not broker.run_ids():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no run was submitted within {RUN_WAIT_S:g}s")
        time.sleep(0.01)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("role", choices=("serve", "worker"))
    parser.add_argument("--broker", required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args(argv)

    from repro.service import cli

    recorder = SpanRecorder()
    stamps: dict[str, float] = {}
    code = 1
    try:
        if args.role == "serve":
            signal.signal(signal.SIGTERM, _interrupt)
        if args.trace:
            e2e_layers.install_layers(recorder)
        if args.role == "worker":
            _stamp_worker(recorder, stamps)
            _wait_for_run(args.broker)
            command = ["--broker", args.broker, "worker", "--exit-when-idle", *extra]
        else:
            command = ["--broker", args.broker, "serve", *extra]
        code = cli.main(command)
    finally:
        if args.trace:
            e2e_layers.record_process_stats(recorder)
        recorder.restore()
        payload = {
            "code": code,
            "stamps": stamps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trace": recorder.payload(),
        }
        args.result.write_text(json.dumps(payload, separators=(",", ":")))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
