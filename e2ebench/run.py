"""End-to-end benchmark of whole experiments: Table IV, Table V and a service queue.

    python3 e2ebench/run.py --workload table4-sim --seed 0 --seconds 20 --trace 0
    python3 e2ebench/run.py --all [--seed 0] [--seconds 20]

Each repetition runs in a fresh interpreter (``e2e_rep.py``) with its own
temporary directory, so it pays the cold caches a user pays on every run.
With ``--trace 0`` repetitions repeat until ``--seconds`` have passed; the
command prints every end-to-end metric with its unit, median, quartiles and
sample count, and as its last line one JSON object with the medians.  With
``--trace 1`` one untraced repetition, the baseline of the tracing overhead,
is followed by traced ones; the breakdown and the JSON then carry the
per-layer metrics.  ``--all`` measures every workload untraced and then
traced and prints both breakdowns.  The exit code is 1 when an output check
fails or a repetition crashes, 2 when the program's sources are missing.
WORKLOADS.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from e2e_layers import LAYER_METRICS, LAYERS
from e2e_workloads import REFERENCE_PATH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A single-workload invocation ends within this many seconds.
BUDGET_S = 170.0
#: Inherited settings that would warm caches, redirect stores or inject faults.
SCRUBBED_ENV = (
    "REPRO_DESIGN_CACHE",
    "REPRO_RUN_DIR",
    "REPRO_FAULTS",
    "REPRO_SERVICE_STALL_S",
    "REPRO_BROKER_DIR",
)
#: End-to-end metric → unit; the JSON of an untraced invocation carries these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with them, but listed in BENCHMARK.json as per-layer metrics, which
#: carry no regression bound: report_s takes milliseconds, so on a shared
#: two-core host it spread by a quarter between invocations, and the other two
#: are 0 on a healthy workload.
ALSO_PRINTED = {"report_s": "s", "unit_fail_ratio": "ratio", "verdict_disagreements": "count"}


class RepetitionFailed(RuntimeError):
    """A repetition crashed or overran the time budget."""


def host_info() -> dict:
    """Python version, CPU count and git revision, recorded beside the numbers."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never report the revision of a repository that merely contains the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = completed.stdout.strip() if completed.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "platform": platform.platform(),
    }


def child_env(work_dir: Path) -> dict:
    env = {name: value for name, value in os.environ.items() if name not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work_dir)
    return env


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_repetition(
    workload: str, seed: int, traced: bool, args, deadline: float | None
) -> dict:
    """One repetition in a fresh interpreter; returns its result record."""
    tmp_root = args.out_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    command = [
        sys.executable,
        str(HERE / "e2e_rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--size", args.size,
        "--reference", str(args.reference),
        "--work-dir", str(work_dir),
        "--spans", str(args.out_dir / f"{workload}-spans.json"),
    ]
    try:
        spawned = time.monotonic()
        process = subprocess.Popen(
            [*command, "--spawned-at", repr(spawned)],
            cwd=ROOT,
            env=child_env(work_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        try:
            output, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(process)
            process.communicate()
            raise RepetitionFailed(f"{workload}: a repetition overran the time budget") from None
        finally:
            # Whatever a crashed repetition left behind (service processes) dies too.
            _kill_group(process)
        if process.returncode != 0:
            tail = output.decode("utf-8", errors="replace")[-3000:]
            raise RepetitionFailed(
                f"{workload}: a repetition exited with code {process.returncode}\n{tail}"
            )
        return {"seed": seed, **json.loads((work_dir / "result.json").read_text())}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload: str, traced: bool, args, deadline: float | None) -> tuple[list, list]:
    """(untraced, traced) repetitions of one workload over ``args.seconds``.

    Every repetition runs ``args.seed``, so the inputs an invocation covers
    do not depend on how fast the program is; runs on other inputs are other
    invocations.  A traced invocation starts with one untraced repetition,
    the baseline of the tracing overhead.  No repetition starts once the time
    left before ``deadline`` is under the longest one so far.
    """
    started = time.monotonic()
    plain: list[dict] = []
    traced_reps: list[dict] = []
    longest = 0.0
    while True:
        begun = time.monotonic()
        if traced and plain:
            traced_reps.append(run_repetition(workload, args.seed, True, args, deadline))
        else:
            plain.append(run_repetition(workload, args.seed, False, args, deadline))
        now = time.monotonic()
        longest = max(longest, now - begun)
        if traced and not traced_reps:
            continue
        if now - started >= args.seconds:
            break
        if deadline is not None and now + 1.2 * longest > deadline:
            break
    return plain, traced_reps


def describe(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def outputs_ok(workload: str, reps: list[dict]) -> bool:
    failures = [rep["detail"] for rep in reps if not rep["correct"]]
    for detail in failures:
        print(f"{workload}: output check failed: {detail}", file=sys.stderr)
    return not failures


def print_end_to_end(workload: str, reps: list[dict]) -> None:
    print(f"\n== {workload}: end to end, {len(reps)} untraced repetition(s), seed {reps[0]['seed']} ==")
    print(f"{'metric':<24}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, unit in {**END_TO_END, **ALSO_PRINTED}.items():
        values = [rep["metrics"][name] for rep in reps]
        median, q1, q3 = describe(values)
        print(f"{name:<24}{unit:>6}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}")


def layer_values(plain: list[dict], traced_reps: list[dict]) -> dict:
    """Per-layer metric medians over the traced repetitions, with their units."""
    traced_wall = statistics.median(rep["metrics"]["wall_s"] for rep in traced_reps)
    plain_wall = statistics.median(rep["metrics"]["wall_s"] for rep in plain)
    values = {}
    for name, (unit, _better) in LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            value = traced_wall / plain_wall
        else:
            value = statistics.median(rep["layer_metrics"][name] for rep in traced_reps)
        values[name] = {"value": value, "unit": unit}
    return values


def print_layers(workload: str, traced_reps: list[dict], values: dict) -> None:
    shown = sorted(traced_reps, key=lambda rep: rep["run_s"])[len(traced_reps) // 2]
    run_s = shown["run_s"]
    rows = shown["layer_rows"]
    print(f"\n== {workload}: traced layers, {len(traced_reps)} traced repetition(s) ==")
    print(
        f"traced run {run_s:.4f} s (set-up + wall); tracing overhead"
        f" {values['trace.overhead_ratio']['value']:.3f}x (traced wall / untraced median wall)"
    )
    print(f"{'layer':<30}{'calls':>10}{'self_s':>12}{'share':>9}")
    accounted = 0.0
    for layer in LAYERS:
        calls, seconds = rows.get(layer, (0, 0.0))
        if not calls:
            continue
        accounted += seconds
        print(f"{layer:<30}{calls:>10}{seconds:>12.4f}{seconds / run_s:>9.1%}")
    remainder = run_s - accounted
    print(f"{'(untraced remainder)':<30}{'':>10}{remainder:>12.4f}{remainder / run_s:>9.1%}")
    print(f"{'traced run':<30}{'':>10}{run_s:>12.4f}{1.0:>9.1%}")
    print(f"\n{'per-layer metric':<40}{'unit':>6}{'median':>14}")
    for name, metric in values.items():
        print(f"{name:<40}{metric['unit']:>6}{metric['value']:>14.6g}")


def save_record(args, host: dict, workload: str, plain: list, traced_reps: list) -> None:
    record = {
        "host": host,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "untraced": plain,
        "traced": traced_reps,
    }
    path = args.out_dir / f"{workload}-trace{int(bool(traced_reps))}.json"
    path.write_text(json.dumps(record, indent=1))


def result_line(correct: bool, reps: list[dict], metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": sum(rep["expected_units"] for rep in reps),
            # Units that got no journal record or were quarantined, and failed
            # HTTP requests: the numerator of unit_fail_ratio, plus lost units.
            "failed": sum(
                rep["expected_units"] - rep["journaled"] + rep["quarantined"] + rep["http_errors"]
                for rep in reps
            ),
            "metrics": metrics,
        }
    )


def run_one(args, host: dict) -> int:
    plain, traced_reps = measure(
        args.workload, bool(args.trace), args, time.monotonic() + BUDGET_S
    )
    reps = plain + traced_reps
    correct = outputs_ok(args.workload, reps)
    print_end_to_end(args.workload, plain)
    if args.trace:
        metrics = layer_values(plain, traced_reps)
        print_layers(args.workload, traced_reps, metrics)
    else:
        metrics = {
            name: {
                "value": statistics.median(rep["metrics"][name] for rep in plain),
                "unit": unit,
            }
            for name, unit in END_TO_END.items()
        }
    save_record(args, host, args.workload, plain, traced_reps)
    print(result_line(correct, reps, metrics))
    return 0 if correct else 1


def run_all(args, host: dict) -> int:
    correct = True
    for workload in WORKLOADS:
        plain, _ = measure(workload, False, args, None)
        traced_reps = [run_repetition(workload, args.seed, True, args, None)]
        correct = outputs_ok(workload, plain + traced_reps) and correct
        print_end_to_end(workload, plain)
        print_layers(workload, traced_reps, layer_values(plain, traced_reps))
        save_record(args, host, workload, plain, traced_reps)
    print(f"\noutput checks: {'passed' if correct else 'FAILED'}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("quick", "tiny"), default="quick", help="tiny: for the harness tests"
    )
    parser.add_argument("--reference", type=Path, default=REFERENCE_PATH)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".e2ebench_out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({ROOT / 'src' / 'repro'}) are missing", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    host = host_info()
    print(f"host: python {host['python']}, nproc {host['nproc']}, git {host['git_sha']}")
    try:
        return run_all(args, host) if args.all else run_one(args, host)
    except RepetitionFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
