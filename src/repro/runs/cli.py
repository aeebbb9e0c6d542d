"""``python -m repro.runs`` — plan / run / status / report for experiment sweeps.

Typical session (two shards filling one store, then a report)::

    export REPRO_RUN_DIR=runs/table4-quick
    python -m repro.runs plan --experiment table4 --scale quick
    python -m repro.runs run --shard 0/2 & python -m repro.runs run --shard 1/2; wait
    python -m repro.runs status
    python -m repro.runs report

``run`` is always safe to re-invoke: completed units are skipped, so a crashed
or killed sweep resumes where its journal ends.  Only ``run`` loads the check
engine; ``plan``, ``status`` and ``report`` read the manifest and journal.

Exit codes (``status`` is the scriptable health probe)::

    0  run complete, no quarantined units
    2  store/manifest error (missing directory, hash mismatch, ...)
    3  run incomplete (pending units remain)
    4  run has quarantined (poison) units — even if otherwise complete
"""

from __future__ import annotations

import argparse
import json
import sys

from .aggregate import StreamingAggregator
from .presets import EXPERIMENT_MANIFESTS
from .resolve import ManifestResolver
from .store import RUN_DIR_ENV, RunStore, RunStoreError


def status_summary(manifest, store, *, done: int, total: int) -> tuple[dict, int]:
    """Machine-readable run status plus the CLI's exit-code semantics.

    The payload is what ``python -m repro.runs status --json`` prints and what
    the service's readiness probe consumes; the exit code follows the PR 6
    contract (0 complete-healthy, 3 incomplete, 4 quarantined).
    """
    quarantined = [
        record
        for record in store.quarantined_records()
        if record.get("manifest") == manifest.manifest_hash
    ]
    warnings = store.warning_records()
    percent = 100.0 * done / total if total else 100.0
    payload = {
        "manifest_hash": manifest.manifest_hash,
        "name": manifest.name,
        "experiment": manifest.experiment,
        "completed_units": done,
        "total_units": total,
        "percent_complete": round(percent, 1),
        "complete": done >= total,
        "healthy": done >= total and not quarantined,
        "quarantined": [
            {
                "key": record.get("key"),
                "task": record.get("task"),
                "sample": record.get("sample"),
                "attempts": record.get("quarantine", {}).get("attempts"),
                "error": record.get("quarantine", {}).get("error"),
            }
            for record in quarantined
        ],
        "warnings": [
            {
                "category": record.get("warning", {}).get("category"),
                "message": record.get("warning", {}).get("message"),
            }
            for record in warnings
        ],
        "recovered_lines": store.recovered_lines,
    }
    if quarantined:
        exit_code = 4
    elif done < total:
        exit_code = 3
    else:
        exit_code = 0
    payload["exit_code"] = exit_code
    return payload, exit_code


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shard must look like i/n, got {text!r}")
    if count < 1 or not (0 <= index < count):
        raise argparse.ArgumentTypeError(f"invalid shard {text!r}")
    return index, count


def _scale_for(name: str):
    from ..experiments import ExperimentScale

    presets = {
        "tiny": ExperimentScale.tiny,
        "quick": ExperimentScale.quick,
        "paper": ExperimentScale.paper,
    }
    return presets[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runs",
        description="Resumable, shardable experiment sweeps over a persistent run store.",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help=f"run directory (default: ${RUN_DIR_ENV})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="write a manifest into the run directory")
    plan.add_argument("--experiment", required=True, choices=sorted(EXPERIMENT_MANIFESTS))
    plan.add_argument("--scale", default="quick", choices=("tiny", "quick", "paper"))
    plan.add_argument(
        "--baselines",
        default=None,
        help="comma-separated baseline keys (table4 only; default: all)",
    )
    plan.add_argument(
        "--no-haven",
        action="store_true",
        help="skip the fine-tuned HaVen models (table4 only)",
    )
    plan.add_argument(
        "--portions",
        default=None,
        help="comma-separated K/L percentages (fig4 only; default 0,50,100)",
    )

    run = commands.add_parser("run", help="execute pending units (resumable)")
    run.add_argument("--shard", type=_parse_shard, default=(0, 1), help="i/n disjoint shard")
    run.add_argument("--max-units", type=int, default=None, help="execute at most N units")

    status = commands.add_parser(
        "status",
        help="journal coverage + health (exit 0 ok, 3 incomplete, 4 quarantined)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of text "
        "(same exit codes; for readiness probes and external tooling)",
    )
    commands.add_parser("report", help="render the experiment from the journal so far")
    return parser


def _manifest_from_args(args) -> "RunManifest":
    builder = EXPERIMENT_MANIFESTS[args.experiment]
    scale = _scale_for(args.scale)
    kwargs = {}
    if args.experiment == "table4":
        if args.baselines is not None:
            kwargs["baseline_keys"] = [key for key in args.baselines.split(",") if key]
        kwargs["include_haven"] = not args.no_haven
    if args.experiment == "fig4" and args.portions is not None:
        kwargs["portions"] = tuple(int(p) for p in args.portions.split(",") if p)
    return builder(scale, **kwargs)


def _open_store(args) -> RunStore:
    store = RunStore.open(args.run_dir)
    if not store.persistent:
        raise RunStoreError("run store must be persistent for the CLI")
    return store


def _progress(manifest, store: RunStore) -> tuple[int, int]:
    """(journaled units of ``manifest``, total units), from its expansion."""
    return store.progress(manifest.expand(ManifestResolver(manifest).suite_task_ids()))


def _require_manifest(store: RunStore):
    manifest = store.load_manifest()
    if manifest is None:
        raise RunStoreError(
            f"no manifest in {store.directory}; run `plan` first"
        )
    return manifest


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        store = _open_store(args)
        if args.command == "plan":
            manifest = _manifest_from_args(args)
            store.write_manifest(manifest)
            done, total = _progress(manifest, store)
            print(f"manifest {manifest.manifest_hash[:12]} ({manifest.name}) -> {store.directory}")
            print(f"{total} work units planned, {done} already journaled")
            return 0
        manifest = _require_manifest(store)
        if args.command == "run":
            from .engine import RunEngine

            shard_index, shard_count = args.shard
            engine = RunEngine(manifest, store)
            stats = engine.run(
                shard_index=shard_index, shard_count=shard_count, max_units=args.max_units
            )
            print(
                f"shard {shard_index}/{shard_count}: executed {stats.executed} units, "
                f"skipped {stats.skipped} already journaled, "
                f"{stats.executed + stats.skipped}/{stats.total_units} of shard covered"
            )
            return 0
        if args.command == "status":
            done, total = _progress(manifest, store)
            payload, exit_code = status_summary(manifest, store, done=done, total=total)
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
                return exit_code
            print(f"manifest {manifest.manifest_hash[:12]} ({manifest.name})")
            print(
                f"{done}/{total} units journaled"
                f" ({payload['percent_complete']:.1f}% complete)"
            )
            for entry in payload["quarantined"]:
                print(
                    f"quarantined: {entry['task']} sample {entry['sample']}"
                    f" after {entry['attempts']} attempt(s): {entry['error']}"
                )
            for entry in payload["warnings"]:
                print(f"warning [{entry['category']}]: {entry['message']}")
            if store.recovered_lines:
                print(f"{store.recovered_lines} corrupted journal line(s) dropped on load")
            if payload["quarantined"]:
                print(f"{len(payload['quarantined'])} unit(s) quarantined", file=sys.stderr)
            return exit_code
        if args.command == "report":
            aggregator = StreamingAggregator(manifest).feed_store(store)
            progress = aggregator.progress()
            print(aggregator.report())
            print()
            print(
                f"[rendered from {progress.completed}/{progress.total} units "
                f"({progress.percent:.1f}% complete)]"
            )
            return 0
    except RunStoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0
