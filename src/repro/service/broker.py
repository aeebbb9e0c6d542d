"""Durable file-backed broker: submitted manifests → leased work units.

The broker owns a directory tree, one subtree per submitted run::

    <broker_dir>/runs/<run_id>/
        store/manifest.json     the submitted RunManifest (RunStore-managed)
        store/journal.jsonl     completed/quarantined units (RunStore journal)
        units.json              the manifest's deterministic unit expansion
        leases/<unit_key>       one live lease per in-flight unit
        events.jsonl            append-only requeue/complete/quarantine events
        journal.lock            completion mutex (flock) for exactly-once appends

``run_id`` is the manifest hash, so resubmitting the same manifest is
idempotent: the second submission joins the first run instead of duplicating
its work.  Completed units land in the ordinary :class:`~repro.runs.store.RunStore`
journal, so everything built on the journal — resume, sharding, the streaming
aggregators, ``python -m repro.runs status/report`` pointed at
``runs/<id>/store`` — works unchanged on a service-filled run.

Lease protocol (at-least-once by construction):

* a worker *leases* a batch of pending units — one lease file per unit, each
  an atomic hard link to the batch's one payload file, so exactly one worker
  wins each unit;
* the worker *heartbeats* its leases while executing (an atomic rewrite of
  one lease file extending its ``expires_at``; the rewrite replaces that
  file alone, so the rest of the batch keeps its own expiry);
* any broker client sweeps *expired* leases during :meth:`FileBroker.lease`
  — the unit requeues and the sweep is journaled as a ``requeue`` event (the
  ``/metrics`` requeue counter);
* *completion* journals a batch under one exclusive ``flock`` on
  ``journal.lock``: the broker's view of the journal is refreshed inside the
  lock — picking up every line another process appended — and the outcomes
  whose unit keys are still absent are appended in one write, so two workers
  racing a requeued unit yield exactly one journal record.  (Verdicts are
  deterministic and content-addressed, so the loser's discarded verdict is
  identical anyway.)

Each broker keeps one long-lived view per run: a :class:`RunStore` whose
:meth:`~repro.runs.store.RunStore.refresh` parses only the journal bytes
appended since its last read, the ``units.json`` expansion (written once,
atomically, never changed) and the event log, read the same tail-only way.
So a ``lease``, ``complete`` or status poll costs the new bytes, not the
whole run.  The HTTP server shares one broker across handler threads; a
per-run ``threading.Lock`` serialises each view's refreshes and appends.

Everything is stdlib-only.  ``fcntl`` is used for the completion lock where
available (POSIX); elsewhere completion degrades to lease-holder discipline
plus the journal's load-time key dedup — still at-least-once-safe, no longer
exactly-one-line.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

try:  # POSIX-only; the completion lock degrades gracefully without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..bench.jobs import CheckOutcome
from ..runs.manifest import RunManifest, WorkUnit
from ..runs.resolve import ManifestResolver
from ..runs.store import RunStore, quarantine_record, read_new_lines, unit_record

#: Environment variable naming the default broker directory.
BROKER_DIR_ENV = "REPRO_BROKER_DIR"

UNITS_FILENAME = "units.json"
EVENTS_FILENAME = "events.jsonl"
LOCK_FILENAME = "journal.lock"


class BrokerError(RuntimeError):
    """Raised on broker misuse (unknown run, corrupt run directory, ...)."""


class AdmissionError(BrokerError):
    """Raised when a submission would exceed the queued-unit admission limit."""

    def __init__(self, message: str, *, queued: int, incoming: int, limit: int):
        super().__init__(message)
        self.queued = queued
        self.incoming = incoming
        self.limit = limit


@dataclass(frozen=True)
class SubmitReceipt:
    """What :meth:`FileBroker.submit` did."""

    run_id: str
    total_units: int
    created: bool  # False when the manifest was already queued (idempotent)


@dataclass
class Lease:
    """One worker's claim on one work unit, valid until ``expires_at``."""

    run_id: str
    unit: WorkUnit
    worker_id: str
    expires_at: float
    path: Path


@dataclass(frozen=True)
class RunStatus:
    """Point-in-time accounting of one run's units."""

    run_id: str
    name: str
    experiment: str
    total: int
    completed: int  # scored units in the journal
    quarantined: int
    leased: int  # live (unexpired) leases on un-journaled units
    requeues: int  # lease-expiry requeue events so far

    @property
    def accounted(self) -> int:
        return self.completed + self.quarantined

    @property
    def pending(self) -> int:
        """Units neither journaled nor under a live lease (the queue depth)."""
        return max(0, self.total - self.accounted - self.leased)

    @property
    def complete(self) -> bool:
        return self.accounted >= self.total

    @property
    def healthy(self) -> bool:
        return self.complete and self.quarantined == 0

    @property
    def percent(self) -> float:
        return 100.0 * self.accounted / self.total if self.total else 100.0

    @property
    def exit_code(self) -> int:
        """The ``python -m repro.runs status`` exit-code semantics."""
        if self.quarantined:
            return 4
        if not self.complete:
            return 3
        return 0

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "name": self.name,
            "experiment": self.experiment,
            "total_units": self.total,
            "completed_units": self.completed,
            "quarantined_units": self.quarantined,
            "leased_units": self.leased,
            "pending_units": self.pending,
            "requeues": self.requeues,
            "percent_complete": round(self.percent, 1),
            "complete": self.complete,
            "healthy": self.healthy,
            "exit_code": self.exit_code,
        }


class _RunView:
    """One run's incrementally refreshed on-disk state, shared by threads."""

    def __init__(self, run_dir: Path):
        self.lock = threading.Lock()  # guards store/events refreshes and appends
        self.run_dir = run_dir
        self.leases_dir = run_dir / "leases"
        self.leases_dir.mkdir(exist_ok=True)
        self.events_path = run_dir / EVENTS_FILENAME
        self.lock_path = run_dir / LOCK_FILENAME
        self.store = RunStore(run_dir / "store")
        self.units = [
            WorkUnit.from_dict(entry)
            for entry in json.loads((run_dir / UNITS_FILENAME).read_text())
        ]
        self.events: list[dict] = []
        self.events_offset = 0
        #: Every unit before ``units[cursor]`` is journaled in the store
        #: generation ``cursor_generation`` (journals only grow within one).
        self.cursor = 0
        self.cursor_generation = self.store.generation

    def first_pending(self) -> int:
        """Advance the cursor past journaled units and return it; start over
        if the journal shrank (the store began a new generation).  Call
        with ``lock`` held, so no refresh runs mid-scan."""
        if self.cursor_generation != self.store.generation:
            self.cursor, self.cursor_generation = 0, self.store.generation
        cursor = self.cursor
        while cursor < len(self.units) and self.units[cursor].key in self.store:
            cursor += 1
        self.cursor = cursor
        return cursor


class FileBroker:
    """Durable broker over a directory tree; safe for concurrent processes
    and for the threads of one process."""

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        lease_ttl_s: float = 10.0,
        clock: Callable[[], float] = time.time,
    ):
        directory = directory or os.environ.get(BROKER_DIR_ENV)
        if not directory:
            raise BrokerError(
                f"no broker directory given and {BROKER_DIR_ENV} is not set"
            )
        self.directory = Path(directory)
        self.lease_ttl_s = float(lease_ttl_s)
        self._clock = clock
        (self.directory / "runs").mkdir(parents=True, exist_ok=True)
        self._views: dict[str, _RunView] = {}
        self._views_lock = threading.Lock()

    # ------------------------------------------------------------------ paths
    def _run_dir(self, run_id: str) -> Path:
        return self.directory / "runs" / run_id

    def store_dir(self, run_id: str) -> Path:
        """The run's :class:`RunStore` directory (journal + manifest)."""
        return self._run_dir(run_id) / "store"

    def _leases_dir(self, run_id: str) -> Path:
        return self._run_dir(run_id) / "leases"

    def _units_path(self, run_id: str) -> Path:
        return self._run_dir(run_id) / UNITS_FILENAME

    def _events_path(self, run_id: str) -> Path:
        return self._run_dir(run_id) / EVENTS_FILENAME

    # ------------------------------------------------------------------ submission
    def submit(
        self, manifest: RunManifest, *, admission_limit: int | None = None
    ) -> SubmitReceipt:
        """Queue a manifest's work units; idempotent per manifest hash.

        ``admission_limit`` caps the broker's total queued (pending) units:
        a *new* submission that would push the backlog past the limit raises
        :class:`AdmissionError` before anything is written.  Resubmission of
        an already-queued manifest is always admitted (it adds no work).
        """
        run_id = manifest.manifest_hash
        units_path = self._units_path(run_id)
        if units_path.exists():
            units = self.units(run_id)
            return SubmitReceipt(run_id=run_id, total_units=len(units), created=False)

        resolver = ManifestResolver(manifest)
        units = manifest.expand(resolver.suite_task_ids())
        if admission_limit is not None:
            queued = self.queue_depth()
            if queued + len(units) > admission_limit:
                raise AdmissionError(
                    f"queue full: {queued} unit(s) pending + {len(units)} submitted"
                    f" exceeds the {admission_limit}-unit admission limit",
                    queued=queued,
                    incoming=len(units),
                    limit=admission_limit,
                )

        run_dir = self._run_dir(run_id)
        self._leases_dir(run_id).mkdir(parents=True, exist_ok=True)
        RunStore(self.store_dir(run_id)).write_manifest(manifest)
        payload = [unit.to_dict() for unit in units]
        tmp = run_dir / f".{UNITS_FILENAME}.{uuid.uuid4().hex}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, units_path)  # atomic: units.json is never half-written
        self._events(self._events_path(run_id), [{"event": "submit", "units": len(units)}])
        return SubmitReceipt(run_id=run_id, total_units=len(units), created=True)

    # ------------------------------------------------------------------ introspection
    def run_ids(self) -> list[str]:
        """Queued run ids, oldest submission first (stable tiebreak by id)."""
        with os.scandir(self.directory / "runs") as entries:
            runs = [
                (entry.stat().st_mtime, entry.name)
                for entry in entries
                if entry.is_dir() and os.path.exists(os.path.join(entry.path, UNITS_FILENAME))
            ]
        return [name for _, name in sorted(runs)]

    def _view(self, run_id: str) -> _RunView:
        """The run's cached view, loaded in full on first use."""
        with self._views_lock:
            view = self._views.get(run_id)
            if view is None:
                if not self._units_path(run_id).exists():
                    raise BrokerError(f"unknown run {run_id!r}")
                view = _RunView(self._run_dir(run_id))
                self._views[run_id] = view
            return view

    def manifest(self, run_id: str) -> RunManifest:
        manifest = self._view(run_id).store.load_manifest()
        if manifest is None:
            raise BrokerError(f"unknown run {run_id!r}")
        return manifest

    def units(self, run_id: str) -> list[WorkUnit]:
        """The run's unit expansion, in deterministic expansion order."""
        return list(self._view(run_id).units)

    def store(self, run_id: str) -> RunStore:
        """The run's journal view, refreshed with every line appended since
        this broker last read it (by any process).

        The store is shared with this broker's other callers and threads:
        journal through :meth:`complete` and friends, not by appending to it.
        """
        view = self._view(run_id)
        with view.lock:
            view.store.refresh()
        return view.store

    # ------------------------------------------------------------------ leases
    def _read_lease(self, path: Path) -> dict | None:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def _scan_leases(
        self, run_id: str, store: RunStore, *, sweep: bool
    ) -> tuple[dict[str, dict], int]:
        """One pass over the lease files: (live leases, units requeued).

        Live = unit key → payload of each unexpired lease on an un-journaled
        unit.  With ``sweep``, the other files go: unreadable ones and those
        of already-journaled units are reaped silently (the normal end of a
        lease whose completion raced the sweep); expired leases on
        un-journaled units are deleted *and* journaled as ``requeue`` events
        — that unit goes back on the queue.
        """
        now = self._clock()
        live: dict[str, dict] = {}
        requeues: list[dict] = []
        view = self._view(run_id)
        for name in os.listdir(view.leases_dir):
            path = view.leases_dir / name
            payload = None if name in store else self._read_lease(path)
            if payload is None:
                if sweep:
                    self._unlink(path)
                continue
            if payload.get("expires_at", 0.0) > now:
                live[name] = payload
            elif sweep:
                self._unlink(path)
                requeues.append(
                    {"event": "requeue", "key": name, "worker": payload.get("worker", "")}
                )
        self._events(view.events_path, requeues)
        return live, len(requeues)

    def sweep_expired(self, run_id: str) -> int:
        """Requeue expired leases; returns how many units were requeued."""
        return self._scan_leases(run_id, self.store(run_id), sweep=True)[1]

    def lease(self, run_id: str, worker_id: str, limit: int = 1) -> list[Lease]:
        """Claim up to ``limit`` pending units for ``worker_id``.

        Pending = expanded units minus journaled (scored or quarantined)
        minus live-leased, in expansion order.  Expired leases are swept
        (requeued) in the same pass over the lease files that finds the live
        ones.  The batch's payload (``worker``, ``expires_at``) is written
        once, to a temporary file beside ``leases/``, and each claim is an
        atomic hard link from it to the unit's lease path, so concurrent
        workers never double-claim; a claim on a unit this broker's store
        journaled meanwhile is dropped.
        """
        if limit < 1:
            return []
        store = self.store(run_id)
        held, _ = self._scan_leases(run_id, store, sweep=True)
        view = self._view(run_id)
        expires_at = self._clock() + self.lease_ttl_s
        leases: list[Lease] = []
        # Units before the cursor are journaled: the scan starts at the first
        # pending one, not at index 0 on every call.
        with view.lock:
            start = view.first_pending()
        payload: Path | None = None  # written on the first claim attempt
        try:
            for unit in view.units[start:]:
                if len(leases) >= limit:
                    break
                key = unit.key
                if key in store or key in held:
                    continue
                if payload is None:
                    payload = self._write_lease_payload(view.run_dir, worker_id, expires_at)
                path = view.leases_dir / key
                try:
                    os.link(payload, path)  # atomic claim: EEXIST → another worker won
                except OSError:
                    continue
                if key in store:
                    # Another thread's completion journaled the unit and
                    # dropped its lease between the pending check above and
                    # this claim.
                    self._unlink(path)
                    continue
                leases.append(
                    Lease(
                        run_id=run_id,
                        unit=unit,
                        worker_id=worker_id,
                        expires_at=expires_at,
                        path=path,
                    )
                )
        finally:
            if payload is not None:
                self._unlink(payload)
        return leases

    @staticmethod
    def _write_lease_payload(run_dir: Path, worker_id: str, expires_at: float) -> Path:
        """A temporary lease payload file in ``run_dir``: outside ``leases/``,
        so lease scans never see it, and on its file system, so it can be
        hard-linked or renamed in."""
        tmp = run_dir / f".lease.{uuid.uuid4().hex}.tmp"
        data = json.dumps({"expires_at": expires_at, "worker": worker_id}, sort_keys=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, data.encode("utf-8"))
        finally:
            os.close(fd)
        return tmp

    def heartbeat(self, lease: Lease) -> bool:
        """Extend a lease's TTL; returns False when the lease was lost.

        The lease file is replaced, not rewritten in place, so the other
        leases hard-linked to the same batch payload keep their expiry.  A
        lost lease (expired and swept, or re-claimed by another worker)
        tells the holder to abandon the unit: whoever holds the journal lock
        at completion time still wins exactly once, so continuing is merely
        wasted work, not a correctness hazard.
        """
        payload = self._read_lease(lease.path)
        if payload is None or payload.get("worker") != lease.worker_id:
            return False
        expires_at = self._clock() + self.lease_ttl_s
        tmp = self._write_lease_payload(
            self._run_dir(lease.run_id), lease.worker_id, expires_at
        )
        os.replace(tmp, lease.path)
        lease.expires_at = expires_at
        return True

    def release(self, lease: Lease) -> None:
        """Drop a lease without completing it (the unit requeues immediately)."""
        self._unlink(lease.path)

    # ------------------------------------------------------------------ completion
    @contextmanager
    def _locked_store(self, run_id: str) -> Iterator[RunStore]:
        """The run's store, refreshed under the thread lock and the journal
        ``flock``: every other process's append is visible before ours."""
        view = self._view(run_id)
        with view.lock:
            fd = os.open(view.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                view.store.refresh()
                yield view.store
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)

    def complete(self, batch: Sequence[tuple[Lease, CheckOutcome]]) -> list[bool]:
        """Journal a batch of leased units' verdicts exactly once each and
        release their leases; one flag per ``(lease, outcome)`` pair.

        The batch (leases of one run) costs one completion lock, one journal
        write and one event-log write.  A flag is False when another worker
        already journaled that unit (its record wins; verdicts are
        deterministic so nothing is lost).
        """
        return self._journal(
            [
                (
                    lease,
                    unit_record(lease.unit, outcome),
                    {"duration_s": outcome.duration_s},
                )
                for lease, outcome in batch
            ],
            "complete",
        )

    def complete_quarantine(
        self,
        lease: Lease,
        *,
        attempts: int,
        error: str,
        degradation: tuple[str, ...] = (),
    ) -> bool:
        """Journal a leased unit as poison exactly once; release the lease."""
        record = quarantine_record(
            lease.unit, attempts=attempts, error=error, degradation=degradation
        )
        return self._journal([(lease, record, {})], "quarantine")[0]

    def _journal(self, entries: list[tuple[Lease, dict, dict]], kind: str) -> list[bool]:
        """Append ``(lease, journal record, event fields)`` entries under the
        completion lock, unlink their leases and log one ``kind`` event per
        unit journaled."""
        if not entries:
            return []
        run_id = entries[0][0].run_id
        if any(lease.run_id != run_id for lease, _, _ in entries):
            raise BrokerError("a completion batch holds the leases of one run")
        with self._locked_store(run_id) as store:
            recorded = store.append([record for _, record, _ in entries])
        for lease, _, _ in entries:
            self._unlink(lease.path)
        self._events(
            self._view(run_id).events_path,
            [
                {"event": kind, "key": lease.unit.key, "worker": lease.worker_id, **fields}
                for (lease, _, fields), fresh in zip(entries, recorded)
                if fresh
            ],
        )
        return recorded

    def record_warning(
        self, run_id: str, category: str, message: str, detail: Mapping | None = None
    ) -> bool:
        """Journal a degraded-execution warning under the completion lock."""
        with self._locked_store(run_id) as store:
            return store.record_warning(category, message, detail)

    # ------------------------------------------------------------------ events
    def _events(self, path: Path, records: list[dict]) -> None:
        """Append ``records`` to the event log at ``path`` in one write, all
        stamped with one ``ts``."""
        if not records:
            return
        ts = self._clock()
        data = "".join(
            json.dumps({**record, "ts": ts}, sort_keys=True, separators=(",", ":")) + "\n"
            for record in records
        )
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data.encode("utf-8"))
        finally:
            os.close(fd)

    def events(self, run_id: str) -> list[dict]:
        """The run's event log in append order (torn lines dropped).

        Only the lines appended since this broker's last read are parsed.
        """
        view = self._view(run_id)
        with view.lock:
            lines, offset, _ = read_new_lines(
                self._events_path(run_id), view.events_offset
            )
            if offset < view.events_offset:
                view.events = []  # the log shrank: these lines start from byte 0
            view.events_offset = offset
            for line in lines:
                try:
                    record = json.loads(line.decode("utf-8", errors="replace"))
                except ValueError:
                    continue
                if isinstance(record, dict) and "event" in record:
                    view.events.append(record)
            return list(view.events)

    # ------------------------------------------------------------------ status
    def run_status(self, run_id: str) -> RunStatus:
        """Read-only accounting of one run (does not sweep leases)."""
        manifest = self.manifest(run_id)
        store = self.store(run_id)
        keys = [unit.key for unit in self._view(run_id).units]
        quarantined = sum(
            1
            for record in store.quarantined_records()
            if record.get("manifest") == manifest.manifest_hash
        )
        completed = sum(1 for key in keys if key in store) - quarantined
        leased = len(self._scan_leases(run_id, store, sweep=False)[0])
        requeues = sum(1 for event in self.events(run_id) if event["event"] == "requeue")
        return RunStatus(
            run_id=run_id,
            name=manifest.name,
            experiment=manifest.experiment,
            total=len(keys),
            completed=max(0, completed),
            quarantined=quarantined,
            leased=leased,
            requeues=requeues,
        )

    def queue_depth(self) -> int:
        """Pending (neither journaled nor live-leased) units across all runs."""
        return sum(self.run_status(run_id).pending for run_id in self.run_ids())

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
