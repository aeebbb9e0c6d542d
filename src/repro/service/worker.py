"""The worker fleet: lease → execute → journal, heartbeating all the while.

A :class:`ServiceWorker` is one member of the fleet (``python -m repro.service
worker`` runs one per process).  Its loop:

1. walk the broker's queued runs and :meth:`~repro.service.broker.FileBroker.lease`
   up to ``lease_limit`` pending units (expired leases from dead workers are
   swept and requeued as a side effect);
2. execute the leased units through the shared
   :meth:`~repro.runs.engine.RunEngine.execute_units` core — the PR 6
   fault-tolerance layer (deadlines, retries, degradation, quarantine)
   applies exactly as in a local ``repro.runs run``;
3. while executing, the worker's one heartbeat thread (started with the loop,
   stopped when it ends) heartbeats the batch in hand every ``ttl / 3``
   seconds so a slow check does not look like a dead worker;
4. journal the batch's results through one
   :meth:`~repro.service.broker.FileBroker.complete` call — one completion
   lock and one journal write per batch; at-least-once delivery with
   exactly-one journal record per unit.

The worker keeps one :class:`~repro.runs.engine.RunEngine` per run, so the
engine's verdict memo is shared across that run's leases: a candidate several
leases produce for the same task is checked once.  The engine is dropped once
the run is complete.

A worker that dies mid-lease (``SIGKILL``, OOM, power loss) simply stops
heartbeating; its leases expire and the units requeue to the surviving fleet.
Nothing is lost and nothing double-counts: completion is idempotent per
content-addressed unit key.

Fault-injection hook: ``REPRO_SERVICE_STALL_S=<seconds>`` makes the worker
sleep *after* acquiring leases and *before* handing them to the heartbeat
thread or executing them — a deterministic way for tests and the CI smoke job
to freeze a worker mid-lease and SIGKILL it while it provably holds work.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field

from ..runs.engine import RunEngine
from .broker import FileBroker, Lease

#: Fault-injection hook: seconds to play dead after leasing (see module doc).
STALL_ENV = "REPRO_SERVICE_STALL_S"


@dataclass
class WorkerStats:
    """What one worker did over its lifetime."""

    leased: int = 0
    completed: int = 0
    duplicates: int = 0  # completions another worker journaled first
    quarantined: int = 0
    lost_leases: int = 0  # leases that expired under us mid-execution
    runs_seen: set = field(default_factory=set)


class ServiceWorker:
    """One fleet member: leases units from a broker and journals verdicts."""

    def __init__(
        self,
        broker: FileBroker,
        worker_id: str | None = None,
        *,
        lease_limit: int = 4,
        poll_s: float = 0.2,
        exit_when_idle: bool = False,
        max_loops: int | None = None,
    ):
        self.broker = broker
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.lease_limit = max(1, int(lease_limit))
        self.poll_s = float(poll_s)
        self.exit_when_idle = exit_when_idle
        self.max_loops = max_loops
        self.stats = WorkerStats()
        self._engines: dict[str, RunEngine] = {}
        self._stopped = threading.Event()
        #: The batch the heartbeat thread beats; swapped under ``_beat_lock``
        #: so no beat rewrites a lease once its batch is being journaled.
        self._in_hand: tuple[Lease, ...] = ()
        self._beat_lock = threading.Lock()
        self._beat_stop = threading.Event()

    # ------------------------------------------------------------------ lifecycle
    def stop(self) -> None:
        """Ask the loop to exit after the current batch."""
        self._stopped.set()

    def run_forever(self) -> WorkerStats:
        """Pull leases until stopped (or idle, with ``exit_when_idle``)."""
        self._beat_stop.clear()
        beater = threading.Thread(target=self._beat, daemon=True)
        beater.start()
        try:
            self._loop()
        finally:
            self._beat_stop.set()
            beater.join()
        return self.stats

    def _loop(self) -> None:
        loops = 0
        while not self._stopped.is_set():
            loops += 1
            if self.max_loops is not None and loops > self.max_loops:
                break
            worked = False
            for run_id in self.broker.run_ids():
                if self._stopped.is_set():
                    break
                self.stats.runs_seen.add(run_id)
                leases = self.broker.lease(run_id, self.worker_id, self.lease_limit)
                if leases:
                    worked = True
                    self._execute_leases(run_id, leases)
                elif run_id in self._engines and self._run_finished(run_id):
                    # A finished run's engine (and its verdict memo) is freed;
                    # an incomplete run keeps it for requeued units.
                    del self._engines[run_id]
            if worked:
                continue
            if self.exit_when_idle and self._all_complete():
                break
            self._stopped.wait(self.poll_s)

    def _beat(self) -> None:
        """The heartbeat thread: extend the batch in hand every ``ttl / 3``."""
        every = max(0.05, self.broker.lease_ttl_s / 3.0)
        while not self._beat_stop.wait(every):
            with self._beat_lock:
                for lease in self._in_hand:
                    self.broker.heartbeat(lease)

    def _hand(self, leases: tuple[Lease, ...]) -> None:
        with self._beat_lock:
            self._in_hand = leases

    def _run_finished(self, run_id: str) -> bool:
        # A journal shorter than the unit list cannot hold every unit: that
        # length test keeps the lease scan and events read of run_status out
        # of the idle polls that wait on other workers' leases.
        if len(self.broker.store(run_id)) < len(self.broker.units(run_id)):
            return False
        return self.broker.run_status(run_id).complete

    def _all_complete(self) -> bool:
        run_ids = self.broker.run_ids()
        return all(self.broker.run_status(run_id).complete for run_id in run_ids)

    # ------------------------------------------------------------------ execution
    def _engine(self, run_id: str) -> RunEngine:
        engine = self._engines.get(run_id)
        if engine is None:
            manifest = self.broker.manifest(run_id)
            engine = RunEngine(manifest, self.broker.store(run_id))
            self._engines[run_id] = engine
        return engine

    def _execute_leases(self, run_id: str, leases: list[Lease]) -> None:
        self.stats.leased += len(leases)
        stall = float(os.environ.get(STALL_ENV, "0") or 0.0)
        if stall > 0:
            # Deliberately *before* the batch goes to the heartbeat thread:
            # the worker plays dead while provably holding leases (see module
            # docstring).
            time.sleep(stall)

        self._hand(tuple(leases))
        try:
            results = self._engine(run_id).execute_units(
                [lease.unit for lease in leases],
                warning_sink=lambda category, message, detail: (
                    self.broker.record_warning(run_id, category, message, detail)
                ),
            )
        finally:
            self._hand(())

        by_key = {lease.unit.key: lease for lease in leases}
        done = []
        for result in results:
            lease = by_key.pop(result.unit.key)
            if result.quarantine is None:
                done.append((lease, result.outcome))
                continue
            recorded = self.broker.complete_quarantine(
                lease,
                attempts=result.quarantine.attempts,
                error=result.quarantine.error,
                degradation=result.quarantine.degradation,
            )
            if recorded:
                self.stats.quarantined += 1
            else:
                self.stats.duplicates += 1
        if done:
            recorded = sum(self.broker.complete(done))
            self.stats.completed += recorded
            self.stats.duplicates += len(done) - recorded
        # Anything the engine did not return a result for (should not happen)
        # is released so it requeues rather than dangling until expiry.
        for lease in by_key.values():
            self.broker.release(lease)
            self.stats.lost_leases += 1
