"""ServiceWorker: one engine per run, freed once the run completes; one
heartbeat thread that beats only the batch in hand."""

from __future__ import annotations

import threading
import time
import types

import pytest

import repro.service.worker as worker_module
from repro.service import FileBroker, ServiceWorker
from conftest import small_manifest


@pytest.fixture()
def engines_built(monkeypatch):
    """Every RunEngine the worker module constructs, in order."""
    built = []
    original = worker_module.RunEngine

    def counting(*args, **kwargs):
        engine = original(*args, **kwargs)
        built.append(engine)
        return engine

    monkeypatch.setattr(worker_module, "RunEngine", counting)
    return built


def test_completed_run_releases_its_engine(tmp_path, engines_built):
    broker = FileBroker(tmp_path / "broker")
    run_id = broker.submit(small_manifest()).run_id
    worker = ServiceWorker(broker, "w", lease_limit=2, exit_when_idle=True)
    worker.run_forever()

    assert broker.run_status(run_id).complete
    assert len(engines_built) == 1
    assert run_id not in worker._engines


def test_requeued_unit_of_incomplete_run_finds_its_engine(
    tmp_path, clock, engines_built, monkeypatch
):
    broker = FileBroker(tmp_path / "broker", lease_ttl_s=10.0, clock=clock)
    run_id = broker.submit(small_manifest()).run_id
    # A worker that dies holding one unit keeps the run incomplete.
    broker.lease(run_id, "dead-worker", 1)

    status_calls = []
    run_status = broker.run_status
    monkeypatch.setattr(broker, "run_status", lambda run: status_calls.append(run) or run_status(run))
    worker = ServiceWorker(broker, "w", lease_limit=100, poll_s=0.0, max_loops=2)
    worker.run_forever()  # loop 1 drains the rest, loop 2 finds nothing to lease
    # The idle poll sees a journal shorter than the unit list: no status read.
    assert status_calls == []
    status = broker.run_status(run_id)
    assert not status.complete and status.leased == 1
    assert worker._engines[run_id] is engines_built[0]

    clock.advance(11.0)  # the dead worker's lease expires and requeues
    worker.run_forever()  # loop 1 runs the requeued unit, loop 2 frees the engine
    assert broker.run_status(run_id).complete
    assert len(engines_built) == 1
    assert run_id not in worker._engines


def test_one_heartbeat_thread_never_beats_a_batch_during_the_stall(
    tmp_path, monkeypatch
):
    broker = FileBroker(tmp_path / "broker", lease_ttl_s=0.15)  # a beat every 0.05 s
    run_id = broker.submit(small_manifest()).run_id
    stalling = threading.Event()
    beats: list[tuple[bool, str]] = []
    heartbeat = broker.heartbeat

    def recording_heartbeat(lease):
        beats.append((stalling.is_set(), lease.unit.key))
        return heartbeat(lease)

    def stall(seconds):
        stalling.set()
        time.sleep(seconds)
        stalling.clear()

    execute_units = worker_module.RunEngine.execute_units

    def slow_execute_units(self, *args, **kwargs):
        time.sleep(0.2)  # long enough for several beats
        return execute_units(self, *args, **kwargs)

    beaters: list[int] = []
    beat = worker_module.ServiceWorker._beat

    def counting_beat(self):
        beaters.append(threading.get_ident())
        return beat(self)

    monkeypatch.setattr(broker, "heartbeat", recording_heartbeat)
    monkeypatch.setattr(worker_module, "time", types.SimpleNamespace(sleep=stall))
    monkeypatch.setattr(worker_module.RunEngine, "execute_units", slow_execute_units)
    monkeypatch.setattr(worker_module.ServiceWorker, "_beat", counting_beat)
    monkeypatch.setenv(worker_module.STALL_ENV, "0.2")

    worker = ServiceWorker(broker, "w", lease_limit=2, exit_when_idle=True)
    stats = worker.run_forever()
    assert broker.run_status(run_id).complete
    assert stats.leased == len(broker.units(run_id)) == 6  # three batches
    assert len(beaters) == 1  # one heartbeat thread for the whole loop
    assert beats, "the heartbeat thread never beat a batch"
    assert not [key for during_stall, key in beats if during_stall]
    assert not any(thread.ident in beaters for thread in threading.enumerate())
