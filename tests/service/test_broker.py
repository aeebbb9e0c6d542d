"""FileBroker lease protocol: exclusivity, expiry, heartbeats, exactly-once.

The broker promises at-least-once *delivery* (a unit may be leased again
after its holder goes silent) but exactly-one *journal record* per unit.
These tests drive both halves with a hand-cranked clock so expiry is
deterministic.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import sys
import threading

import pytest

from repro.bench.jobs import CheckOutcome
from repro.runs.store import JOURNAL_FILENAME, RunStore
from repro.service.broker import AdmissionError, BrokerError, FileBroker
from conftest import small_manifest


def outcome(unit) -> CheckOutcome:
    return CheckOutcome(
        sample_index=unit.sample_index,
        temperature=unit.temperature,
        syntax_ok=True,
        functional_passed=True,
        total_checks=5,
        design_key="d" * 64,
        duration_s=0.25,
    )


@pytest.fixture()
def broker(tmp_path, clock) -> FileBroker:
    return FileBroker(tmp_path / "broker", lease_ttl_s=10.0, clock=clock)


@pytest.fixture()
def queued(broker):
    """A submitted small manifest: (run_id, units in expansion order)."""
    receipt = broker.submit(small_manifest())
    return receipt.run_id, broker.units(receipt.run_id)


class TestSubmit:
    def test_run_id_is_manifest_hash(self, broker):
        manifest = small_manifest()
        receipt = broker.submit(manifest)
        assert receipt.run_id == manifest.manifest_hash
        assert receipt.created
        assert receipt.total_units == len(broker.units(receipt.run_id))
        assert receipt.total_units > 0

    def test_resubmission_is_idempotent(self, broker):
        manifest = small_manifest()
        first = broker.submit(manifest)
        second = broker.submit(manifest)
        assert not second.created
        assert second.run_id == first.run_id
        assert broker.run_ids().count(first.run_id) == 1

    def test_admission_limit_rejects_before_writing(self, broker):
        with pytest.raises(AdmissionError) as excinfo:
            broker.submit(small_manifest(), admission_limit=1)
        assert excinfo.value.limit == 1
        assert excinfo.value.incoming > 1
        assert broker.run_ids() == []

    def test_resubmission_bypasses_admission(self, broker):
        receipt = broker.submit(small_manifest())
        again = broker.submit(small_manifest(), admission_limit=0)
        assert not again.created
        assert again.run_id == receipt.run_id

    def test_unknown_run_raises(self, broker):
        with pytest.raises(BrokerError):
            broker.manifest("0" * 64)
        with pytest.raises(BrokerError):
            broker.units("0" * 64)


class TestLeasing:
    def test_leases_are_exclusive_and_in_order(self, broker, queued):
        run_id, units = queued
        first = broker.lease(run_id, "worker-a", limit=2)
        second = broker.lease(run_id, "worker-b", limit=len(units))
        assert [lease.unit for lease in first] == units[:2]
        assert [lease.unit for lease in second] == units[2:]
        held = {lease.unit.key for lease in first} & {
            lease.unit.key for lease in second
        }
        assert held == set()
        # Everything is out: nothing left to lease.
        assert broker.lease(run_id, "worker-c", limit=1) == []

    def test_unit_completed_just_before_the_claim_is_not_leased(
        self, broker, queued, monkeypatch
    ):
        """A completion landing between the pending check and the hard-link
        claim drops the claim instead of leasing a journaled unit."""
        run_id, units = queued
        link = os.link

        def complete_then_link(source, target):
            monkeypatch.setattr(os, "link", link)  # the rival claims normally
            [rival] = broker.lease(run_id, "worker-b", limit=1)
            assert rival.unit == units[0]
            assert broker.complete([(rival, outcome(rival.unit))])[0]
            link(source, target)

        monkeypatch.setattr(os, "link", complete_then_link)
        leases = broker.lease(run_id, "worker-a", limit=1)
        assert [lease.unit for lease in leases] == [units[1]]
        assert not (broker._leases_dir(run_id) / units[0].key).exists()

    def test_expired_lease_requeues_with_event(self, broker, queued, clock):
        run_id, units = queued
        stale = broker.lease(run_id, "worker-a", limit=1)[0]
        done = broker.lease(run_id, "worker-b", limit=1)[0]
        assert done.unit == units[1]
        broker.complete([(done, outcome(done.unit))])

        clock.advance(11.0)  # past the 10s TTL: worker-a went silent
        reclaimed = broker.lease(run_id, "worker-b", limit=1)
        assert reclaimed[0].unit == stale.unit
        requeues = [e for e in broker.events(run_id) if e["event"] == "requeue"]
        assert len(requeues) == 1
        assert requeues[0]["worker"] == "worker-a"
        assert broker.run_status(run_id).requeues == 1

    def test_expired_lease_behind_completed_units_is_leased_again(
        self, broker, queued, clock
    ):
        """The lease scan starts at the first unjournaled unit, so a stale
        lease on an early unit requeues though every later unit is done."""
        run_id, units = queued
        for lease in broker.lease(run_id, "worker-b", limit=2):
            broker.complete([(lease, outcome(lease.unit))])
        stale = broker.lease(run_id, "worker-a", limit=1)[0]
        assert stale.unit == units[2]
        for lease in broker.lease(run_id, "worker-b", limit=len(units)):
            broker.complete([(lease, outcome(lease.unit))])
        assert broker.lease(run_id, "worker-b", limit=len(units)) == []

        clock.advance(11.0)
        reclaimed = broker.lease(run_id, "worker-c", limit=len(units))
        assert [lease.unit for lease in reclaimed] == [units[2]]
        assert broker.run_status(run_id).requeues == 1
        broker.complete([(reclaimed[0], outcome(units[2]))])
        assert broker.run_status(run_id).complete

    def test_shrunk_journal_makes_its_units_pending_again(self, broker, queued):
        run_id, units = queued
        for lease in broker.lease(run_id, "worker-a", limit=3):
            broker.complete([(lease, outcome(lease.unit))])
        assert broker.lease(run_id, "worker-a", limit=1)[0].unit == units[3]
        journal = broker.store_dir(run_id) / JOURNAL_FILENAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[2])  # only units[2] stays journaled
        leased = broker.lease(run_id, "worker-b", limit=len(units))
        assert [lease.unit for lease in leased] == [units[0], units[1]] + units[4:]

    def test_heartbeat_extends_the_lease(self, broker, queued, clock):
        run_id, _ = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(8.0)
        assert broker.heartbeat(lease)
        clock.advance(8.0)  # 16s after claim, but only 8s after the beat
        assert broker.run_status(run_id).leased == 1
        assert all(e["event"] != "requeue" for e in broker.events(run_id))

    def test_heartbeat_reports_a_lost_lease(self, broker, queued, clock):
        run_id, _ = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(11.0)
        broker.sweep_expired(run_id)
        assert not broker.heartbeat(lease)

    def test_heartbeat_of_one_hard_linked_lease_keeps_the_others_expiry(
        self, broker, queued, clock
    ):
        run_id, _ = queued
        leases = broker.lease(run_id, "worker-a", limit=3)
        stats = [os.stat(lease.path) for lease in leases]
        assert len({stat.st_ino for stat in stats}) == 1  # one payload, three links
        assert all(stat.st_nlink == 3 for stat in stats)

        clock.advance(5.0)
        assert broker.heartbeat(leases[0])
        payloads = [json.loads(lease.path.read_text()) for lease in leases]
        assert [payload["expires_at"] for payload in payloads] == [1015.0, 1010.0, 1010.0]
        assert leases[0].expires_at == 1015.0
        assert all(payload["worker"] == "worker-a" for payload in payloads)
        assert os.stat(leases[0].path).st_nlink == 1
        assert os.stat(leases[1].path).st_ino == os.stat(leases[2].path).st_ino

    def test_lease_scans_see_no_payload_file(self, broker, queued, monkeypatch):
        """The batch payload is written outside ``leases/``: a scan racing a
        claim counts only real leases."""
        run_id, units = queued
        link = os.link
        seen = []

        def link_then_count(source, target):
            link(source, target)
            seen.append(broker.run_status(run_id).leased)

        monkeypatch.setattr(os, "link", link_then_count)
        broker.lease(run_id, "worker-a", limit=3)
        assert seen == [1, 2, 3]
        assert sorted(os.listdir(broker._leases_dir(run_id))) == sorted(
            unit.key for unit in units[:3]
        )
        assert not list(broker._run_dir(run_id).glob(".lease.*"))

    def test_release_requeues_immediately(self, broker, queued):
        run_id, units = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        broker.release(lease)
        assert broker.lease(run_id, "worker-b", limit=1)[0].unit == units[0]


class TestCompletion:
    def test_complete_journals_and_frees_the_lease(self, broker, queued):
        run_id, units = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        assert broker.complete([(lease, outcome(lease.unit))])[0]
        status = broker.run_status(run_id)
        assert status.completed == 1
        assert status.leased == 0
        assert status.pending == len(units) - 1
        store = broker.store(run_id)
        assert store.outcome_for(lease.unit.key) == outcome(lease.unit)

    def test_duplicate_completion_is_exactly_once(self, broker, queued, clock):
        """Two workers racing one requeued unit yield one journal record."""
        run_id, units = queued
        stale = broker.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(11.0)
        fresh = broker.lease(run_id, "worker-b", limit=1)[0]
        assert fresh.unit == stale.unit

        assert broker.complete([(fresh, outcome(fresh.unit))])[0]
        assert not broker.complete([(stale, outcome(stale.unit))])[0]

        journal = broker.store_dir(run_id) / JOURNAL_FILENAME
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [r["key"] for r in records] == [fresh.unit.key]
        assert broker.run_status(run_id).completed == 1

    def test_journaled_unit_is_never_leased_again(self, broker, queued, clock):
        run_id, units = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        broker.complete([(lease, outcome(lease.unit))])
        clock.advance(100.0)
        leased = broker.lease(run_id, "worker-b", limit=len(units))
        assert units[0] not in [entry.unit for entry in leased]

    def test_quarantine_counts_toward_completion_but_not_health(self, broker, queued):
        run_id, units = queued
        for lease in broker.lease(run_id, "worker-a", limit=len(units)):
            if lease.unit == units[0]:
                assert broker.complete_quarantine(
                    lease, attempts=3, error="worker died", degradation=("pool->serial",)
                )
            else:
                assert broker.complete([(lease, outcome(lease.unit))])[0]
        status = broker.run_status(run_id)
        assert status.complete
        assert not status.healthy
        assert status.quarantined == 1
        assert status.exit_code == 4

    def test_complete_run_exit_code_zero(self, broker, queued):
        run_id, units = queued
        for lease in broker.lease(run_id, "worker-a", limit=len(units)):
            broker.complete([(lease, outcome(lease.unit))])
        status = broker.run_status(run_id)
        assert status.complete and status.healthy
        assert status.exit_code == 0
        assert status.percent == pytest.approx(100.0)


class TestBatchCompletion:
    def test_a_batch_journals_in_one_write_with_one_event_per_unit(
        self, broker, queued, monkeypatch
    ):
        run_id, units = queued
        leases = broker.lease(run_id, "worker-a", limit=3)
        writes = []
        write = os.write

        def counting_write(fd, data):
            writes.append(data)
            return write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        flags = broker.complete([(lease, outcome(lease.unit)) for lease in leases])
        monkeypatch.undo()
        assert flags == [True, True, True]
        # One journal write and one event-log write for the whole batch.
        assert [data.count(b"\n") for data in writes] == [3, 3]
        completes = [e for e in broker.events(run_id) if e["event"] == "complete"]
        assert [e["key"] for e in completes] == [unit.key for unit in units[:3]]
        assert all(e["worker"] == "worker-a" and e["duration_s"] == 0.25 for e in completes)
        assert os.listdir(broker._leases_dir(run_id)) == []

    def test_a_batch_of_two_runs_is_refused(self, broker):
        first = broker.submit(small_manifest(num_samples=2)).run_id
        second = broker.submit(small_manifest(num_samples=3)).run_id
        leases = broker.lease(first, "w", limit=1) + broker.lease(second, "w", limit=1)
        with pytest.raises(BrokerError):
            broker.complete([(lease, outcome(lease.unit)) for lease in leases])
        assert len(broker.store(first)) == len(broker.store(second)) == 0

    def test_racing_overlapping_batches_journal_each_unit_once(self, tmp_path, clock):
        first = FileBroker(tmp_path / "broker", clock=clock)
        second = FileBroker(tmp_path / "broker", clock=clock)
        run_id = first.submit(small_manifest()).run_id
        units = first.units(run_id)
        stale = first.lease(run_id, "worker-a", limit=3)
        clock.advance(11.0)  # worker-a went silent: its three units requeue
        fresh = second.lease(run_id, "worker-b", limit=5)
        assert [lease.unit for lease in fresh] == units[:5]

        barrier = threading.Barrier(2)
        flags: dict[str, list[bool]] = {}

        def finish(name, broker, leases):
            barrier.wait()
            flags[name] = broker.complete([(lease, outcome(lease.unit)) for lease in leases])

        threads = [
            threading.Thread(target=finish, args=("first", first, stale)),
            threading.Thread(target=finish, args=("second", second, fresh)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        won: dict[str, int] = {}
        for name, leases in (("first", stale), ("second", fresh)):
            for lease, flag in zip(leases, flags[name]):
                won[lease.unit.key] = won.get(lease.unit.key, 0) + flag
        assert won == {unit.key: 1 for unit in units[:5]}  # every loser saw False
        journal = first.store_dir(run_id) / JOURNAL_FILENAME
        keys = [json.loads(line)["key"] for line in journal.read_text().splitlines()]
        assert sorted(keys) == sorted(unit.key for unit in units[:5])
        assert os.listdir(first._leases_dir(run_id)) == []
        completes = [e["key"] for e in first.events(run_id) if e["event"] == "complete"]
        assert sorted(completes) == sorted(keys)
        for broker in (first, second):
            assert list(broker.store(run_id).records()) == list(
                fresh_view(broker, run_id).records()
            )


class TestCrashWindows:
    def test_journaled_leases_left_behind_are_reaped_without_requeue(
        self, broker, queued, clock, monkeypatch
    ):
        """A crash after the journal append, before the leases are unlinked."""
        run_id, units = queued
        leases = broker.lease(run_id, "worker-a", limit=3)
        monkeypatch.setattr(broker, "_unlink", lambda path: None)
        assert broker.complete([(lease, outcome(lease.unit)) for lease in leases]) == [
            True
        ] * 3
        monkeypatch.undo()
        assert all(lease.path.exists() for lease in leases)

        clock.advance(11.0)  # long expired: still not a requeue, the units are done
        leased = broker.lease(run_id, "worker-b", limit=len(units))
        assert [lease.unit for lease in leased] == units[3:]
        assert not any(lease.path.exists() for lease in leases)
        assert all(e["event"] != "requeue" for e in broker.events(run_id))
        assert broker.run_status(run_id).requeues == 0

    def test_torn_last_line_of_a_batch_reruns_only_that_unit(self, tmp_path, clock):
        """A crash mid-write of a multi-record append tears its last line."""
        broker = FileBroker(tmp_path / "broker", clock=clock)
        run_id = broker.submit(small_manifest()).run_id
        units = broker.units(run_id)
        leases = broker.lease(run_id, "worker-a", limit=3)
        assert all(broker.complete([(lease, outcome(lease.unit)) for lease in leases]))
        journal = broker.store_dir(run_id) / JOURNAL_FILENAME
        data = journal.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        journal.write_bytes(data[: last + (len(data) - last) // 2])

        restarted = FileBroker(tmp_path / "broker", clock=clock)
        store = restarted.store(run_id)
        assert store.recovered_lines == 1
        assert [record["key"] for record in store.records()] == [
            unit.key for unit in units[:2]
        ]
        leased = restarted.lease(run_id, "worker-b", limit=len(units))
        assert [lease.unit for lease in leased] == units[2:]
        # The view that wrote the batch sees the shrunk journal the same way.
        cached = broker.store(run_id)
        assert cached.recovered_lines == 1
        assert list(cached.records()) == list(store.records())


class TestQueueDepth:
    def test_depth_sums_pending_across_runs(self, broker):
        first = broker.submit(small_manifest(num_samples=2))
        second = broker.submit(small_manifest(num_samples=3))
        total = first.total_units + second.total_units
        assert broker.queue_depth() == total
        lease = broker.lease(first.run_id, "worker-a", limit=1)[0]
        assert broker.queue_depth() == total - 1
        broker.complete([(lease, outcome(lease.unit))])
        assert broker.queue_depth() == total - 1


def drain(broker, run_id, worker_id="worker-a") -> int:
    """Lease and complete one unit at a time until nothing is pending."""
    done = 0
    while leases := broker.lease(run_id, worker_id, limit=1):
        broker.complete([(leases[0], outcome(leases[0].unit))])
        done += 1
    return done


def fresh_view(broker, run_id) -> RunStore:
    return RunStore(broker.store_dir(run_id))


class _CountingFile:
    """A file proxy that tallies the size of everything ``read`` returns."""

    def __init__(self, handle, tally: list[int]):
        self._handle = handle
        self._tally = tally

    def read(self, *args):
        data = self._handle.read(*args)
        self._tally[0] += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def count_journal_reads(monkeypatch) -> list[int]:
    """Tally journal bytes read through ``open``/``io.open`` (Path.read_* too)."""
    tally = [0]
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if str(file).endswith(JOURNAL_FILENAME) and "r" in mode:
            return _CountingFile(handle, tally)
        return handle

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return tally


class TestCachedViews:
    def test_draining_a_run_reads_the_journal_a_linear_number_of_bytes(
        self, tmp_path, monkeypatch
    ):
        """Complexity regression, not a timing test: lease + complete read
        only the journal tail, and a lone drainer's appends move its view
        past its own lines, so the drain parses none of them back."""
        broker = FileBroker(tmp_path / "broker")
        run_id = broker.submit(small_manifest(num_samples=50, max_tasks=None)).run_id
        total = len(broker.units(run_id))
        assert total >= 200
        read = count_journal_reads(monkeypatch)
        assert drain(broker, run_id) == total
        size = (broker.store_dir(run_id) / JOURNAL_FILENAME).stat().st_size
        assert broker.run_status(run_id).completed == total
        assert read[0] == 0, f"read {read[0]} bytes of its own {size}-byte journal"
        # A second broker's view reads each journal byte once.
        assert FileBroker(tmp_path / "broker").run_status(run_id).completed == total
        assert read[0] == size

    def test_two_brokers_see_each_others_completions(self, tmp_path, clock):
        first = FileBroker(tmp_path / "broker", clock=clock)
        second = FileBroker(tmp_path / "broker", clock=clock)
        run_id = first.submit(small_manifest()).run_id
        units = second.units(run_id)
        assert second.run_status(run_id).completed == 0  # both views now cached

        lease = first.lease(run_id, "worker-a", limit=1)[0]
        assert first.complete([(lease, outcome(lease.unit))])[0]
        assert second.run_status(run_id).completed == 1
        assert lease.unit.key in second.store(run_id)
        leased = second.lease(run_id, "worker-b", limit=len(units))
        assert lease.unit not in [entry.unit for entry in leased]
        for entry in leased:
            assert second.complete([(entry, outcome(entry.unit))])[0]
        assert first.run_status(run_id).complete
        assert list(first.store(run_id).records()) == list(
            fresh_view(first, run_id).records()
        )

    def test_racing_completions_across_brokers_journal_once(self, tmp_path, clock):
        first = FileBroker(tmp_path / "broker", clock=clock)
        second = FileBroker(tmp_path / "broker", clock=clock)
        run_id = first.submit(small_manifest()).run_id
        stale = first.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(11.0)
        fresh = second.lease(run_id, "worker-b", limit=1)[0]
        assert fresh.unit == stale.unit

        barrier = threading.Barrier(2)
        results: dict[str, bool] = {}

        def finish(name, broker, lease):
            barrier.wait()
            results[name] = broker.complete([(lease, outcome(lease.unit))])[0]

        threads = [
            threading.Thread(target=finish, args=("first", first, stale)),
            threading.Thread(target=finish, args=("second", second, fresh)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(results.values()) == [False, True]
        journal = first.store_dir(run_id) / JOURNAL_FILENAME
        keys = [json.loads(line)["key"] for line in journal.read_text().splitlines()]
        assert keys == [stale.unit.key]
        for broker in (first, second):
            assert len(broker.store(run_id)) == 1

    def test_torn_tail_then_complete_matches_a_fresh_load(self, broker, queued):
        run_id, units = queued
        leases = broker.lease(run_id, "worker-a", limit=2)
        assert broker.complete([(leases[0], outcome(leases[0].unit))])[0]
        journal = broker.store_dir(run_id) / JOURNAL_FILENAME
        whole = journal.read_bytes()
        with open(journal, "ab") as handle:
            handle.write(whole[: len(whole) // 2])  # a crash mid-append

        assert broker.complete([(leases[1], outcome(leases[1].unit))])[0]
        cached, fresh = broker.store(run_id), fresh_view(broker, run_id)
        assert cached.recovered_lines == fresh.recovered_lines == 1
        assert list(cached.records()) == list(fresh.records())
        assert [r["key"] for r in cached.records()] == [
            lease.unit.key for lease in leases
        ]

    def test_threads_leasing_from_one_broker_journal_every_unit_once(
        self, tmp_path, clock
    ):
        """Threads share each run's lease cursor and complete whole batches:
        none may skip a pending unit or journal one twice."""
        broker = FileBroker(tmp_path / "broker", clock=clock)
        run_id = broker.submit(small_manifest(num_samples=10, max_tasks=None)).run_id
        leased: list[str] = []
        journaled: list[str] = []
        errors: list[BaseException] = []

        def work(index):
            try:
                while leases := broker.lease(run_id, f"worker-{index}", limit=2):
                    leased.extend(lease.unit.key for lease in leases)
                    flags = broker.complete([(lease, outcome(lease.unit)) for lease in leases])
                    journaled.extend(
                        lease.unit.key for lease, flag in zip(leases, flags) if flag
                    )
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert not errors
        keys = [unit.key for unit in broker.units(run_id)]
        assert sorted(leased) == sorted(keys)  # one lease per unit
        assert sorted(journaled) == sorted(keys)
        assert broker.run_status(run_id).complete
        assert len(fresh_view(broker, run_id)) == len(keys)

    def test_threads_polling_while_another_broker_completes(self, tmp_path, clock):
        server = FileBroker(tmp_path / "broker", clock=clock)
        worker = FileBroker(tmp_path / "broker", clock=clock)
        run_id = server.submit(small_manifest(num_samples=10, max_tasks=None)).run_id
        done = threading.Event()
        errors: list[BaseException] = []

        def poll(index):
            try:
                while not done.is_set():
                    if index % 2:
                        server.run_status(run_id)
                    else:
                        server.store(run_id)
                        server.events(run_id)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        pollers = [threading.Thread(target=poll, args=(i,)) for i in range(8)]
        for thread in pollers:
            thread.start()
        try:
            total = drain(worker, run_id)
        finally:
            done.set()
            for thread in pollers:
                thread.join()
        assert not errors
        cached, fresh = server.store(run_id), fresh_view(server, run_id)
        assert list(cached.records()) == list(fresh.records())
        assert len(cached) == total
        assert cached.recovered_lines == fresh.recovered_lines == 0
        assert server.run_status(run_id) == FileBroker(
            tmp_path / "broker", clock=clock
        ).run_status(run_id)
        assert server.events(run_id) == worker.events(run_id)
