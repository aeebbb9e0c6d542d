"""RunStore journal semantics: persistence, recovery, idempotence."""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.bench.jobs import CheckOutcome
from repro.runs.aggregate import StreamingAggregator
from repro.runs.manifest import WorkUnit
import repro.runs.store as store_module
from repro.runs.store import JOURNAL_FILENAME, RunStore, RunStoreError, unit_record
from test_manifest import tiny_manifest


def unit(sample_index: int = 0, temperature: float = 0.2) -> WorkUnit:
    return WorkUnit(
        manifest_hash="m" * 64,
        profile_id="baseline:gpt-4",
        suite_id="machine",
        task_id="t0",
        temperature=temperature,
        sample_index=sample_index,
    )


def outcome(sample_index: int = 0) -> CheckOutcome:
    return CheckOutcome(
        sample_index=sample_index,
        temperature=0.2,
        syntax_ok=True,
        functional_passed=True,
        total_checks=7,
        design_key="d" * 64,
    )


class TestJournal:
    def test_round_trip_across_reopen(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.record(unit(0), outcome(0))
        assert store.record(unit(1), outcome(1))

        reopened = RunStore(tmp_path)
        assert len(reopened) == 2
        assert unit(0).key in reopened
        restored = reopened.outcome_for(unit(1).key)
        assert restored == outcome(1)

    def test_record_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.record(unit(), outcome())
        assert not store.record(unit(), outcome())
        assert len(RunStore(tmp_path)) == 1

    def test_corrupted_trailing_line_is_dropped(self, tmp_path):
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        store.record(unit(1), outcome(1))
        journal = tmp_path / JOURNAL_FILENAME
        with open(journal, "a") as handle:
            handle.write('{"kind": "unit", "key": "tr')  # torn mid-write

        recovered = RunStore(tmp_path)
        assert recovered.recovered_lines == 1
        assert len(recovered) == 2
        # The store stays appendable after recovery.
        assert recovered.record(unit(2), outcome(2))
        assert len(RunStore(tmp_path)) == 3

    def test_non_record_json_line_is_dropped(self, tmp_path):
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        journal = tmp_path / JOURNAL_FILENAME
        with open(journal, "a") as handle:
            handle.write('"just a string"\n')
        recovered = RunStore(tmp_path)
        assert recovered.recovered_lines == 1
        assert len(recovered) == 1

    def test_torn_write_mid_multibyte_utf8_recovers(self, tmp_path):
        """A crash can tear an append in the middle of a UTF-8 sequence."""
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        record = {
            "kind": "unit",
            "key": "x" * 64,
            "manifest": "m" * 64,
            "profile": "baseline:gpt-4",
            "suite": "machine",
            "task": "t1",
            "temperature": 0.2,
            "sample": 9,
            "outcome": CheckOutcome(
                sample_index=9,
                temperature=0.2,
                syntax_ok=False,
                syntax_error="erreur de compilation — ligne 3 ✓",
            ).to_dict(),
        }
        encoded = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        marker = "✓".encode("utf-8")
        cut = encoded.index(marker) + 1  # one byte into the 3-byte codepoint
        with open(tmp_path / JOURNAL_FILENAME, "ab") as handle:
            handle.write(encoded[:cut])

        recovered = RunStore(tmp_path)
        assert recovered.recovered_lines == 1
        assert len(recovered) == 1
        # The store stays appendable and the torn unit simply re-runs.
        assert recovered.record(unit(1), outcome(1))
        assert len(RunStore(tmp_path)) == 2

    def test_crlf_separated_records_load(self, tmp_path):
        """Journals that passed through CRLF translation still load cleanly."""
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        store.record(unit(1), outcome(1))
        journal = tmp_path / JOURNAL_FILENAME
        journal.write_bytes(journal.read_bytes().replace(b"\n", b"\r\n"))

        recovered = RunStore(tmp_path)
        assert recovered.recovered_lines == 0
        assert len(recovered) == 2
        assert recovered.outcome_for(unit(1).key) == outcome(1)

    def test_schema_invalid_trailing_records_dropped(self, tmp_path):
        """Valid JSON is not enough: records must carry a usable payload."""
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        with open(tmp_path / JOURNAL_FILENAME, "a") as handle:
            # A unit record whose outcome lost its required fields (e.g. two
            # torn appends fused into one parseable line) ...
            handle.write(
                json.dumps(
                    {"kind": "unit", "key": "k" * 64, "outcome": {"sample_index": 1}}
                )
                + "\n"
            )
            # ... and a record of a kind this store does not know.
            handle.write(json.dumps({"kind": "mystery", "key": "q" * 64}) + "\n")

        recovered = RunStore(tmp_path)
        assert recovered.recovered_lines == 2
        assert len(recovered) == 1
        assert "k" * 64 not in recovered

    def test_refresh_admits_only_lines_appended_since_the_last_read(self, tmp_path):
        writer = RunStore(tmp_path)
        reader = RunStore(tmp_path)
        writer.record(unit(0), outcome(0))
        reader.refresh()
        assert unit(0).key in reader
        writer.record(unit(1), outcome(1))
        writer.record(unit(1), outcome(1))  # idempotent: no second line
        reader.refresh()
        reader.refresh()  # nothing new: a no-op
        assert [r["key"] for r in reader.records()] == [unit(0).key, unit(1).key]
        assert reader.recovered_lines == 0

    def test_refresh_after_the_journal_shrank_reloads(self, tmp_path):
        store = RunStore(tmp_path)
        for index in range(3):
            store.record(unit(index), outcome(index))
        store.refresh()  # the offset now sits at the end of all three lines
        journal = tmp_path / JOURNAL_FILENAME
        first_line = journal.read_bytes().split(b"\n")[0] + b"\n"
        journal.write_bytes(first_line)  # replaced behind the store's back
        store.refresh()
        assert [r["key"] for r in store.records()] == [unit(0).key]
        store.record(unit(5), outcome(5))
        fresh = RunStore(tmp_path)
        assert list(store.records()) == list(fresh.records())

    def test_batch_append_leaves_the_offset_at_the_file_size(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        records = [unit_record(unit(index), outcome(index)) for index in (0, 1, 0)]
        assert store.append(records) == [True, True, False]  # a repeat is refused
        journal = tmp_path / JOURNAL_FILENAME
        assert len(journal.read_bytes().splitlines()) == 2
        assert store._offset == journal.stat().st_size

        parsed = []
        read = store_module.read_new_lines

        def spying(path, offset):
            lines, new_offset, torn = read(path, offset)
            parsed.extend(lines)
            return lines, new_offset, torn

        monkeypatch.setattr(store_module, "read_new_lines", spying)
        store.refresh()
        assert parsed == []  # its own lines are not parsed back
        assert [r["key"] for r in store.records()] == [unit(0).key, unit(1).key]
        assert list(store.records()) == list(RunStore(tmp_path).records())

    def test_foreign_line_before_an_append_is_still_admitted(self, tmp_path):
        """Another writer's line lands between this store's refresh and its
        append: the offset stays put, so the next refresh admits that line."""
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)
        store.refresh()
        assert other.record(unit(1), outcome(1))  # the foreign line
        assert store.append([unit_record(unit(0), outcome(0))]) == [True]
        journal = tmp_path / JOURNAL_FILENAME
        assert store._offset < journal.stat().st_size
        store.refresh()
        assert unit(1).key in store
        assert sorted(r["key"] for r in store.records()) == sorted(
            r["key"] for r in RunStore(tmp_path).records()
        )
        assert len(store) == 2
        assert store.recovered_lines == 0
        assert store._offset == journal.stat().st_size

    def test_aggregator_feeds_only_records_it_has_not_seen(self, tmp_path, monkeypatch):
        fed = []
        monkeypatch.setattr(StreamingAggregator, "feed", lambda self, record: fed.append(record["key"]))
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        aggregator = StreamingAggregator(tiny_manifest())
        aggregator.feed_store(store)
        store.record(unit(1), outcome(1))
        aggregator.feed_store(store)
        assert fed == [unit(0).key, unit(1).key]

        fed.clear()
        store.reload()  # the store starts over: every record is fed again
        aggregator.feed_store(store)
        assert fed == [unit(0).key, unit(1).key]

        fed.clear()
        aggregator.feed_store(RunStore(tmp_path))  # another store: all of it
        assert fed == [unit(0).key, unit(1).key]

    def test_ephemeral_store_has_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = RunStore.ephemeral()
        store.record(unit(), outcome())
        assert unit().key in store
        assert not any(tmp_path.iterdir())


class TestQuarantineAndWarnings:
    def test_quarantine_claims_unit_key(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.record_quarantine(
            unit(0), attempts=3, error="worker died", degradation=["batch->scalar"]
        )
        # Resume sees the unit as done, but it carries no scored outcome.
        assert unit(0).key in store
        assert store.outcome_for(unit(0).key) is None
        # The poison claim wins: a later verdict for the same unit is refused.
        assert not store.record(unit(0), outcome(0))

        reopened = RunStore(tmp_path)
        records = reopened.quarantined_records()
        assert len(records) == 1
        assert records[0]["quarantine"]["attempts"] == 3
        assert records[0]["quarantine"]["error"] == "worker died"
        assert records[0]["quarantine"]["degradation"] == ["batch->scalar"]

    def test_warnings_dedup_by_content(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.record_warning("serial-fallback", "2 of 4 do not pickle")
        assert not store.record_warning("serial-fallback", "2 of 4 do not pickle")
        assert store.record_warning("serial-fallback", "3 of 4 do not pickle")
        assert len(RunStore(tmp_path).warning_records()) == 2


class TestManifestHandling:
    def test_manifest_round_trip(self, tmp_path):
        manifest = tiny_manifest()
        store = RunStore(tmp_path)
        store.write_manifest(manifest)
        loaded = RunStore(tmp_path).load_manifest()
        assert loaded is not None
        assert loaded.manifest_hash == manifest.manifest_hash

    def test_mismatched_manifest_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(tiny_manifest())
        other = tiny_manifest(temperatures=(0.8,))
        with pytest.raises(RunStoreError):
            RunStore(tmp_path).write_manifest(other)

    def test_same_manifest_accepted(self, tmp_path):
        RunStore(tmp_path).write_manifest(tiny_manifest())
        RunStore(tmp_path).write_manifest(tiny_manifest())  # no raise


def _race_complete(broker_dir, run_id, lease_payload, barrier, results):
    """Child process: execute the leased unit for real, then race to journal it."""
    from repro.runs.engine import RunEngine
    from repro.service.broker import FileBroker, Lease

    broker = FileBroker(broker_dir)
    lease = Lease(
        run_id=run_id,
        unit=WorkUnit.from_dict(lease_payload["unit"]),
        worker_id=lease_payload["worker_id"],
        expires_at=lease_payload["expires_at"],
        path=Path(lease_payload["path"]),
    )
    engine = RunEngine(broker.manifest(run_id), broker.store(run_id))
    [result] = engine.execute_units([lease.unit])
    barrier.wait()  # both racers have a verdict in hand: now race the lock
    recorded = broker.complete([(lease, result.outcome)])[0]
    results.put((lease.worker_id, recorded, result.outcome.to_dict()))


class TestConcurrentCompletion:
    def test_two_processes_racing_one_unit_journal_exactly_once(self, tmp_path):
        """The at-least-once lease overlap after a requeue collapses to one record.

        Worker A leases a unit and goes silent; the lease expires and worker B
        re-leases the same unit.  Both then hold a (stale, fresh) lease pair for
        identical work.  Each racer executes the unit independently and both
        call ``complete`` at the same instant from separate processes: the
        journal must end up with exactly one record, and — because verdicts are
        deterministic — both racers must have computed the same outcome.
        """
        from repro.service.broker import FileBroker

        broker = FileBroker(tmp_path / "broker", lease_ttl_s=0.2)
        receipt = broker.submit(tiny_manifest())
        run_id = receipt.run_id
        stale = broker.lease(run_id, "racer-a", limit=1)[0]
        time.sleep(0.3)  # the TTL passes with no heartbeat
        fresh = broker.lease(run_id, "racer-b", limit=1)[0]
        assert fresh.unit == stale.unit

        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        results = context.Queue()
        racers = [
            context.Process(
                target=_race_complete,
                args=(
                    str(tmp_path / "broker"),
                    run_id,
                    {
                        "unit": lease.unit.to_dict(),
                        "worker_id": lease.worker_id,
                        "expires_at": lease.expires_at,
                        "path": str(lease.path),
                    },
                    barrier,
                    results,
                ),
            )
            for lease in (stale, fresh)
        ]
        for racer in racers:
            racer.start()
        outcomes = [results.get(timeout=120) for _ in racers]
        for racer in racers:
            racer.join(timeout=30)
            assert racer.exitcode == 0

        # Exactly one racer journaled; the other saw a duplicate.
        assert sorted(recorded for _, recorded, _ in outcomes) == [False, True]
        # Deterministic execution: both racers computed the same verdict
        # (wall-clock duration is a measurement, not part of the verdict).
        verdicts = []
        for _, _, payload in outcomes:
            payload.pop("duration_s", None)
            verdicts.append(payload)
        assert verdicts[0] == verdicts[1]

        journal = broker.store_dir(run_id) / JOURNAL_FILENAME
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [record["key"] for record in records] == [fresh.unit.key]
        journaled = records[0]["outcome"]
        journaled.pop("duration_s", None)
        assert journaled == verdicts[0]


class TestOpen:
    def test_open_uses_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "env-run"))
        store = RunStore.open()
        assert store.persistent
        assert store.directory == tmp_path / "env-run"

    def test_open_without_directory_fails(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
        with pytest.raises(RunStoreError):
            RunStore.open()

    def test_journal_lines_are_valid_json(self, tmp_path):
        store = RunStore(tmp_path)
        store.record(unit(0), outcome(0))
        lines = (tmp_path / JOURNAL_FILENAME).read_text().splitlines()
        record = json.loads(lines[0])
        assert record["kind"] == "unit"
        assert record["outcome"]["functional_passed"] is True
