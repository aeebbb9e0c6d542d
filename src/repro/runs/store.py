"""Persistent result store for experiment runs.

A :class:`RunStore` is a directory holding:

* ``manifest.json`` — the sweep declaration (written once, hash-checked on
  reopen so a journal can never be extended under a different manifest);
* ``journal.jsonl`` — an append-only journal with one JSON record per
  completed work unit, plus ``quarantine`` records for poison units that
  burned every execution attempt (resume skips them instead of re-running
  them forever) and ``warning`` records for degraded-execution events
  (pool rebuilds, a pool that cannot start).

Each append (:meth:`RunStore.append`, one record or a whole batch) is one
``O_APPEND`` write of whole lines, so disjoint shard processes can safely fill
one journal concurrently.  A store remembers the byte offset it has read the
journal up to: :meth:`RunStore.refresh` parses only the lines appended since
then (other shards' or other processes' appends), so a long-lived view costs
O(new bytes) per refresh, not O(journal).  A store's own append moves that
offset past its lines when nothing else was written, so they are not parsed
back.
On load, a corrupted, truncated, or schema-invalid line (the signature of a
crash mid-write) is dropped and counted in :attr:`RunStore.recovered_lines`;
the unit it described simply re-runs.  A journal that got shorter than the
stored offset (replaced or truncated behind the store's back) is re-read from
the start.  ``RunStore.open()`` resolves the directory from
the ``REPRO_RUN_DIR`` environment variable when none is given;
``RunStore.ephemeral()`` keeps the journal purely in memory for library
callers that do not want persistence.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..bench.jobs import CheckOutcome
from .manifest import RunManifest, WorkUnit

#: Environment variable naming the default run directory.
RUN_DIR_ENV = "REPRO_RUN_DIR"

MANIFEST_FILENAME = "manifest.json"
JOURNAL_FILENAME = "journal.jsonl"


class RunStoreError(RuntimeError):
    """Raised on store misuse (missing directory, manifest mismatch, ...)."""


#: An outcome payload missing any of these cannot rebuild a CheckOutcome.
_REQUIRED_OUTCOME_FIELDS = ("sample_index", "temperature", "syntax_ok")


def _valid_record(record) -> bool:
    """Schema gate for journal lines: parseable JSON is not enough.

    A torn write can leave a line that *is* valid JSON (e.g. the tail of one
    record completing the head of another) but describes nothing the
    aggregators can use; admitting it would crash reporting much later, far
    from the corruption.  Invalid lines are dropped at load like torn ones.
    """
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return False
    kind = record.get("kind", "unit")
    if kind == "unit":
        outcome = record.get("outcome")
        return isinstance(outcome, dict) and all(
            name in outcome for name in _REQUIRED_OUTCOME_FIELDS
        )
    if kind == "quarantine":
        return isinstance(record.get("quarantine"), dict)
    if kind == "warning":
        return isinstance(record.get("warning"), dict)
    return False


def read_new_lines(path: Path, offset: int) -> tuple[list[bytes], int, bool]:
    """The complete lines appended to ``path`` after byte ``offset``.

    Returns ``(lines, new_offset, torn)``: ``new_offset`` sits just past the
    last newline read, so a trailing partial line is never consumed — it may
    still be mid-write by another process — and ``torn`` says one is there.
    A file shorter than ``offset`` (truncated or replaced) is read from the
    start, which callers see as ``new_offset < offset``; a missing file reads
    as empty.
    """
    try:
        if os.stat(path).st_size == offset:
            return [], offset, False  # nothing appended: no need to open it
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size < offset:
                offset = 0
            handle.seek(offset)
            data = handle.read()
    except FileNotFoundError:
        return [], 0, False
    end = data.rfind(b"\n") + 1
    return data[:end].split(b"\n")[:-1], offset + end, end < len(data)


_GENERATIONS = itertools.count()


class RunStore:
    """Append-only journal + index of completed work units.

    A persistent store loads its journal on construction; :meth:`refresh`
    then admits only the lines appended since the last read, and
    :meth:`reload` starts over from byte zero.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._journal = (
            self.directory / JOURNAL_FILENAME if self.directory is not None else None
        )
        self._reset()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.refresh()

    def _reset(self) -> None:
        self.recovered_lines = 0
        #: Changes whenever ``records()`` starts over (construction, a shrunk
        #: journal, :meth:`reload`) and is unique across stores, so a
        #: (generation, count) pair names a prefix of one store's records.
        self.generation = next(_GENERATIONS)
        self._records: list[dict] = []
        self._index: dict[str, dict] = {}
        #: Journal bytes already parsed (always just past a newline).
        self._offset = 0

    # ------------------------------------------------------------------ constructors
    @classmethod
    def open(cls, directory: str | Path | None = None) -> "RunStore":
        """Open (creating if needed) the run directory, defaulting to $REPRO_RUN_DIR."""
        directory = directory or os.environ.get(RUN_DIR_ENV)
        if not directory:
            raise RunStoreError(
                f"no run directory given and {RUN_DIR_ENV} is not set"
            )
        return cls(directory)

    @classmethod
    def ephemeral(cls) -> "RunStore":
        """A store with no backing directory (in-memory journal only)."""
        return cls(None)

    @property
    def persistent(self) -> bool:
        return self.directory is not None

    # ------------------------------------------------------------------ manifest
    def write_manifest(self, manifest: RunManifest) -> None:
        """Persist the manifest, or validate it against the one already stored."""
        existing = self.load_manifest()
        if existing is not None:
            if existing.manifest_hash != manifest.manifest_hash:
                raise RunStoreError(
                    "run directory already holds a different manifest "
                    f"({existing.manifest_hash[:12]} != {manifest.manifest_hash[:12]})"
                )
            return
        if self.directory is not None:
            path = self.directory / MANIFEST_FILENAME
            path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
        self._manifest = manifest

    def load_manifest(self) -> RunManifest | None:
        """The stored manifest, or None when the store has none yet."""
        cached = getattr(self, "_manifest", None)
        if cached is not None:
            return cached
        if self.directory is None:
            return None
        path = self.directory / MANIFEST_FILENAME
        if not path.exists():
            return None
        manifest = RunManifest.from_dict(json.loads(path.read_text()))
        self._manifest = manifest
        return manifest

    # ------------------------------------------------------------------ journal
    def refresh(self) -> None:
        """Admit the journal lines appended since the last read.

        Other shards' and processes' appends become visible; lines this
        store already parsed are not read again.  A journal shorter than the
        stored offset triggers a full :meth:`reload`.
        """
        if self.directory is None:
            return
        path = self._journal
        lines, offset, torn = read_new_lines(path, self._offset)
        if offset < self._offset:
            self._reset()  # the journal shrank: these lines start from byte 0
        self._offset = offset
        if torn:
            # The journal ends mid-line: a crash tore the final append, or
            # another process's write is still landing.  Terminate it so later
            # appends land on their own line instead of gluing onto the torn
            # tail.  O_APPEND writes are serialised per file, so an in-flight
            # write finishes before this newline and re-reads whole; a torn
            # one re-reads as an invalid line and is dropped below.
            with open(path, "ab") as handle:
                handle.write(b"\n")
            more, self._offset, _ = read_new_lines(path, self._offset)
            lines += more
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8", errors="replace"))
                if not _valid_record(record):
                    raise ValueError("not a journal record")
            except ValueError:
                # A torn, corrupted, or schema-invalid line — expected for the
                # trailing line after a crash mid-append; the unit it
                # described re-runs.
                self.recovered_lines += 1
                continue
            self._admit(record)

    def _admit(self, record: dict) -> bool:
        key = record["key"]
        if key in self._index:
            return False
        self._records.append(record)
        self._index[key] = record
        return True

    def append(self, records: Sequence[dict]) -> list[bool]:
        """Journal ``records`` in one write; one flag per record, False for
        a key already journaled (earlier in ``records`` included).

        When the file then holds exactly the bytes this store had parsed plus
        its own lines, the read offset moves past them: the next
        :meth:`refresh` does not parse them back.  Any other writer's bytes
        leave the offset where it was, so :meth:`refresh` still admits them.
        """
        flags = [self._admit(record) for record in records]
        if self.directory is None or not any(flags):
            return flags
        data = "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record, fresh in zip(records, flags)
            if fresh
        ).encode("utf-8")
        # One O_APPEND write: concurrent shard processes interleave whole
        # writes, never halves of lines.
        fd = os.open(self._journal, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
            if os.fstat(fd).st_size == self._offset + len(data):
                self._offset += len(data)
        finally:
            os.close(fd)
        return flags

    def record(self, unit: WorkUnit, outcome: CheckOutcome) -> bool:
        """Journal one completed unit (idempotent; returns False on repeat)."""
        return self.append([unit_record(unit, outcome)])[0]

    def record_quarantine(
        self,
        unit: WorkUnit,
        *,
        attempts: int,
        error: str,
        degradation: Sequence[str] = (),
    ) -> bool:
        """Journal a poison unit: it burned every attempt and must not re-run.

        The record claims the unit's key, so resume treats the unit as done
        (skipping it) while the aggregators and ``status`` count it as
        quarantined rather than scored.
        """
        record = quarantine_record(
            unit, attempts=attempts, error=error, degradation=degradation
        )
        return self.append([record])[0]

    def record_warning(
        self, category: str, message: str, detail: Mapping | None = None
    ) -> bool:
        """Journal a degraded-execution warning (pool churn, an unavailable pool).

        Warnings are keyed by their content hash, so the same condition
        reported by several shards (or re-invocations) lands once.
        """
        payload: dict = {"category": str(category), "message": str(message)}
        if detail:
            payload["detail"] = dict(detail)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        record = {
            "kind": "warning",
            "key": f"warning:{digest[:16]}",
            "warning": payload,
        }
        return self.append([record])[0]

    # ------------------------------------------------------------------ queries
    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._records)

    def completed_keys(self) -> set[str]:
        return set(self._index)

    def records(self, start: int = 0) -> Iterator[dict]:
        """Journal records in append order, from the ``start``-th on."""
        return iter(self._records[start:])

    def quarantined_records(self) -> list[dict]:
        """Quarantine records in append order."""
        return [r for r in self._records if r.get("kind") == "quarantine"]

    def warning_records(self) -> list[dict]:
        """Warning records in append order."""
        return [r for r in self._records if r.get("kind") == "warning"]

    def outcome_for(self, key: str) -> CheckOutcome | None:
        record = self._index.get(key)
        if record is None or "outcome" not in record:
            return None
        return CheckOutcome.from_dict(record["outcome"])

    def reload(self) -> None:
        """Forget everything read so far and re-read the journal from disk."""
        if self.directory is None:
            return
        self._reset()
        self.refresh()


def _unit_header(unit: WorkUnit) -> dict:
    return {
        "key": unit.key,
        "manifest": unit.manifest_hash,
        "profile": unit.profile_id,
        "suite": unit.suite_id,
        "task": unit.task_id,
        "temperature": unit.temperature,
        "sample": unit.sample_index,
    }


def unit_record(unit: WorkUnit, outcome: CheckOutcome) -> dict:
    """The journal record of one completed unit."""
    return {"kind": "unit", "outcome": outcome.to_dict(), **_unit_header(unit)}


def quarantine_record(
    unit: WorkUnit, *, attempts: int, error: str, degradation: Sequence[str] = ()
) -> dict:
    """The journal record of one poison unit."""
    return {
        "kind": "quarantine",
        "quarantine": {
            "attempts": int(attempts),
            "error": str(error),
            "degradation": list(degradation),
        },
        **_unit_header(unit),
    }


def outcome_from_record(record: Mapping) -> CheckOutcome:
    """Decode the outcome payload of one journal record."""
    return CheckOutcome.from_dict(record["outcome"])
