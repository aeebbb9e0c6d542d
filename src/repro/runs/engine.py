"""The run engine: execute a manifest's work units into a store, resumably.

Execution is grouped per ``(profile, suite)``.  For every task × temperature
with pending units, only the missing sample indices are drawn from the
pipeline's deterministic sample stream (one ``generate_indices`` call, each
sample seeded by its own index — so a resumed or sharded run reproduces the
serial samples bit-for-bit).  Drawing,
syntax-checking, deduplicating by :class:`~repro.bench.outcomes.ResultKey` and
executing through :func:`~repro.bench.jobs.run_checks` (process pool when the
manifest's ``EvaluationConfig.max_workers`` says so) is
:func:`~repro.bench.evaluator.check_samples`, the check core.  Each unit is
journaled as a :class:`~repro.bench.outcomes.CheckOutcome` as soon as its group
finishes; units already journaled are never re-executed, which is the whole
resume story: kill the process at any point, re-invoke, and it continues
where the journal ends, losing at most the group that was running.

Checks run per group, but the memos are per engine: every settled
(non-quarantined) :class:`~repro.bench.jobs.CheckExecution` is kept by its
``ResultKey`` for the engine's lifetime, so a candidate that several
profiles, groups or service leases produce for the same task is checked once
per run.  A memo hit journals exactly what a duplicate inside one group does
(the first execution's attempts, degradation, duration and proof stats).
Quarantined executions never enter the memo, so a later group re-attempts
them.  Beside it the engine keeps each source's syntax verdict and each
suite task's stimulus and key halves, so a run syntax-checks every distinct
source once and builds every task's check keys once per temperature.  With
``EvaluationConfig.memoize_results`` off, nothing is shared between groups
(the guaranteed-cold baseline).

Sharding: ``run(shard_index=i, shard_count=n)`` executes the units whose
position in the deterministic expansion order is ``i (mod n)``.  Disjoint
shards can fill one store concurrently; the merged journal aggregates to the
same results as a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..bench import suites
from ..bench.evaluator import SampleCheck, SyntaxVerdict, TaskCheckKeys, check_samples
from ..bench.jobs import CheckExecution
from ..bench.outcomes import CheckOutcome, ResultKey
from ..core.llm import simulated  # noqa: F401 - see below
from ..verilog.syntax_checker import SyntaxChecker
from .manifest import RunManifest, WorkUnit
from .resolve import ManifestResolver
from .store import RunStore

# A run builds its suites and its simulated-LLM pipelines before it checks a
# unit: the resolver imports their modules lazily, so load them with the
# engine and no unit pays for the import.
suites.import_builders()


@dataclass
class RunStats:
    """What one ``RunEngine.run`` invocation did."""

    total_units: int = 0  # units in this invocation's scope (after sharding)
    executed: int = 0  # units actually generated/checked this invocation
    skipped: int = 0  # units already journaled (resume hits)
    quarantined: int = 0  # units journaled as poison this invocation

    @property
    def complete(self) -> bool:
        return self.executed + self.skipped + self.quarantined >= self.total_units


@dataclass(frozen=True)
class QuarantineInfo:
    """Why a unit was poisoned instead of scored."""

    attempts: int
    error: str
    degradation: tuple[str, ...] = ()


@dataclass
class UnitResult:
    """One executed unit: a scored outcome, or the quarantine that claimed it."""

    unit: WorkUnit
    outcome: CheckOutcome | None = None
    quarantine: QuarantineInfo | None = None

    @property
    def quarantined(self) -> bool:
        return self.quarantine is not None


#: Callback signature for degraded-execution warnings raised mid-execution.
WarningSink = Callable[[str, str, dict | None], object]


def _unit_result(unit: WorkUnit, check: SampleCheck) -> UnitResult:
    """A checked sample as a unit result: its outcome, or its quarantine."""
    if not check.quarantined:
        return UnitResult(unit=unit, outcome=check.outcome)
    execution = check.execution
    return UnitResult(
        unit=unit,
        quarantine=QuarantineInfo(
            attempts=execution.attempts,
            error=execution.error,
            degradation=tuple(execution.degradation),
        ),
    )


def _groups(units: Sequence[WorkUnit]) -> dict[tuple[str, str], list[WorkUnit]]:
    """``units`` by (profile, suite), each group in the units' order."""
    groups: dict[tuple[str, str], list[WorkUnit]] = {}
    for unit in units:
        groups.setdefault((unit.profile_id, unit.suite_id), []).append(unit)
    return groups


class RunEngine:
    """Execute a manifest into a store, skipping journaled units."""

    def __init__(
        self,
        manifest: RunManifest,
        store: RunStore,
        resolver: ManifestResolver | None = None,
    ):
        self.manifest = manifest
        self.store = store
        self.resolver = resolver or ManifestResolver(manifest)
        self.checker = SyntaxChecker()
        #: Run-wide verdict memo: settled executions by content address.
        self._verdicts: dict[ResultKey, CheckExecution] = {}
        #: Run-wide syntax verdicts by source text.
        self._syntax: dict[str, SyntaxVerdict] = {}
        #: Run-wide check keys: suite id → (task id, temperature) → keys.
        self._check_keys: dict[str, dict[tuple[str, float], TaskCheckKeys]] = {}
        #: The manifest's expansion, kept from a :meth:`units` call until the
        #: next :meth:`run` takes it.
        self._units: tuple[WorkUnit, ...] | None = None
        store.write_manifest(manifest)

    # ------------------------------------------------------------------ planning
    def units(self) -> list[WorkUnit]:
        """The manifest's full work-unit list in deterministic expansion order.

        A caller that sizes a run before :meth:`run` and the run itself share
        one expansion; every call returns a new list of the same units.
        :meth:`run` releases the expansion, so an engine kept after its run
        holds no units.
        """
        if self._units is None:
            self._units = tuple(self.manifest.expand(self.resolver.suite_task_ids()))
        return list(self._units)

    def shard_units(self, shard_index: int = 0, shard_count: int = 1) -> list[WorkUnit]:
        if shard_count < 1 or not (0 <= shard_index < shard_count):
            raise ValueError(f"invalid shard {shard_index}/{shard_count}")
        return [
            unit
            for position, unit in enumerate(self.units())
            if position % shard_count == shard_index
        ]

    # ------------------------------------------------------------------ execution
    def run(
        self,
        shard_index: int = 0,
        shard_count: int = 1,
        max_units: int | None = None,
    ) -> RunStats:
        """Execute this shard's pending units; return what was done.

        ``max_units`` caps how many *pending* units are executed this
        invocation (used by tests to simulate a crash mid-sweep and by
        operators to run a sweep in bounded slices).  Each (profile, suite)
        group is journaled as soon as it finishes, so an exception or a kill
        mid-sweep loses only the group that was running.
        """
        units = self.shard_units(shard_index, shard_count)
        self._units = None
        stats = RunStats(total_units=len(units))

        pending: list[WorkUnit] = []
        for unit in units:
            if unit.key in self.store:
                stats.skipped += 1
            else:
                pending.append(unit)
        if max_units is not None:
            pending = pending[:max_units]

        for group in _groups(pending).values():
            for result in self.execute_units(group, warning_sink=self.store.record_warning):
                if result.quarantine is not None:
                    # The check burned every attempt: journal the unit as poison
                    # so resume skips it instead of re-running it.
                    self.store.record_quarantine(
                        result.unit,
                        attempts=result.quarantine.attempts,
                        error=result.quarantine.error,
                        degradation=result.quarantine.degradation,
                    )
                    stats.quarantined += 1
                else:
                    self.store.record(result.unit, result.outcome)
                    stats.executed += 1
        return stats

    def execute_units(
        self,
        pending: Sequence[WorkUnit],
        warning_sink: WarningSink | None = None,
    ) -> list[UnitResult]:
        """Generate and check ``pending`` units without journaling them.

        This is the execution core shared by :meth:`run` (which journals into
        this engine's store) and the service worker fleet (which journals
        through the broker's completion lock).  Results come back in plan
        order; execution warnings from the fault-tolerant check layer go to
        ``warning_sink`` as ``(category, message, detail)``.

        Units are checked per ``(profile, suite)`` group, one
        :func:`~repro.bench.evaluator.check_samples` call each, against the
        engine's memos (see the module docstring).
        """
        forward = None
        if warning_sink is not None:

            def forward(warning: dict) -> None:
                warning_sink(warning["category"], warning["message"], warning.get("detail"))

        config = self.manifest.config
        memoize = config.memoize_results
        results: list[UnitResult] = []
        for (profile_id, suite_id), group in _groups(pending).items():
            # (task, temperature) → the units whose sample indices to draw.
            task_units: dict[tuple[str, float], list[WorkUnit]] = {}
            for unit in group:
                task_units.setdefault((unit.task_id, unit.temperature), []).append(unit)
            pipeline = self.resolver.pipeline(profile_id)
            suite_spec = next(s for s in self.manifest.suites if s.suite_id == suite_id)
            tasks = {task.task_id: task for task in self.resolver.tasks(suite_spec)}
            checked = check_samples(
                pipeline,
                [
                    (tasks[task_id], temperature, [unit.sample_index for unit in unit_list])
                    for (task_id, temperature), unit_list in task_units.items()
                ],
                config,
                self._verdicts if memoize else {},
                self.checker,
                warning_sink=forward,
                syntax=self._syntax if memoize else {},
                check_keys=self._check_keys.setdefault(suite_id, {}) if memoize else {},
            )
            for unit_list, samples in zip(task_units.values(), checked):
                results.extend(map(_unit_result, unit_list, samples))
        return results

    # ------------------------------------------------------------------ status
    def progress(self) -> tuple[int, int]:
        """(journaled units of this manifest, total units)."""
        return self.store.progress(self.units())
