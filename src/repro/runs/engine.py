"""The run engine: execute a manifest's work units into a store, resumably.

Execution is planned per ``(profile, suite)`` group.  For every task ×
temperature with pending units, only the missing sample indices are drawn from
the pipeline's deterministic sample stream (``generate_at`` — so a resumed or
sharded run reproduces the serial samples bit-for-bit), syntax-checked, and the
compiled candidates become content-addressed
:class:`~repro.bench.jobs.CheckRequest`\\ s deduplicated by
:class:`~repro.bench.jobs.ResultKey` and executed through
:func:`~repro.bench.jobs.run_checks` (process pool when the manifest's
``EvaluationConfig.max_workers`` says so).  Each finished unit is journaled as
a :class:`~repro.bench.jobs.CheckOutcome`; units already journaled are never
re-executed, which is the whole resume story: kill the process at any point,
re-invoke, and it continues where the journal ends.

Planning is per group, but the verdict memo is per engine: every settled
(non-quarantined) :class:`~repro.bench.jobs.CheckExecution` is kept by its
``ResultKey`` for the engine's lifetime, so a candidate that several
profiles, groups or service leases produce for the same task is checked once
per run.  A memo hit journals exactly what a duplicate inside one group does
(the first execution's attempts, degradation, duration and proof stats).
Quarantined executions never enter the memo, so a later group re-attempts
them.  With ``EvaluationConfig.memoize_results`` off, nothing is shared
between groups (the guaranteed-cold baseline).

Sharding: ``run(shard_index=i, shard_count=n)`` executes the units whose
position in the deterministic expansion order is ``i (mod n)``.  Disjoint
shards can fill one store concurrently; the merged journal aggregates to the
same results as a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..bench.evaluator import check_request_for, task_check_keys
from ..bench.jobs import (
    CheckExecution,
    CheckOutcome,
    CheckRequest,
    ExecutionPolicy,
    ResultKey,
    design_key,
    run_checks,
)
from ..core.llm.base import GenerationConfig
from ..verilog.syntax_checker import SyntaxChecker
from .manifest import RunManifest, WorkUnit
from .resolve import ManifestResolver
from .store import RunStore


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


@dataclass
class _UnitPlan:
    """One pending unit while its check is in flight."""

    unit: WorkUnit
    outcome: CheckOutcome
    result_key: ResultKey | None  # None when the sample failed syntax


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
        store.write_manifest(manifest)

    # ------------------------------------------------------------------ planning
    def units(self) -> list[WorkUnit]:
        """The manifest's full work-unit list in deterministic expansion order."""
        return self.manifest.expand(self.resolver.suite_task_ids())

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
        operators to run a sweep in bounded slices).
        """
        units = self.shard_units(shard_index, shard_count)
        stats = RunStats(total_units=len(units))

        pending: list[WorkUnit] = []
        for unit in units:
            if unit.key in self.store:
                stats.skipped += 1
            else:
                pending.append(unit)
        if max_units is not None:
            pending = pending[:max_units]
        if not pending:
            return stats

        results = self.execute_units(pending, warning_sink=self.store.record_warning)
        for result in results:
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

        Units are planned per ``(profile, suite)`` group; a check request is
        built only for a result key that is neither already requested in
        this call nor settled in the engine's verdict memo (see the module
        docstring).
        """
        # Group pending units by (profile, suite) preserving expansion order,
        # then by (task, temperature) → missing sample indices.
        groups: dict[tuple[str, str], dict[tuple[str, float], list[WorkUnit]]] = {}
        for unit in pending:
            group = groups.setdefault((unit.profile_id, unit.suite_id), {})
            group.setdefault((unit.task_id, unit.temperature), []).append(unit)

        config = self.manifest.config
        results: list[UnitResult] = []
        for (profile_id, suite_id), task_units in groups.items():
            memo = self._verdicts if config.memoize_results else {}
            pipeline = self.resolver.pipeline(profile_id)
            suite_spec = next(s for s in self.manifest.suites if s.suite_id == suite_id)
            tasks = {task.task_id: task for task in self.resolver.tasks(suite_spec)}

            plans: list[_UnitPlan] = []
            requests: dict[ResultKey, CheckRequest] = {}
            for (task_id, temperature), unit_list in task_units.items():
                task = tasks[task_id]
                indices = [unit.sample_index for unit in unit_list]
                generation = pipeline.generate(
                    prompt=task.prompt,
                    interface=task.interface,
                    reference_source=task.reference_source,
                    demands=task.demands,
                    config=GenerationConfig(
                        temperature=temperature,
                        num_samples=config.num_samples,
                        seed=config.seed,
                    ),
                    prompt_style=task.prompt_style,
                    task_id=task.task_id,
                    sample_indices=indices,
                )
                stimulus, task_stimulus_key, task_mode_key = task_check_keys(
                    task, config, temperature
                )
                for unit, sample in zip(unit_list, generation.samples):
                    compile_result = self.checker.check(sample.code)
                    outcome = CheckOutcome(
                        sample_index=unit.sample_index,
                        temperature=temperature,
                        syntax_ok=compile_result.ok,
                        syntax_error=(
                            ""
                            if compile_result.ok
                            else "; ".join(compile_result.error_messages[:1])
                        ),
                        design_key=design_key(sample.code),
                    )
                    if not compile_result.ok:
                        plans.append(_UnitPlan(unit=unit, outcome=outcome, result_key=None))
                        continue
                    key = ResultKey(
                        design_key=outcome.design_key,
                        stimulus_key=task_stimulus_key,
                        mode=task_mode_key,
                    )
                    plans.append(_UnitPlan(unit=unit, outcome=outcome, result_key=key))
                    if key not in requests and key not in memo:
                        requests[key] = check_request_for(
                            task, sample.code, key, stimulus, config
                        )

            executions: dict[ResultKey, CheckExecution] = {}
            if requests:
                report = run_checks(
                    list(requests.values()),
                    max_workers=config.max_workers,
                    policy=ExecutionPolicy.from_config(config),
                )
                executions = report.executions
                for key, execution in executions.items():
                    if not execution.quarantined:
                        memo[key] = execution
                if warning_sink is not None:
                    for warning in report.warnings:
                        warning_sink(
                            warning["category"],
                            warning["message"],
                            warning.get("detail"),
                        )

            for plan in plans:
                if plan.result_key is not None:
                    key = plan.result_key
                    execution = executions[key] if key in executions else memo[key]
                    if execution.quarantined:
                        results.append(
                            UnitResult(
                                unit=plan.unit,
                                quarantine=QuarantineInfo(
                                    attempts=execution.attempts,
                                    error=execution.error,
                                    degradation=tuple(execution.degradation),
                                ),
                            )
                        )
                        continue
                    result = execution.result
                    plan.outcome.functional_passed = result.passed
                    plan.outcome.failure_summary = result.failure_summary
                    plan.outcome.total_checks = result.total_checks
                    plan.outcome.attempts = execution.attempts
                    plan.outcome.degradation = list(execution.degradation)
                    plan.outcome.duration_s = execution.duration_s
                    if getattr(result, "proof_stats", None):
                        plan.outcome.proof_stats = dict(result.proof_stats)
                results.append(UnitResult(unit=plan.unit, outcome=plan.outcome))
        return results

    # ------------------------------------------------------------------ status
    def progress(self) -> tuple[int, int]:
        """(journaled units of this manifest, total units)."""
        units = self.units()
        done = sum(1 for unit in units if unit.key in self.store)
        return done, len(units)
