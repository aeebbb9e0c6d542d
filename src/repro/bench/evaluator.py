"""Benchmark evaluation: the check core and pass@k scoring.

A pipeline (backend + optional SI-CoT) is scored on a benchmark suite the same
way the paper does:

* ``n`` samples are drawn per task (default 10) at each configured temperature,
  and — following RTLCoder and the paper's setup — the best functional result
  over the temperature sweep is reported;
* every sample is compiled with the syntax checker (syntax correctness) and, if
  it compiles, simulated against the task's golden model (functional
  correctness);
* per-task (n, c) counts are aggregated with the unbiased pass@k estimator.

:func:`check_samples` is the one implementation of draw → syntax check →
check job → verdict; the run engine
(:meth:`repro.runs.engine.RunEngine.execute_units`) calls it once per
``(profile, suite)`` group.  Each unique ``(candidate design, stimulus,
mode)`` triple becomes one :class:`~repro.bench.jobs.CheckRequest`, executed
once and memoised by its content-addressed
:class:`~repro.bench.outcomes.ResultKey`.  Repeated candidates — across samples,
temperatures, profiles — cost a dict lookup.  So does everything else that
depends only on the source or the task: a candidate's syntax verdict and
design key are kept by source text, a task's stimulus and key halves by
``(task, temperature)``, in memos the caller scopes (the run engine keeps them
for its lifetime).  DUT elaboration rides the process-wide
:class:`~repro.verilog.design.DesignDatabase`.  With
``EvaluationConfig(max_workers=N)`` the checks execute on a process pool.
The configuration and the per-task scoring the streaming aggregator uses
(:func:`task_result`, :func:`best_temperature`) live in the engine-free
:mod:`repro.bench.scoring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from ..core.llm.base import GenerationConfig
from ..core.pipeline import HaVenPipeline
from ..verilog.simulator.testbench import ExpectedTrace
from ..verilog.syntax_checker import SyntaxChecker
from .golden import GoldenCache
from .jobs import (
    CheckExecution,
    CheckRequest,
    ExecutionPolicy,
    design_key,
    mode_key,
    run_checks,
    stimulus_key,
)
from .outcomes import CheckOutcome, ResultKey
from .scoring import (  # noqa: F401 - re-exported
    MAX_FAILURE_EXAMPLES,
    EvaluationConfig,
    SuiteResult,
    TaskResult,
    best_temperature,
    task_result,
)
from .task import BenchmarkSuite, BenchmarkTask

#: A task's stimulus plus its (stimulus, mode) key halves (:func:`task_check_keys`).
TaskCheckKeys = tuple[list[dict[str, int]], str, str]
#: A candidate's ``(syntax_ok, first error or "", design_key)`` (:func:`syntax_verdict`).
SyntaxVerdict = tuple[bool, str, str]


def task_check_keys(
    task: BenchmarkTask, config: EvaluationConfig, temperature: float
) -> TaskCheckKeys:
    """Stimulus plus the (stimulus, mode) halves of every :class:`ResultKey`.

    This is the single definition of how a task's checking side is
    content-addressed; :func:`check_samples` builds every key here.
    With memoisation off, the key is salted per temperature so nothing is
    shared between temperature sweeps (the guaranteed-cold baseline).
    """
    stimulus = task.stimulus(config.stimulus_seed)
    salt = "" if config.memoize_results else f"T{temperature}"
    task_stimulus_key = stimulus_key(
        task.task_id,
        stimulus,
        task.check_outputs,
        task.clock,
        task.reset,
        reference_source=task.reference_source,
        salt=salt,
    )
    task_mode_key = mode_key(
        mode=config.mode,
        differential=config.differential_oracle,
        formal_conflict_limit=config.formal_conflict_limit,
        induction_depth=config.induction_depth,
    )
    return stimulus, task_stimulus_key, task_mode_key


def syntax_verdict(checker: SyntaxChecker, code: str) -> SyntaxVerdict:
    """What a sample's outcome needs of its syntax check: no AST, no warnings."""
    result = checker.check(code)
    error = "" if result.ok else "; ".join(result.error_messages[:1])
    return result.ok, error, design_key(code)


def check_request_for(
    task: BenchmarkTask,
    code: str,
    key: ResultKey,
    stimulus: list[dict[str, int]],
    expected: ExpectedTrace,
    config: EvaluationConfig,
) -> CheckRequest:
    """Build the self-contained check request for one compiled candidate."""
    return CheckRequest(
        key=key,
        code=code,
        task_id=task.task_id,
        expected=expected,
        stimulus=stimulus,
        reference_source=task.reference_source,
        check_outputs=task.check_outputs,
        clock=task.clock,
        reset=task.reset,
        mode=config.mode,
        differential=config.differential_oracle,
        formal_conflict_limit=config.formal_conflict_limit,
        induction_depth=config.induction_depth,
        timeout_s=config.check_timeout_s,
    )


@dataclass
class SampleCheck:
    """One drawn sample after checking: its outcome and the execution behind it."""

    outcome: CheckOutcome
    #: ``None`` (both) when the sample failed the syntax check.
    key: ResultKey | None = None
    execution: CheckExecution | None = None

    @property
    def quarantined(self) -> bool:
        return self.execution is not None and self.execution.quarantined


def check_samples(
    pipeline: HaVenPipeline,
    draws: Sequence[tuple[BenchmarkTask, float, Sequence[int]]],
    config: EvaluationConfig,
    memo: dict[ResultKey, CheckExecution],
    checker: SyntaxChecker,
    *,
    syntax: dict[str, SyntaxVerdict],
    check_keys: dict[tuple[str, float], TaskCheckKeys],
    warning_sink: Callable[[dict], object] | None = None,
) -> list[list[SampleCheck]]:
    """Generate, syntax-check and functionally check every drawn sample.

    Each draw is ``(task, temperature, sample indices)``; the indices are
    drawn one by one from the pipeline's sample stream (``generate_at``).

    Work that depends only on the source or the task is done once per key
    of the caller's memos: ``syntax`` keeps each source text's
    :func:`syntax_verdict`, and ``check_keys`` each ``(task id,
    temperature)``'s :func:`task_check_keys`.  Task ids are unique within one
    suite only, so a ``check_keys`` memo must serve the draws of one suite
    (and one ``config``).

    A check request is built only for a :class:`ResultKey` that is neither
    already requested in this call nor settled in ``memo``; it carries the
    task golden's outputs, recorded once per stimulus key
    (:meth:`ExpectedTrace.record`).  The requests run in one
    :func:`run_checks` batch, and its settled (non-quarantined) executions
    enter ``memo``.  Execution warnings go to ``warning_sink`` as dicts.

    Returns one list per draw, in draw order, of each sample's
    :class:`SampleCheck`.  Every compiled sample's outcome carries its
    execution's verdict; a quarantined one carries the synthetic failure.
    """
    checks: list[list[SampleCheck]] = []
    requests: dict[ResultKey, CheckRequest] = {}
    traces: dict[str, ExpectedTrace] = {}
    for task, temperature, indices in draws:
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
        keys = check_keys.get((task.task_id, temperature))
        if keys is None:
            keys = check_keys[task.task_id, temperature] = task_check_keys(
                task, config, temperature
            )
        stimulus, task_stimulus_key, task_mode_key = keys
        drawn: list[SampleCheck] = []
        for index, sample in zip(indices, generation.samples):
            verdict = syntax.get(sample.code)
            if verdict is None:
                verdict = syntax[sample.code] = syntax_verdict(checker, sample.code)
            syntax_ok, syntax_error, sample_design_key = verdict
            check = SampleCheck(
                CheckOutcome(
                    sample_index=index,
                    temperature=temperature,
                    syntax_ok=syntax_ok,
                    syntax_error=syntax_error,
                    design_key=sample_design_key,
                )
            )
            drawn.append(check)
            if not syntax_ok:
                continue
            check.key = ResultKey(
                design_key=sample_design_key,
                stimulus_key=task_stimulus_key,
                mode=task_mode_key,
            )
            if check.key not in requests and check.key not in memo:
                if task_stimulus_key not in traces:
                    traces[task_stimulus_key] = ExpectedTrace.record(task.golden(), stimulus)
                expected = traces[task_stimulus_key]
                requests[check.key] = check_request_for(
                    task, sample.code, check.key, stimulus, expected, config
                )
        checks.append(drawn)

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
                warning_sink(warning)

    for check in chain.from_iterable(checks):
        if check.key is None:
            continue
        execution = executions[check.key] if check.key in executions else memo[check.key]
        check.execution = execution
        result = execution.result
        check.outcome.functional_passed = result.passed
        check.outcome.failure_summary = result.failure_summary
        check.outcome.total_checks = result.total_checks
        check.outcome.attempts = execution.attempts
        check.outcome.degradation = list(execution.degradation)
        check.outcome.duration_s = execution.duration_s
        if getattr(result, "proof_stats", None):
            check.outcome.proof_stats = dict(result.proof_stats)
    return checks


def check_reference_designs(
    suite: BenchmarkSuite,
    stimulus_seed: int = 1234,
    max_tasks: int | None = None,
    differential: bool = False,
) -> dict[str, str]:
    """Check every task's golden Verilog reference against its Python golden model.

    This is the suite self-consistency sweep the benchmark builders expose
    (``verilogeval.validate_references`` etc.): the reference design must pass
    its own functional testbench.  Checks run on
    :class:`~repro.verilog.simulator.testbench.BatchTestbenchRunner`; pass
    ``differential=True`` to re-check every generated-code run against the
    scalar oracle.  Reference designs and golden models are cached (design
    database + :class:`~repro.bench.golden.GoldenCache`), so repeated sweeps
    stop rebuilding them.

    Returns:
        task_id → failure summary for every failing task (empty == all passed).
    """
    from ..verilog.simulator.testbench import BatchTestbenchRunner

    goldens = GoldenCache()
    failures: dict[str, str] = {}
    tasks = list(suite)
    if max_tasks is not None:
        tasks = tasks[:max_tasks]
    for task in tasks:
        runner = BatchTestbenchRunner(clock=task.clock, reset=task.reset, differential=differential)
        result = runner.run(
            task.reference_source,
            goldens.get(task),
            task.stimulus(stimulus_seed),
            check_outputs=task.check_outputs,
        )
        if not result.passed:
            failures[task.task_id] = result.failure_summary or "no checks executed"
    return failures
