"""Benchmark evaluation: the check core, pass@k scoring and the in-memory evaluator.

The evaluator scores a generation pipeline (backend + optional SI-CoT) on a
benchmark suite the same way the paper does:

* ``n`` samples are drawn per task (default 10) at each configured temperature,
  and — following RTLCoder and the paper's setup — the best functional result
  over the temperature sweep is reported;
* every sample is compiled with the syntax checker (syntax correctness) and, if
  it compiles, simulated against the task's golden model (functional
  correctness);
* per-task (n, c) counts are aggregated with the unbiased pass@k estimator.

:func:`check_samples` is the one implementation of draw → syntax check →
check job → verdict, shared by the resumable run engine
(:meth:`repro.runs.engine.RunEngine.execute_units`) and
:class:`BenchmarkEvaluator`.  Each unique ``(candidate design, stimulus,
mode)`` triple becomes one :class:`~repro.bench.jobs.CheckRequest`, executed
once and memoised by its content-addressed
:class:`~repro.bench.jobs.ResultKey`.  Repeated candidates — across samples,
temperatures, whole ``evaluate`` calls — cost a dict lookup.  So does
everything else that depends only on the source or the task: a candidate's
syntax verdict and design key are kept by source text, a task's stimulus and
key halves by ``(task, temperature)``, in memos the caller scopes (the run
engine keeps them for its lifetime).  DUT elaboration rides the shared
:class:`~repro.verilog.design.DesignDatabase`.  With
``EvaluationConfig(max_workers=N)`` the checks execute on a process pool.
:func:`task_result` and :func:`best_temperature` score per task for the
evaluator and for the streaming aggregator alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain, count
from typing import Callable, Iterable, Mapping, Sequence

from ..core.llm.base import GenerationConfig
from ..core.pipeline import HaVenPipeline
from ..verilog.simulator.testbench import ExpectedTrace
from ..verilog.syntax_checker import SyntaxChecker
from .golden import GoldenCache
from .jobs import (
    CheckExecution,
    CheckOutcome,
    CheckRequest,
    ExecutionPolicy,
    ResultKey,
    design_key,
    mode_key,
    run_checks,
    stimulus_key,
)
from .passk import compute_pass_at_k
from .task import BenchmarkSuite, BenchmarkTask

#: Failure examples kept per (task, temperature), in sample order.
MAX_FAILURE_EXAMPLES = 3


@dataclass
class EvaluationConfig:
    """How a suite evaluation is run."""

    num_samples: int = 10
    ks: tuple[int, ...] = (1, 5)
    temperatures: tuple[float, ...] = (0.2, 0.5, 0.8)
    seed: int = 0
    stimulus_seed: int = 1234
    max_tasks: int | None = None
    #: Re-check every generated-code run (combinational checks as batch
    #: lanes, clocked ones on the fused cycle loop after a scalar reset)
    #: against the scalar oracle and raise on any divergence (slow; CI use).
    #: Checks generated code cannot take run on the scalar oracle anyway.
    differential_oracle: bool = False
    #: ``"simulation"`` scores with stimulus sweeps; ``"formal"`` upgrades
    #: combinational tasks to complete SAT equivalence proofs against the
    #: reference design (sequential tasks and unprovable constructs fall back
    #: to the simulation path transparently).
    mode: str = "simulation"
    #: Conflict budget per SAT proof in formal mode (None = unbounded); an
    #: exhausted budget falls back to the simulation path for that sample.
    #: The budget is charged *per proof* even on the shared incremental
    #: session — every candidate of a sweep gets the full limit.
    formal_conflict_limit: int | None = 50_000
    #: k-induction depth for sequential tasks in formal mode — unbounded
    #: equivalence proofs instead of a silent simulation fallback.  ``0``
    #: disables induction (every sequential task simulates, as before).
    induction_depth: int = 4
    #: Worker processes for functional checks (1 = serial in-process).  A
    #: process pool that cannot start or keeps breaking hands its remaining
    #: checks back to serial execution.
    max_workers: int = 1
    #: Memoise check verdicts by ``(design, stimulus, mode)`` across samples,
    #: temperatures and ``evaluate`` calls.  Disable to force every check cold
    #: (the differential-testing and benchmark-baseline configuration).
    memoize_results: bool = True
    #: Wall-clock budget per functional-check attempt (None = no deadline).
    #: Cooperative: the simulators and the SAT search tick the deadline; pool
    #: workers additionally get a hard per-future deadline with a grace period.
    check_timeout_s: float | None = None
    #: Execution attempts per check before it is quarantined (1 = no retries).
    max_attempts: int = 3
    #: First-retry backoff delay; doubles per attempt with deterministic jitter.
    #: Only infrastructure faults (crash, deadline, ``OSError``,
    #: ``MemoryError``) back off; engine errors retry at once.
    retry_backoff_s: float = 0.05
    #: Ceiling on any single backoff delay.
    retry_backoff_cap_s: float = 2.0

    def single_temperature(self) -> "EvaluationConfig":
        """A copy that only evaluates the first temperature (for quick runs)."""
        return replace(self, temperatures=self.temperatures[:1])

    def to_dict(self) -> dict:
        """JSON-safe serialization (run manifests persist this verbatim)."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "EvaluationConfig":
        """Inverse of :meth:`to_dict`; unknown keys are ignored.

        Missing keys take the field default, except ``formal_conflict_limit``,
        which reads as ``None`` (unbounded) when absent.
        """
        values = {
            spec.name: _coerce(spec.type, payload[spec.name])
            for spec in fields(cls)
            if spec.name in payload
        }
        values.setdefault("formal_conflict_limit", None)
        return cls(**values)


_COERCE = {"int": int, "float": float, "bool": bool, "str": str}


def _coerce(annotation: str, value):
    """Coerce a JSON value to an :class:`EvaluationConfig` field annotation."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        item = _COERCE[annotation[len("tuple[") : -len(", ...]")]]
        return tuple(item(entry) for entry in value)
    return _COERCE[annotation](value)


@dataclass
class TaskResult:
    """Per-task scoring outcome (at the best temperature)."""

    task_id: str
    category: str
    num_samples: int
    num_functional_passes: int
    num_syntax_passes: int
    temperature: float
    failure_examples: list[str] = field(default_factory=list)
    #: Samples whose checks were quarantined (burned every execution attempt).
    #: They count as non-passes in this result, but their verdicts are infra
    #: faults, not candidate failures — they are never memoized, so a later
    #: ``evaluate`` call re-attempts them.
    num_quarantined: int = 0

    @property
    def passed_at_least_once(self) -> bool:
        return self.num_functional_passes > 0

    def to_dict(self) -> dict:
        payload = {
            "task_id": self.task_id,
            "category": self.category,
            "num_samples": self.num_samples,
            "num_functional_passes": self.num_functional_passes,
            "num_syntax_passes": self.num_syntax_passes,
            "temperature": self.temperature,
            "failure_examples": list(self.failure_examples),
        }
        if self.num_quarantined:
            payload["num_quarantined"] = self.num_quarantined
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TaskResult":
        return cls(
            task_id=str(payload["task_id"]),
            category=str(payload["category"]),
            num_samples=int(payload["num_samples"]),
            num_functional_passes=int(payload["num_functional_passes"]),
            num_syntax_passes=int(payload["num_syntax_passes"]),
            temperature=float(payload["temperature"]),
            failure_examples=[str(entry) for entry in payload.get("failure_examples", [])],
            num_quarantined=int(payload.get("num_quarantined", 0)),
        )


@dataclass
class SuiteResult:
    """Aggregate scoring outcome for one model on one suite."""

    suite_name: str
    model_name: str
    task_results: list[TaskResult] = field(default_factory=list)
    ks: tuple[int, ...] = (1, 5)

    def functional_pass_at_k(self) -> dict[int, float]:
        counts = [(r.num_samples, r.num_functional_passes) for r in self.task_results]
        return compute_pass_at_k(counts, self.ks).values

    def syntax_pass_at_k(self) -> dict[int, float]:
        counts = [(r.num_samples, r.num_syntax_passes) for r in self.task_results]
        return compute_pass_at_k(counts, self.ks).values

    def functional_percentages(self) -> dict[int, float]:
        return {k: round(100.0 * v, 1) for k, v in self.functional_pass_at_k().items()}

    def syntax_percentages(self) -> dict[int, float]:
        return {k: round(100.0 * v, 1) for k, v in self.syntax_pass_at_k().items()}

    def by_category(self) -> dict[str, tuple[int, int]]:
        """category → (tasks passed at least once, total tasks)."""
        summary: dict[str, tuple[int, int]] = {}
        for result in self.task_results:
            passed, total = summary.get(result.category, (0, 0))
            summary[result.category] = (passed + (1 if result.passed_at_least_once else 0), total + 1)
        return summary

    def category_pass_at_1(self) -> dict[str, float]:
        """Per-category pass@1 (used for the Table V modality breakdown)."""
        by_category: dict[str, list[tuple[int, int]]] = {}
        for result in self.task_results:
            by_category.setdefault(result.category, []).append(
                (result.num_samples, result.num_functional_passes)
            )
        return {
            category: compute_pass_at_k(counts, (1,)).values[1]
            for category, counts in by_category.items()
        }

    def to_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "model_name": self.model_name,
            "ks": list(self.ks),
            "task_results": [result.to_dict() for result in self.task_results],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SuiteResult":
        return cls(
            suite_name=str(payload["suite_name"]),
            model_name=str(payload["model_name"]),
            ks=tuple(int(k) for k in payload.get("ks", (1, 5))),
            task_results=[TaskResult.from_dict(entry) for entry in payload.get("task_results", [])],
        )


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
    database=None,
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
        database=database,
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
    draws: Sequence[tuple[BenchmarkTask, float, Sequence[int] | None]],
    config: EvaluationConfig,
    memo: dict[ResultKey, CheckExecution],
    checker: SyntaxChecker,
    database=None,
    warning_sink: Callable[[dict], object] | None = None,
    *,
    syntax: dict[str, SyntaxVerdict] | None = None,
    check_keys: dict[tuple[str, float], TaskCheckKeys] | None = None,
) -> list[list[SampleCheck]]:
    """Generate, syntax-check and functionally check every drawn sample.

    Each draw is ``(task, temperature, sample indices)``: the indices are
    drawn one by one (``generate_at``), ``None`` draws the whole
    ``range(num_samples)`` with one ``generate`` call.

    Work that depends only on the source or the task is done once per key
    of the caller's memos (fresh per call when not given): ``syntax`` keeps
    each source text's :func:`syntax_verdict`, and ``check_keys`` each
    ``(task id, temperature)``'s :func:`task_check_keys`.  Task ids are
    unique within one suite only, so a ``check_keys`` memo must serve the
    draws of one suite (and one ``config``).

    This is the check core of both the run engine and
    :class:`BenchmarkEvaluator`.  A check request is built only for a
    :class:`ResultKey` that is neither already requested in this call nor
    settled in ``memo``; it carries the task golden's outputs, recorded once
    per stimulus key (:meth:`ExpectedTrace.record`).  The requests run in one
    :func:`run_checks` batch, and its settled (non-quarantined) executions
    enter ``memo``.  Execution warnings go to ``warning_sink`` as dicts.

    Returns one list per draw, in draw order, of each sample's
    :class:`SampleCheck`.  Every compiled sample's outcome carries its
    execution's verdict; a quarantined one carries the synthetic failure.
    """
    syntax = {} if syntax is None else syntax
    check_keys = {} if check_keys is None else check_keys
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
        for index, sample in zip(indices or count(), generation.samples):
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
                    task, sample.code, check.key, stimulus, expected, config, database=database
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


def task_result(
    task: BenchmarkTask,
    temperature: float,
    outcomes: Sequence[CheckOutcome],
    num_quarantined: int = 0,
) -> TaskResult:
    """Score one (task, temperature): counts plus capped failure examples.

    ``outcomes`` are in sample order; the first :data:`MAX_FAILURE_EXAMPLES`
    syntax errors or functional failure summaries become the examples.
    """
    functional_passes = syntax_passes = 0
    failures: list[str] = []
    for outcome in outcomes:
        syntax_passes += outcome.syntax_ok
        if outcome.syntax_ok and outcome.functional_passed:
            functional_passes += 1
        elif len(failures) < MAX_FAILURE_EXAMPLES:
            failures.append(outcome.failure_summary if outcome.syntax_ok else outcome.syntax_error)
    return TaskResult(
        task_id=task.task_id,
        category=task.category,
        num_samples=len(outcomes),
        num_functional_passes=functional_passes,
        num_syntax_passes=syntax_passes,
        temperature=temperature,
        failure_examples=failures,
        num_quarantined=num_quarantined,
    )


def best_temperature(candidates: Iterable[TaskResult]) -> TaskResult | None:
    """The candidate with the most functional passes; the first wins ties."""
    return max(candidates, key=lambda result: result.num_functional_passes, default=None)


class BenchmarkEvaluator:
    """Run a pipeline over a suite and score it in memory.

    A thin wrapper over :func:`check_samples`, the run engine's check core:
    one call draws every (task, temperature) of the suite in full, and each
    task scores at its best temperature.

    Args:
        config: sampling/scoring plan.
        database: :class:`~repro.verilog.design.DesignDatabase` shared by the
            syntax checker and the runners of checks that run in this
            process (defaults to the process-wide database); pool workers
            compile through their own process-wide database.
    """

    def __init__(self, config: EvaluationConfig | None = None, database=None):
        self.config = config or EvaluationConfig()
        self.database = database
        self.checker = SyntaxChecker(database=database)
        #: Cross-run verdict memo: content-addressed, so repeated candidates
        #: (across temperatures, runs, pipelines) are scored exactly once.
        #: Only *settled* verdicts enter it — quarantined checks (transient
        #: infra faults that burned every attempt) are deliberately excluded,
        #: so they are re-attempted instead of permanently scored as failures.
        #: Stays empty with ``memoize_results`` off.
        self.memo: dict[ResultKey, CheckExecution] = {}
        #: Structured execution warnings (pool degradation, quarantines)
        #: accumulated across ``evaluate`` calls; callers may drain this.
        self.warnings: list[dict] = []

    def evaluate(self, pipeline: HaVenPipeline, suite: BenchmarkSuite) -> SuiteResult:
        """Evaluate ``pipeline`` on ``suite`` with the configured sampling plan.

        A quarantined sample counts as a non-pass (``num_quarantined``) whose
        failure example is the quarantine summary, and each quarantined key
        adds one ``"quarantined"`` warning.
        """
        if not self.config.temperatures:
            raise ValueError("EvaluationConfig.temperatures is empty: no sample can be drawn")
        tasks = list(suite)[: self.config.max_tasks]
        draws = [
            (task, temperature, None) for task in tasks for temperature in self.config.temperatures
        ]
        checked = check_samples(
            pipeline,
            draws,
            self.config,
            self.memo if self.config.memoize_results else {},
            self.checker,
            database=self.database,
            warning_sink=self.warnings.append,
        )
        quarantined = {
            check.key: (task, check.execution)
            for (task, _, _), samples in zip(draws, checked)
            for check in samples
            if check.quarantined
        }
        for key, (task, execution) in quarantined.items():
            self.warnings.append(
                {
                    "category": "quarantined",
                    "message": (
                        f"check for task {task.task_id!r} quarantined "
                        f"after {execution.attempts} attempt(s): {execution.error}"
                    ),
                    "detail": {
                        "task_id": task.task_id,
                        "design_key": key.design_key,
                        "attempts": execution.attempts,
                        "error": execution.error,
                    },
                }
            )
        scored = iter(
            task_result(
                task,
                temperature,
                [check.outcome for check in samples],
                num_quarantined=sum(check.quarantined for check in samples),
            )
            for (task, temperature, _), samples in zip(draws, checked)
        )
        # Draws are task-major: each task's temperatures are consecutive.
        return SuiteResult(
            suite_name=suite.name,
            model_name=pipeline.name,
            ks=self.config.ks,
            task_results=[
                best_temperature(next(scored) for _ in self.config.temperatures) for _ in tasks
            ],
        )


def evaluate_models(
    pipelines: Sequence[HaVenPipeline],
    suites: Sequence[BenchmarkSuite],
    config: EvaluationConfig | None = None,
) -> dict[tuple[str, str], SuiteResult]:
    """Evaluate several pipelines on several suites; keys are (model, suite) names.

    One evaluator (and therefore one verdict memo) is shared across the whole
    grid, so a candidate produced by several pipelines is checked once.
    """
    evaluator = BenchmarkEvaluator(config)
    results: dict[tuple[str, str], SuiteResult] = {}
    for pipeline in pipelines:
        for suite in suites:
            results[(pipeline.name, suite.name)] = evaluator.evaluate(pipeline, suite)
    return results


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
