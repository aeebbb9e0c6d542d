"""Evaluation configuration and pass@k scoring: plain data, no check engine.

:class:`EvaluationConfig` is how a suite evaluation is run; a run manifest
persists it verbatim.  :func:`task_result` scores one (task, temperature)
from its journaled :class:`~repro.bench.outcomes.CheckOutcome`\\ s,
:func:`best_temperature` picks the reported temperature, and
:class:`SuiteResult` aggregates tasks into pass@k.  The check core
(:mod:`repro.bench.evaluator`) and the control plane (the manifest, the
streaming aggregator, report rendering) share these; this module imports
nothing from the check engines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .outcomes import CheckOutcome
from .passk import compute_pass_at_k

if TYPE_CHECKING:
    from .task import BenchmarkTask

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

    @property
    def passed_at_least_once(self) -> bool:
        return self.num_functional_passes > 0

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "category": self.category,
            "num_samples": self.num_samples,
            "num_functional_passes": self.num_functional_passes,
            "num_syntax_passes": self.num_syntax_passes,
            "temperature": self.temperature,
            "failure_examples": list(self.failure_examples),
        }


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


def task_result(
    task: BenchmarkTask,
    temperature: float,
    outcomes: Sequence[CheckOutcome],
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
    )


def best_temperature(candidates: Iterable[TaskResult]) -> TaskResult | None:
    """The candidate with the most functional passes; the first wins ties."""
    return max(candidates, key=lambda result: result.num_functional_passes, default=None)
