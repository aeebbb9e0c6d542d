"""Evaluation jobs: memoisable, parallelisable functional checks.

The check core (:func:`repro.bench.evaluator.check_samples`, called by the
run engine) decomposes an evaluation into *check requests* — one per unique
``(candidate design, stimulus, scoring mode)`` triple.  Each request is:

* **content-addressed** by a :class:`ResultKey` (candidate-code hash ×
  stimulus/task hash × mode), so identical candidates sampled at different
  temperatures, runs, or pipelines are scored exactly once and every repeat is
  a dict lookup in the run engine's verdict memo, kept for the engine's
  lifetime;
* **self-contained** (code, the golden's recorded outputs, stimulus, reset
  spec, scoring flags), so it can be executed in the parent process or
  shipped to a worker process unchanged.

:func:`run_checks` executes a batch of requests *fault-tolerantly*.  With
``max_workers > 1`` it runs them on a process pool, and it survives the
execution layer misbehaving:

* **deadlines** — every attempt runs under a cooperative wall-clock budget
  (:mod:`repro.deadline`; the simulators' settle loops and the CDCL search
  tick it), and pool futures additionally get a *hard* per-future deadline:
  a worker that hangs non-cooperatively is terminated and the pool rebuilt;
* **retries** — a failed attempt requeues the request, degrading gracefully
  along the way (``formal`` → ``simulation`` on a deadline, batched → scalar
  simulation on an execution failure) with every degradation step recorded.
  Only *infrastructure faults* — a crashed worker (``BrokenProcessPool``), a
  cooperative or hard deadline, ``OSError``, ``MemoryError`` — wait out a
  bounded exponential backoff with deterministic jitter first.  Any other
  exception the check raises is an *engine error*: deterministic, so waiting
  cannot change it, and its retry runs at once with the same degradation;
* **quarantine** — a request that fails :attr:`ExecutionPolicy.max_attempts`
  attempts is marked :attr:`CheckExecution.quarantined` instead of sinking
  the batch, so callers (the run engine) can journal it and resume past it.

The result is an :class:`ExecutionReport`: verdicts keyed by
:class:`ResultKey` plus per-key execution metadata and run-level warnings, so
execution order never affects scoring and degraded runs stay visible.
:class:`ResultKey`, the journal record :class:`CheckOutcome` and
:func:`percentile` live in the engine-free :mod:`repro.bench.outcomes`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..deadline import CheckTimeout, deadline_scope
from ..verilog.simulator.testbench import (
    BatchTestbenchRunner,
    ExpectedTrace,
    ReplayGolden,
    ResetSpec,
    TestbenchResult,
    TestbenchRunner,
)
from .outcomes import CheckOutcome, ResultKey, percentile  # noqa: F401 - re-exported


# --------------------------------------------------------------------------- keys
def design_key(code: str, module_name: str | None = None) -> str:
    """Content hash of a candidate design (code + module selection)."""
    payload = f"{module_name!r}|{code}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stimulus_key(
    task_id: str,
    stimulus: Sequence[Mapping[str, int]],
    check_outputs: Sequence[str] | None,
    clock: str,
    reset: ResetSpec | None,
    reference_source: str = "",
    salt: str = "",
) -> str:
    """Hash of everything on the *checking* side of a verdict.

    ``task_id`` + ``reference_source`` pin the golden model: ids alone can
    collide across differently-seeded suite builds, but every task's reference
    design is validated against its golden, so the reference text is a
    content-addressed fingerprint of the expected behaviour.  The
    stimulus/outputs/clock/reset pin the testbench.  ``salt`` lets a caller
    deliberately split the memo (e.g. per temperature when memoisation is
    disabled for differential runs).
    """
    reset_repr = (
        (reset.signal, reset.active_low, reset.synchronous, reset.cycles)
        if reset is not None
        else None
    )
    payload = repr(
        (
            task_id,
            hashlib.sha256(reference_source.encode("utf-8")).hexdigest(),
            [tuple(sorted(vector.items())) for vector in stimulus],
            tuple(check_outputs) if check_outputs is not None else None,
            clock,
            reset_repr,
            salt,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def mode_key(
    *,
    mode: str,
    differential: bool,
    formal_conflict_limit: int | None,
    induction_depth: int = 4,
) -> str:
    """Scoring-mode component of a :class:`ResultKey`.

    Existing durable result stores keep their keys: every check scores on
    the batched runner, so the key keeps its constant ``batch=True`` field,
    and ``induction_depth`` only enters the key at non-default values
    (k-induction at the default depth replaced a simulation fallback, which
    never produced a *formal-mode pass* for those tasks before — stored
    passes stay valid).
    """
    if mode == "formal":
        induction = "" if induction_depth == 4 else f"|induction={induction_depth}"
        return (
            f"formal:{formal_conflict_limit}|batch=True"
            f"|diff={differential}{induction}"
        )
    return f"simulation|batch=True|diff={differential}"


# --------------------------------------------------------------------------- requests
@dataclass
class CheckRequest:
    """One self-contained functional check of a candidate against its task."""

    key: ResultKey
    code: str
    task_id: str
    #: The task golden's outputs over ``stimulus``; every attempt scores
    #: against a fresh :class:`ReplayGolden` of it.
    expected: ExpectedTrace
    stimulus: list[dict[str, int]] = field(default_factory=list)
    reference_source: str = ""
    check_outputs: list[str] | None = None
    clock: str = "clk"
    reset: ResetSpec | None = None
    mode: str = "simulation"
    #: Score on :class:`BatchTestbenchRunner` (generated code where it can);
    #: the retry layer clears it to degrade a failed attempt to the scalar
    #: :class:`TestbenchRunner` (``batch->scalar``).
    use_batch: bool = True
    differential: bool = False
    formal_conflict_limit: int | None = 50_000
    #: k-induction depth for sequential tasks under formal mode (unbounded
    #: proofs; inconclusive inductions fall back to simulation).  ``0``
    #: restores the old behaviour of simulating every sequential task.
    induction_depth: int = 4
    #: Wall-clock budget for one execution attempt (None → no deadline, or
    #: the :class:`ExecutionPolicy` default when run through ``run_checks``).
    timeout_s: float | None = None
    #: 1-based attempt number, stamped by the executor on every (re)try.  It
    #: travels with the pickled request, so fault injection and logging stay
    #: deterministic across process boundaries.
    attempt: int = 1


#: Per-process incremental equivalence sessions, keyed by (reference design
#: key, checked-output tuple): every candidate of a sweep that lands on this
#: worker proves against the same persistent solver, which stays in that process.
_worker_sessions: dict[tuple[str, tuple[str, ...] | None], object] = {}
#: Insertion-ordered eviction cap — a worker serving many distinct references
#: (e.g. a whole suite) keeps the most recent sessions, each of which owns a
#: solver with a growing clause database.
_WORKER_SESSION_CAP = 32


def _session_for(request: CheckRequest):
    """The worker's :class:`EquivalenceSession` for this request's reference.

    Raises ``FormalEncodingError`` when the reference is outside the provable
    subset (callers fall back to simulation, same as the one-shot prover).
    """
    from ..formal import EquivalenceSession

    key = (
        design_key(request.reference_source),
        tuple(request.check_outputs) if request.check_outputs is not None else None,
    )
    session = _worker_sessions.get(key)
    if session is None:
        session = EquivalenceSession(
            request.reference_source,
            outputs=request.check_outputs,
            conflict_limit=request.formal_conflict_limit,
        )
        while len(_worker_sessions) >= _WORKER_SESSION_CAP:
            _worker_sessions.pop(next(iter(_worker_sessions)))
        _worker_sessions[key] = session
    return session


def execute_check(request: CheckRequest) -> tuple[ResultKey, TestbenchResult]:
    """Execute one check request; safe to run in a worker process.

    Formal mode attempts a complete SAT equivalence proof first and
    transparently falls back to the stimulus sweep; simulation mode runs the
    batched testbench against a replay of the task golden's expected outputs.

    The whole attempt runs under ``request.timeout_s`` (if set): the
    simulators' settle loops and the SAT search tick the deadline, so a
    runaway check raises :class:`~repro.deadline.CheckTimeout` here rather
    than stalling its process.
    """
    with deadline_scope(request.timeout_s):
        from ..runs.faults import maybe_inject

        maybe_inject(request.task_id, request.key.design_key, request.attempt)
        if request.mode == "formal":
            formal = _formal_check(request)
            if formal is not None:
                return request.key, formal
        if request.use_batch:
            runner: TestbenchRunner = BatchTestbenchRunner(
                clock=request.clock, reset=request.reset, differential=request.differential
            )
        else:
            runner = TestbenchRunner(clock=request.clock, reset=request.reset)
        golden = ReplayGolden(request.expected)
        result = runner.run(
            request.code, golden, request.stimulus, check_outputs=request.check_outputs
        )
        return request.key, result


def timed_execute_check(
    request: CheckRequest,
) -> tuple[ResultKey, TestbenchResult, float]:
    """:func:`execute_check` plus the attempt's worker-side wall clock.

    The duration is measured where the check actually ran, so pool results
    report compute time rather than compute time plus queueing.
    """
    started = time.monotonic()
    key, result = execute_check(request)
    return key, result, time.monotonic() - started


def _proof_stats_dict(proof) -> dict:
    """Journal-ready SAT accounting for one :class:`EquivalenceResult`."""
    stats = proof.stats
    payload = {
        "method": proof.method,
        "conflicts": stats.conflicts,
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "learned_clauses": stats.learned_clauses,
    }
    if proof.sequential_steps:
        payload["sequential_steps"] = proof.sequential_steps
    return payload


def _formal_check(request: CheckRequest) -> TestbenchResult | None:
    """Complete SAT equivalence proof against the task's reference design.

    Combinational tasks are proven on the worker's persistent
    :class:`EquivalenceSession`; sequential tasks get an **unbounded**
    k-induction proof at ``request.induction_depth``.  Returns ``None`` (→ simulation fallback) for
    designs outside the provable subset, inconclusive inductions, or an
    exhausted SAT conflict budget.
    """
    from ..formal import ConflictLimitExceeded, FormalEncodingError, FormalError
    from ..verilog.errors import VerilogError
    from .golden import formal_equivalence_check

    sequential = request.expected.is_sequential
    if sequential and request.induction_depth < 1:
        return None
    try:
        if sequential:
            reset = request.reset
            proof = formal_equivalence_check(
                request.code,
                request.reference_source,
                outputs=request.check_outputs,
                clock=request.clock,
                reset=reset.signal if reset is not None else None,
                reset_active_low=bool(reset.active_low) if reset is not None else False,
                conflict_limit=request.formal_conflict_limit,
                induction_depth=request.induction_depth,
            )
        else:
            proof = formal_equivalence_check(
                request.code,
                request.reference_source,
                outputs=request.check_outputs,
                conflict_limit=request.formal_conflict_limit,
                session=_session_for(request),
            )
    except (FormalEncodingError, ConflictLimitExceeded):
        return None  # outside the provable subset / budget: simulate instead
    except (FormalError, VerilogError) as exc:
        return TestbenchResult(passed=False, error=str(exc))
    if proof.equivalent:
        return TestbenchResult(
            passed=True,
            total_checks=len(proof.checked_outputs),
            proof_stats=_proof_stats_dict(proof),
        )
    counterexample = proof.counterexample
    mismatches = []
    if counterexample is not None:
        from ..verilog.simulator.testbench import Mismatch

        for name in counterexample.missing_outputs:
            mismatches.append(
                Mismatch(
                    step_index=0,
                    output=name,
                    expected=0,
                    actual="<missing>",
                    inputs=dict(counterexample.inputs),
                )
            )
        for step, name in counterexample.mismatching_outputs:
            mismatches.append(
                Mismatch(
                    step_index=step,
                    output=name,
                    expected=counterexample.reference_outputs[step][name],
                    actual=str(counterexample.dut_outputs[step][name]),
                    inputs=dict(counterexample.steps[step]),
                )
            )
    return TestbenchResult(
        passed=False,
        total_checks=len(proof.checked_outputs),
        mismatches=mismatches,
        proof_stats=_proof_stats_dict(proof),
    )


# --------------------------------------------------------------------------- policy
@dataclass
class ExecutionPolicy:
    """Fault-tolerance knobs for one :func:`run_checks` batch."""

    #: Default per-attempt wall-clock budget for requests that do not carry
    #: their own ``timeout_s`` (None → no deadline).
    timeout_s: float | None = None
    #: Attempts per request before quarantine (1 = no retries).
    max_attempts: int = 3
    #: First-retry backoff; doubles per attempt, plus deterministic jitter.
    #: Applies to infrastructure faults only; engine errors retry at once.
    backoff_s: float = 0.05
    #: Ceiling on any single backoff delay.
    backoff_cap_s: float = 2.0
    #: Extra wall clock granted to a pool future past its cooperative budget
    #: before the parent declares the worker hung and recycles the pool.
    hard_grace_s: float = 1.0

    @classmethod
    def from_config(cls, config) -> "ExecutionPolicy":
        """Derive a policy from an :class:`~repro.bench.scoring.EvaluationConfig`."""
        timeout = getattr(config, "check_timeout_s", None)
        return cls(
            timeout_s=float(timeout) if timeout is not None else None,
            max_attempts=int(getattr(config, "max_attempts", 3)),
            backoff_s=float(getattr(config, "retry_backoff_s", 0.05)),
            backoff_cap_s=float(getattr(config, "retry_backoff_cap_s", 2.0)),
        )


@dataclass
class CheckExecution:
    """One settled verdict plus how execution got there."""

    result: TestbenchResult
    attempts: int = 1
    degradation: tuple[str, ...] = ()
    timed_out: bool = False
    #: True when the request burned every attempt: ``result`` is then a
    #: synthetic failure and the caller should journal the unit as poisoned
    #: rather than scored.
    quarantined: bool = False
    error: str = ""
    #: Wall-clock seconds each attempt took, in attempt order.  Worker-side
    #: where the attempt ran to completion, parent-side (submit→settle) for
    #: attempts that died in flight.
    attempt_durations: tuple[float, ...] = ()

    @property
    def duration_s(self) -> float:
        """Duration of the attempt that settled the verdict (0.0 if unknown)."""
        return self.attempt_durations[-1] if self.attempt_durations else 0.0

    @property
    def total_duration_s(self) -> float:
        """Wall clock spent across every attempt (excludes backoff waits)."""
        return sum(self.attempt_durations)


@dataclass
class ExecutionReport:
    """Everything :func:`run_checks` learned: verdicts, metadata, warnings."""

    executions: dict[ResultKey, CheckExecution] = field(default_factory=dict)
    warnings: list[dict] = field(default_factory=list)

    def results(self) -> dict[ResultKey, TestbenchResult]:
        """Verdicts keyed by :class:`ResultKey` (the pre-fault-tolerance API)."""
        return {key: execution.result for key, execution in self.executions.items()}

    def warn(self, category: str, message: str, **detail) -> None:
        entry: dict = {"category": category, "message": message}
        if detail:
            entry["detail"] = detail
        self.warnings.append(entry)


# --------------------------------------------------------------------------- scheduling
@dataclass(eq=False)
class _WorkItem:
    """Mutable retry state for one unique request (identity semantics)."""

    request: CheckRequest
    attempt: int = 1
    degradation: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Wall-clock seconds per attempt, in attempt order (see
    #: :attr:`CheckExecution.attempt_durations`).
    durations: list[float] = field(default_factory=list)
    #: Ever blew a *hard* (parent-enforced) deadline — i.e. hung a worker
    #: non-cooperatively.  Such an item must never run in the parent process.
    hard_timed_out: bool = False
    #: Implicated in a pool break; runs isolated (alone in flight) until it
    #: either settles or is quarantined, so the next break assigns exact blame.
    suspect: bool = False
    #: Monotonic timestamp before which the item may not be (re)submitted.
    not_before: float = 0.0


def _backoff_delay(policy: ExecutionPolicy, key: ResultKey, attempt: int) -> float:
    """Exponential backoff before ``attempt`` with deterministic jitter.

    The jitter derives from the result key and attempt number, so a rerun of
    the same failing batch backs off identically — chaos tests and bisections
    stay reproducible.
    """
    if policy.backoff_s <= 0:
        return 0.0
    base = policy.backoff_s * (2 ** max(0, attempt - 2))
    seed = f"{key.design_key}|{key.stimulus_key}|{key.mode}|{attempt}"
    digest = hashlib.sha256(seed.encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32  # [0, 1)
    return min(policy.backoff_cap_s, base * (1.0 + jitter))


def _failure_kind(exc: BaseException) -> str:
    """Classify an exception a check attempt raised.

    ``"timeout"`` for a cooperative deadline and ``"fault"`` for ``OSError``
    or ``MemoryError``: infrastructure faults, which blame the execution
    layer and retry behind :func:`_backoff_delay`.  ``"error"`` for an engine
    error, anything else the check raised (a formal-engine ``ValueError``, an
    injected ``raise``): deterministic, so it retries at once.
    """
    if isinstance(exc, CheckTimeout):
        return "timeout"
    if isinstance(exc, (OSError, MemoryError)):
        return "fault"
    return "error"


def _apply_degradation(item: _WorkItem, kind: str) -> None:
    """Degrade the retry so it avoids the machinery that just failed.

    A deadline blown in formal mode drops the proof attempt (the SAT search is
    the open-ended part); a deadline, infrastructure fault or engine error in
    batched simulation drops to the scalar simulator, whether or not the
    retry waits out a backoff first.  A worker *crash* does not degrade: the
    retry must reproduce the fault-free verdict bit-for-bit, and a crash says
    nothing about which execution path is at fault.
    """
    if kind == "crash":
        return
    request = item.request
    if kind == "timeout" and request.mode == "formal":
        item.request = replace(request, mode="simulation")
        item.degradation.append("formal->simulation")
        return
    if request.use_batch:
        item.request = replace(request, use_batch=False)
        item.degradation.append("batch->scalar")


def _register_failure(
    item: _WorkItem,
    policy: ExecutionPolicy,
    report: ExecutionReport,
    *,
    kind: str,
    error: str,
) -> bool:
    """Record a failed attempt; returns True when the item is now quarantined.

    ``kind`` is ``"crash"``, ``"timeout"``, ``"fault"`` or ``"error"`` (see
    :func:`_failure_kind`).  When attempts remain the item is degraded (see
    :func:`_apply_degradation`) and the caller requeues it.  Infrastructure
    failures are gated behind their backoff delay; an engine error is
    deterministic, so its retry is ungated and runs at once.
    """
    item.errors.append(error)
    if item.attempt >= max(1, policy.max_attempts):
        result = TestbenchResult(
            passed=False,
            error=f"quarantined after {item.attempt} attempt(s): {error}",
        )
        report.executions[item.request.key] = CheckExecution(
            result=result,
            attempts=item.attempt,
            degradation=tuple(item.degradation),
            timed_out=kind == "timeout",
            quarantined=True,
            error=error,
            attempt_durations=tuple(item.durations),
        )
        return True
    item.attempt += 1
    _apply_degradation(item, kind)
    item.not_before = (
        0.0
        if kind == "error"
        else time.monotonic() + _backoff_delay(policy, item.request.key, item.attempt)
    )
    return False


def _record_success(
    item: _WorkItem, report: ExecutionReport, key: ResultKey, result: TestbenchResult
) -> None:
    report.executions[key] = CheckExecution(
        result=result,
        attempts=item.attempt,
        degradation=tuple(item.degradation),
        attempt_durations=tuple(item.durations),
    )


def _quarantine_unrunnable(
    items: Sequence[_WorkItem], report: ExecutionReport
) -> list[_WorkItem]:
    """Split items for in-parent execution, quarantining the ones that hung.

    An item that ever blew a hard deadline hung a worker non-cooperatively; in
    the parent process the same hang would stall the whole run with nothing
    left to enforce the deadline, so it is quarantined instead of retried.
    """
    runnable: list[_WorkItem] = []
    for item in items:
        if not item.hard_timed_out:
            runnable.append(item)
            continue
        error = item.errors[-1] if item.errors else "worker unresponsive"
        result = TestbenchResult(
            passed=False,
            error=f"quarantined after {item.attempt} attempt(s): {error}",
        )
        report.executions[item.request.key] = CheckExecution(
            result=result,
            attempts=item.attempt,
            degradation=tuple(item.degradation),
            timed_out=True,
            quarantined=True,
            error=error,
            attempt_durations=tuple(item.durations),
        )
    return runnable


def _kill_pool(pool, report: ExecutionReport | None = None) -> None:
    """Terminate a pool's workers and discard it (hung workers never join).

    Worker termination reaches through the executor's private ``_processes``
    table (the stdlib offers no public kill-the-workers API).  If a future
    Python release removes it, the degradation is *loud*: a
    ``pool-terminate-degraded`` warning records that hung workers could only
    be abandoned (``shutdown(wait=False)``), not terminated.
    """
    processes = getattr(pool, "_processes", None)
    if processes is None and report is not None:
        report.warn(
            "pool-terminate-degraded",
            "ProcessPoolExecutor._processes is unavailable on this Python; "
            "hung workers are abandoned, not terminated",
        )
    for process in list((processes or {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


# --------------------------------------------------------------------------- execution
def _execute_serial(
    items: Sequence[_WorkItem], policy: ExecutionPolicy, report: ExecutionReport
) -> None:
    """Run items in the parent process with the same retry/quarantine rules."""
    for item in items:
        while True:
            item.request.attempt = item.attempt
            started = time.monotonic()
            try:
                key, result, duration = timed_execute_check(item.request)
            except Exception as exc:
                item.durations.append(time.monotonic() - started)
                if _register_failure(
                    item, policy, report, kind=_failure_kind(exc), error=str(exc)
                ):
                    break
            else:
                item.durations.append(duration)
                _record_success(item, report, key, result)
                break
            delay = item.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)


def _execute_pool(
    items: list[_WorkItem],
    max_workers: int,
    policy: ExecutionPolicy,
    report: ExecutionReport,
) -> list[_WorkItem]:
    """Run items on a process pool, surviving crashes and hangs.

    Returns the items that should fall back to in-parent execution (pool
    never started, or was rebuilt so often it was abandoned).  Hung items are
    quarantined rather than returned — see :func:`_quarantine_unrunnable`.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    from ..runs.faults import mark_pool_worker

    workers = min(max_workers, len(items))

    try:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=mark_pool_worker)
    except Exception as exc:
        report.warn("pool-unavailable", f"process pool could not start: {exc}")
        return _quarantine_unrunnable(items, report)

    queue: list[_WorkItem] = list(items)
    in_flight: dict = {}  # future -> _WorkItem
    hard_deadline: dict = {}  # future -> float | None
    submitted: dict = {}  # future -> monotonic submit time (failure durations)
    rebuilds = 0
    rebuild_cap = max(1, policy.max_attempts) * len(items)

    def submit_ready() -> None:
        nonlocal queue
        now = time.monotonic()
        # Suspects run isolated (alone in flight) so the next pool break
        # implicates exactly one item; drain non-suspects first.
        queue.sort(key=lambda entry: entry.suspect)
        pending = queue
        queue = []
        held: list[_WorkItem] = []
        for index, item in enumerate(pending):
            if len(in_flight) >= workers:
                # Never submit more futures than workers: the hard deadline
                # starts ticking at submission, so a future queued behind a
                # busy worker would burn its budget before it ever ran and be
                # falsely swept as a hung worker.  Held items resubmit as
                # slots free up.
                held.extend(pending[index:])
                break
            suspect_in_flight = any(
                entry.suspect for entry in in_flight.values()
            )
            if (
                item.not_before > now
                or suspect_in_flight
                or (item.suspect and in_flight)
            ):
                held.append(item)
                continue
            item.request.attempt = item.attempt
            try:
                future = pool.submit(timed_execute_check, item.request)
            except Exception:
                held.extend(pending[index:])
                queue = held
                raise
            in_flight[future] = item
            submitted[future] = now
            hard_deadline[future] = (
                now + item.request.timeout_s + policy.hard_grace_s
                if item.request.timeout_s is not None
                else None
            )
        queue = held

    def wait_bound() -> float | None:
        now = time.monotonic()
        bounds = [
            deadline - now for deadline in hard_deadline.values() if deadline is not None
        ]
        bounds.extend(item.not_before - now for item in queue if item.not_before > now)
        if not bounds:
            return None
        return max(0.0, min(bounds))

    def handle_break(first_item: _WorkItem) -> None:
        """Assign blame for a dead pool and requeue everything implicated.

        Suspects in flight take the blame (and an attempt) — on the first
        break there are none, so everyone implicated becomes a suspect.
        Collateral items requeue free: losing an attempt to a neighbour's
        crash would let one poison unit quarantine innocent work.
        """
        now = time.monotonic()
        for future, item in in_flight.items():
            item.durations.append(now - submitted.get(future, now))
        implicated = [first_item] + list(in_flight.values())
        in_flight.clear()
        hard_deadline.clear()
        submitted.clear()
        suspects = [item for item in implicated if item.suspect]
        if suspects:
            blamed = suspects
            collateral = [item for item in implicated if not item.suspect]
        else:
            blamed = implicated
            collateral = []
            for item in blamed:
                item.suspect = True
        for item in blamed:
            if not _register_failure(
                item,
                policy,
                report,
                kind="crash",
                error="worker process died (broken pool)",
            ):
                queue.append(item)
        queue.extend(collateral)

    while queue or in_flight:
        if rebuilds > rebuild_cap:
            report.warn(
                "pool-degraded",
                f"process pool rebuilt {rebuilds} times; abandoning pool execution",
                rebuilds=rebuilds,
            )
            leftovers = list(in_flight.values()) + queue
            _kill_pool(pool, report)
            return _quarantine_unrunnable(leftovers, report)

        broken = False
        try:
            submit_ready()
        except Exception:
            # The pool refused the submission.  In-flight futures (if any)
            # will surface the break through wait(); with nothing in flight
            # the pool is plainly dead — rebuild it now.
            if not in_flight:
                broken = True

        if not broken and not in_flight:
            # Everything still queued is gated behind a backoff delay.
            now = time.monotonic()
            gates = [item.not_before for item in queue if item.not_before > now]
            if gates:
                time.sleep(min(gates) - now)
            continue

        if not broken:
            done, _ = wait(
                set(in_flight), timeout=wait_bound(), return_when=FIRST_COMPLETED
            )
            for future in done:
                item = in_flight.pop(future, None)
                hard_deadline.pop(future, None)
                elapsed = time.monotonic() - submitted.pop(future, time.monotonic())
                if item is None:  # swept up by an earlier handle_break
                    continue
                try:
                    key, result, duration = future.result()
                except BrokenProcessPool:
                    item.durations.append(elapsed)
                    handle_break(item)
                    broken = True
                except Exception as exc:
                    item.durations.append(elapsed)
                    if not _register_failure(
                        item, policy, report, kind=_failure_kind(exc), error=str(exc)
                    ):
                        queue.append(item)
                else:
                    item.durations.append(duration)
                    _record_success(item, report, key, result)

            if not broken and not done:
                # wait() timed out: look for futures past their hard deadline
                # — workers hung beyond the cooperative budget plus grace.
                now = time.monotonic()
                hung = [
                    future
                    for future, deadline in hard_deadline.items()
                    if deadline is not None and now >= deadline
                ]
                if hung:
                    for future in hung:
                        item = in_flight.pop(future, None)
                        hard_deadline.pop(future, None)
                        elapsed = now - submitted.pop(future, now)
                        if item is None:
                            continue
                        item.durations.append(elapsed)
                        item.hard_timed_out = True
                        item.suspect = True
                        budget = item.request.timeout_s
                        if not _register_failure(
                            item,
                            policy,
                            report,
                            kind="timeout",
                            error=(
                                f"hard deadline exceeded after {budget:.3g}s"
                                " (worker unresponsive)"
                            ),
                        ):
                            queue.append(item)
                    # The hung workers must die; whoever else was in flight
                    # on them is collateral and requeues free.
                    queue.extend(in_flight.values())
                    in_flight.clear()
                    hard_deadline.clear()
                    submitted.clear()
                    broken = True

        if broken:
            _kill_pool(pool, report)
            rebuilds += 1
            try:
                pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=mark_pool_worker
                )
            except Exception as exc:
                report.warn(
                    "pool-unavailable", f"process pool could not restart: {exc}"
                )
                leftovers = list(in_flight.values()) + queue
                return _quarantine_unrunnable(leftovers, report)

    pool.shutdown(wait=True)
    return []


def run_checks(
    requests: Sequence[CheckRequest],
    max_workers: int = 1,
    policy: ExecutionPolicy | None = None,
) -> ExecutionReport:
    """Execute every request once, fault-tolerantly; see the module docstring.

    ``max_workers > 1`` dispatches the requests to a process pool.  Every
    unique key gets exactly one :class:`CheckExecution` — quarantined keys
    carry a synthetic failed verdict, so callers indexing
    :meth:`ExecutionReport.results` never KeyError.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    report = ExecutionReport()
    unique: dict[ResultKey, CheckRequest] = {}
    for request in requests:
        unique.setdefault(request.key, request)

    items: list[_WorkItem] = []
    for request in unique.values():
        if request.timeout_s is None and policy.timeout_s is not None:
            request = replace(request, timeout_s=policy.timeout_s)
        items.append(_WorkItem(request=request))

    if max_workers > 1 and len(items) > 1:
        items = _execute_pool(items, max_workers, policy, report)
    _execute_serial(items, policy, report)
    return report
