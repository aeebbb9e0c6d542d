"""Retry classification: only infrastructure faults wait out a backoff.

A failed check attempt is retried up to ``max_attempts`` times either way,
with the same degradation and the same quarantine text.  What differs is the
wait: a crash, a deadline, an ``OSError`` or a ``MemoryError`` retries behind
the deterministic :func:`repro.bench.jobs._backoff_delay`; any other exception
the check raises is an engine error, which no wait can change, so its retry
runs at once.

``time`` inside :mod:`repro.bench.jobs` is swapped for a fake clock whose
``sleep`` records the delay and advances the clock instead of blocking, so a
5 s backoff costs the test nothing and every wait is observable.
"""

from __future__ import annotations

import time

import pytest

import repro.bench.jobs as jobs
from repro.bench.jobs import (
    CheckRequest,
    ExecutionPolicy,
    ResultKey,
    _backoff_delay,
    design_key,
    run_checks,
)
from repro.deadline import CheckTimeout
from repro.runs.faults import FAULTS_ENV, FaultSpec, clear_faults, faults_env_value
from repro.verilog.simulator.testbench import ExpectedTrace

AND_MODULE = "module t(input a, input b, output y);\n    assign y = a & b;\nendmodule\n"
OR_MODULE = AND_MODULE.replace("&", "|")
STIMULUS = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]

POLICY = ExecutionPolicy(max_attempts=3, backoff_s=5.0, backoff_cap_s=100.0)


class FakeClock:
    """Stand-in for the ``time`` module: ``sleep`` advances, never blocks."""

    def __init__(self) -> None:
        self.offset = 0.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return time.monotonic() + self.offset

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.offset += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(jobs, "time", fake)
    return fake


@pytest.fixture
def gates(monkeypatch, clock):
    """``(kind, not_before, now)`` after every failure that leaves a retry."""
    recorded: list[tuple[str, float, float]] = []
    register = jobs._register_failure

    def spy(item, policy, report, *, kind, error):
        quarantined = register(item, policy, report, kind=kind, error=error)
        if not quarantined:
            recorded.append((kind, item.not_before, clock.monotonic()))
        return quarantined

    monkeypatch.setattr(jobs, "_register_failure", spy)
    return recorded


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_faults()
    yield
    clear_faults()


def _request(code: str, task_id: str, error: Exception | None = None) -> CheckRequest:
    """A check of ``code`` against AND; ``error`` makes every attempt raise it."""
    outputs = tuple({"y": v["a"] & v["b"]} for v in STIMULUS)
    expected = (
        ExpectedTrace(False, (), error) if error is not None else ExpectedTrace(False, outputs)
    )
    return CheckRequest(
        key=ResultKey(design_key(code), task_id, "simulation"),
        code=code,
        task_id=task_id,
        expected=expected,
        stimulus=list(STIMULUS),
    )


def _batch(failing: CheckRequest) -> list[CheckRequest]:
    """The failing request next to a healthy one (so a pool really runs)."""
    return [failing, _request(AND_MODULE, "healthy")]


def _assert_quarantined(report, request, error: str, *, timed_out: bool = False):
    execution = report.executions[request.key]
    assert execution.quarantined and execution.timed_out is timed_out
    assert (execution.attempts, execution.degradation) == (3, ("batch->scalar",))
    assert execution.error == error
    assert execution.result.error == f"quarantined after 3 attempt(s): {error}"
    healthy = [e for key, e in report.executions.items() if key != request.key]
    assert all(e.result.passed and e.attempts == 1 for e in healthy)


def _engine_error_cases(monkeypatch):
    """Two engine errors: a persistent injected raise and a ``ValueError``."""
    monkeypatch.setenv(FAULTS_ENV, faults_env_value([FaultSpec("raise", task_id="injected")]))
    return [
        (_request(OR_MODULE, "injected"), "injected fault on task 'injected' (attempt 3)"),
        (_request(OR_MODULE, "value", ValueError("input 'x' already declared")),
         "input 'x' already declared"),
    ]


@pytest.mark.parametrize("max_workers", [1, 2])
def test_engine_errors_retry_at_once(monkeypatch, clock, gates, max_workers):
    for request, error in _engine_error_cases(monkeypatch):
        report = run_checks(_batch(request), max_workers=max_workers, policy=POLICY)
        _assert_quarantined(report, request, error)
    assert clock.sleeps == []
    # Both retries of both items were requeued ungated.
    assert [(kind, not_before) for kind, not_before, _ in gates] == [("error", 0.0)] * 4


@pytest.mark.parametrize("max_workers", [1, 2])
@pytest.mark.parametrize(
    "error, kind",
    [(OSError("no space left on device"), "fault"), (CheckTimeout("budget spent"), "timeout")],
    ids=["oserror", "check-timeout"],
)
def test_infrastructure_faults_back_off(clock, gates, max_workers, error, kind):
    request = _request(OR_MODULE, "infra", error)
    report = run_checks(_batch(request), max_workers=max_workers, policy=POLICY)
    _assert_quarantined(report, request, str(error), timed_out=kind == "timeout")

    delays = [_backoff_delay(POLICY, request.key, attempt) for attempt in (2, 3)]
    assert delays[0] > 5.0 and delays[1] > 10.0  # jittered, uncapped
    assert [recorded for recorded, _, _ in gates] == [kind, kind]
    for (_, not_before, now), delay in zip(gates, delays):
        assert now - 1.0 < not_before - delay <= now
    # Each retry slept out the rest of its gate, once.
    assert len(clock.sleeps) == 2
    for slept, delay in zip(clock.sleeps, delays):
        assert delay - 1.0 < slept <= delay
