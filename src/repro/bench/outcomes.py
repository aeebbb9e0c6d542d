"""The journal's per-unit verdict record, its memo address and percentiles.

Plain data shared by both import layers: the check core
(:mod:`repro.bench.jobs`, :mod:`repro.bench.evaluator`) produces these
records, and the control plane — the run store, the aggregator, the broker
and the service's ``/metrics`` — reads them back from journals.  This module
imports nothing from the check engines, so reading a journal loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence


@dataclass(frozen=True)
class ResultKey:
    """Memoisation address of one functional-check verdict."""

    design_key: str
    stimulus_key: str
    mode: str


@dataclass
class CheckOutcome:
    """Persisted verdict of one generated sample (one work unit of a run).

    This is the journal-level record of the resumable run engine: everything
    the streaming aggregator needs to rebuild a
    :class:`~repro.bench.evaluator.TaskResult` bit-for-bit — the syntax verdict
    (with its one-error summary string), the functional verdict and its
    ``failure_summary`` — plus the candidate's content address for cross-run
    dedup and audit.
    """

    sample_index: int
    temperature: float
    syntax_ok: bool
    syntax_error: str = ""
    functional_passed: bool = False
    failure_summary: str = ""
    total_checks: int = 0
    design_key: str = ""
    #: Execution attempts the verdict took (1 = clean first try).
    attempts: int = 1
    #: Degradation steps applied before the verdict settled, in order
    #: (e.g. ``["formal->simulation", "batch->scalar"]``).  Empty for a clean
    #: run — and bit-for-bit identical journal payloads with old records.
    degradation: list[str] = field(default_factory=list)
    #: Wall-clock seconds of the settling check attempt (0.0 when unmeasured,
    #: e.g. a syntax-failed sample or a pre-duration journal record).  The
    #: service's ``/metrics`` p50/p99 latency summaries aggregate this field
    #: straight from the journal.
    duration_s: float = 0.0
    #: SAT-search accounting when the verdict came from a formal proof
    #: (conflicts, decisions, propagations, learned clauses, proof method).
    #: Empty — and absent from the journal payload — for simulation
    #: verdicts, so old journals replay bit-for-bit.
    proof_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "sample_index": self.sample_index,
            "temperature": self.temperature,
            "syntax_ok": self.syntax_ok,
            "syntax_error": self.syntax_error,
            "functional_passed": self.functional_passed,
            "failure_summary": self.failure_summary,
            "total_checks": self.total_checks,
            "design_key": self.design_key,
        }
        if self.attempts != 1:
            payload["attempts"] = self.attempts
        if self.degradation:
            payload["degradation"] = list(self.degradation)
        if self.duration_s:
            payload["duration_s"] = self.duration_s
        if self.proof_stats:
            payload["proof_stats"] = dict(self.proof_stats)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CheckOutcome":
        return cls(
            sample_index=int(payload["sample_index"]),
            temperature=float(payload["temperature"]),
            syntax_ok=bool(payload["syntax_ok"]),
            syntax_error=str(payload.get("syntax_error", "")),
            functional_passed=bool(payload.get("functional_passed", False)),
            failure_summary=str(payload.get("failure_summary", "")),
            total_checks=int(payload.get("total_checks", 0)),
            design_key=str(payload.get("design_key", "")),
            attempts=int(payload.get("attempts", 1)),
            degradation=[str(step) for step in payload.get("degradation", [])],
            duration_s=float(payload.get("duration_s", 0.0)),
            proof_stats=dict(payload.get("proof_stats", {}) or {}),
        )


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ascending ``sorted_samples`` (0 < q <= 1)."""
    if not sorted_samples:
        raise ValueError("no samples")
    index = min(len(sorted_samples) - 1, max(0, math.ceil(q * len(sorted_samples)) - 1))
    return sorted_samples[index]
