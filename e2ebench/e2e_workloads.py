"""Workloads, per-unit verdicts and the stored output reference.

Three closed-loop workloads, each driven by one client (see WORKLOADS.md):

* ``table4-sim``: quick-scale Table IV in simulation mode, in-memory store;
* ``table5-formal``: Table V's symbolic subset in formal mode;
* ``service-queue``: a two-baseline quick Table IV, submitted over HTTP to a
  ``repro.service serve`` process with one worker process.

``--seed n`` picks a generation or stimulus seed, ``n % REFERENCE_SEEDS``
(see :func:`manifest_for`): ``reference.json``, written by
``make_reference.py``, holds the expected outputs of those seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping

WORKLOADS = ("table4-sim", "table5-formal", "service-queue")
#: The baselines the service workload submits (960 units at quick scale).
SERVICE_BASELINES = ["gpt-4", "codellama-7b"]
#: Seeds covered by the stored reference; larger seeds wrap around.
REFERENCE_SEEDS = 16
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

#: (profile, suite, task, temperature, sample): a unit, whatever its manifest.
UnitKey = tuple[str, str, str, float, int]
#: (syntax_ok, functional_passed), or None for a quarantined unit.
Verdict = tuple[bool, bool] | None


def manifest_for(
    workload: str,
    seed: int,
    size: str = "quick",
    *,
    mode: str | None = None,
    differential: bool = False,
):
    """The run manifest ``workload`` executes for benchmark seed ``seed``.

    Every workload runs the suites, datasets and model aptitudes of
    ``ExperimentScale.seed = 0``; the benchmark seed picks what varies:

    * ``table4-sim`` and ``service-queue``: the generation seed
      (``EvaluationConfig.seed``), so each seed samples other candidates for
      the same tasks.  Across scale seeds the task mix, and with it the
      share of sequential tasks, moves wall time by about 15%.
    * ``table5-formal``: the stimulus seed, which drives simulation
      fallbacks and counterexample replay.  Its wall time is mostly retry
      backoff of quarantined units, and the number quarantined varies
      threefold with the candidates the proofs see.

    ``size`` is ``quick`` (the benchmark) or ``tiny`` (the harness tests).
    ``mode`` overrides the scoring mode (the formal workload's simulation
    reference); ``differential`` re-checks every batched verdict against the
    scalar simulator (reference generation).
    """
    from repro.experiments import ExperimentScale
    from repro.runs.presets import table4_manifest, table5_manifest

    scale = ExperimentScale.tiny() if size == "tiny" else ExperimentScale.quick()
    changes: dict = {}
    if workload == "table4-sim":
        manifest = table4_manifest(scale)
        changes["seed"] = seed % REFERENCE_SEEDS
    elif workload == "table5-formal":
        manifest = table5_manifest(scale)
        changes["stimulus_seed"] = manifest.config.stimulus_seed + seed % REFERENCE_SEEDS
        mode = mode or "formal"
    elif workload == "service-queue":
        manifest = table4_manifest(
            scale, baseline_keys=SERVICE_BASELINES, include_haven=False
        )
        changes["seed"] = seed % REFERENCE_SEEDS
    else:
        raise KeyError(f"unknown workload {workload!r}")
    if mode is not None:
        changes["mode"] = mode
    if differential:
        changes["differential_oracle"] = True
    manifest.config = dataclasses.replace(manifest.config, **changes)
    return manifest


# --------------------------------------------------------------------------- verdicts
def unit_verdicts(records: Iterable[Mapping]) -> dict[UnitKey, Verdict]:
    """Per-unit verdicts from journal records (warnings are skipped)."""
    verdicts: dict[UnitKey, Verdict] = {}
    for record in records:
        kind = record.get("kind", "unit")
        if kind not in ("unit", "quarantine"):
            continue
        key = (
            record["profile"],
            record["suite"],
            record["task"],
            float(record["temperature"]),
            int(record["sample"]),
        )
        if kind == "quarantine":
            verdicts[key] = None
        else:
            outcome = record["outcome"]
            verdicts[key] = (
                bool(outcome["syntax_ok"]),
                bool(outcome.get("functional_passed", False)),
            )
    return verdicts


def verdict_digest(verdicts: Mapping[UnitKey, Verdict]) -> str:
    """sha256 over every (unit, verdict) pair in key order."""
    digest = hashlib.sha256()
    for key in sorted(verdicts):
        digest.update(repr((key, verdicts[key])).encode("utf-8"))
    return digest.hexdigest()


def units_digest(verdicts: Mapping[UnitKey, Verdict]) -> str:
    """sha256 over the unit keys alone."""
    return hashlib.sha256(repr(sorted(verdicts)).encode("utf-8")).hexdigest()


def _code(verdict: Verdict) -> str:
    if verdict is None:
        return "q"
    syntax_ok, passed = verdict
    return "2" if passed else ("1" if syntax_ok else "0")


def verdict_codes(verdicts: Mapping[UnitKey, Verdict]) -> str:
    """One character per unit in key order.

    ``0`` syntax error, ``1`` functional failure, ``2`` pass, ``q`` quarantined.
    """
    return "".join(_code(verdicts[key]) for key in sorted(verdicts))


def report_digest(text: str) -> str:
    return hashlib.sha256(text.rstrip().encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- checks
def load_reference(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def check_against_reference(
    workload: str,
    seed: int,
    verdicts: Mapping[UnitKey, Verdict],
    reference: Mapping,
    report: str | None = None,
) -> tuple[bool, str, int]:
    """(correct, why not, verdict disagreements) for one repetition's outputs."""
    key = str(seed % REFERENCE_SEEDS)
    expected = reference["workloads"][workload].get(key)
    if expected is None:
        return False, f"the reference holds no seed {key}", 0
    if workload == "table5-formal":
        return compare_with_simulation(verdicts, expected)
    if verdict_digest(verdicts) != expected["verdicts"]:
        return False, "per-unit verdict digest differs from the reference", 0
    if report is not None and report_digest(report) != expected["report"]:
        return False, "the served report differs from a local serial run", 0
    return True, "", 0


def compare_with_simulation(
    verdicts: Mapping[UnitKey, Verdict], expected: Mapping
) -> tuple[bool, str, int]:
    """Formal-mode verdicts against the stored formal and simulation verdicts.

    A disagreement is a scored unit whose verdict differs from simulation
    mode.  The outputs are wrong when the unit sets differ, when a unit the
    reference's formal run scored gets another verdict or is quarantined,
    when a syntax verdict depends on the mode, or when a unit that does not
    compile was quarantined (only compiled units reach the checks that can
    quarantine).  A unit the reference quarantined may now be scored: that is
    the undef-prefix bug of ROADMAP.md being fixed, not a wrong proof.
    """
    if units_digest(verdicts) != expected["units"]:
        return False, "the journaled units differ from the reference's", 0
    disagreements = 0
    codes = zip(sorted(verdicts), expected["simulation_codes"], expected["formal_codes"])
    for key, want, was in codes:
        got = _code(verdicts[key])
        if was != "q" and got != was:
            return False, f"unit {key} went from formal verdict {was!r} to {got!r}", 0
        if got == "q":
            if want == "0":
                return False, f"unit {key} does not compile but was quarantined", 0
            continue
        if got == want:
            continue
        if "0" in (got, want):
            return False, f"the syntax verdict of unit {key} depends on the mode", 0
        disagreements += 1
    return True, "", disagreements
