"""Tests of the benchmark's own machinery, at ``ExperimentScale.tiny()``.

    PYTHONPATH=src python -m pytest e2ebench -q

They cover the self-time arithmetic, the layer wrappers, that every metric
``BENCHMARK.json`` names is reported, and that a verdict digest mismatch
fails the command.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import e2e_layers
import e2e_workloads as workloads
import make_reference
import run
from e2e_trace import SpanRecorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    spans = [
        ("engine", 1, 0, 0.0, 10.0),
        ("jobs", 2, 1, 1.0, 6.0),
        ("sim", 3, 2, 2.0, 4.0),
        ("golden", 4, 2, 4.5, 5.0),
        ("store", 5, 1, 7.0, 8.0),
    ]
    times = self_times(spans)
    assert times["engine"] == (1, pytest.approx(4.0))
    assert times["jobs"] == (1, pytest.approx(2.5))
    assert times["sim"] == (1, pytest.approx(2.0))
    assert times["golden"] == (1, pytest.approx(0.5))
    assert sum(seconds for _calls, seconds in times.values()) == pytest.approx(10.0)


def test_self_time_counts_recursive_spans_once():
    # resolve → resolve → jobs → resolve: one layer at three depths.
    spans = [
        ("resolve", 1, 0, 0.0, 8.0),
        ("resolve", 2, 1, 1.0, 7.0),
        ("jobs", 3, 2, 2.0, 6.0),
        ("resolve", 4, 3, 3.0, 4.0),
    ]
    times = self_times(spans)
    assert times["resolve"] == (3, pytest.approx(2.0 + 2.0 + 1.0))
    assert times["jobs"] == (1, pytest.approx(3.0))
    assert sum(seconds for _calls, seconds in times.values()) == pytest.approx(8.0)


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        ("parent", 1, 0, 0.0, 4.0),
        ("child", 2, 1, 1.0, 2.0),
        ("child", 3, 1, 1.5, 2.5),
        ("child", 4, 1, 3.0, 6.0),
    ]
    assert self_times(spans)["parent"] == (1, pytest.approx(4.0 - 1.5 - 1.0))


def test_recorder_links_nested_calls_to_their_parent():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = SpanRecorder()
    recorder.trace_attr(Layer, "outer", "outer")
    recorder.trace_attr(Layer, "inner", "inner")
    try:
        assert Layer().outer() == 2
    finally:
        recorder.restore()
    spans = {span[0]: span for span in recorder.spans}
    assert spans["outer"][2] == 0
    assert spans["inner"][2] == spans["outer"][1]


# --------------------------------------------------------------------------- wrappers
def test_layer_wrappers_restore_the_original_attributes():
    recorder = SpanRecorder()
    e2e_layers.install_layers(recorder)
    patches = recorder.patches
    try:
        assert len(patches) > 20
        for owner, attr, _had, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        recorder.restore()
    assert recorder.patches == ()
    for owner, attr, had, original in patches:
        if had:
            assert vars(owner)[attr] is original
        else:
            assert attr not in vars(owner)


def test_patching_an_inherited_method_restores_inheritance():
    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    recorder = SpanRecorder()
    recorder.trace_attr(Child, "step", "golden")
    assert "step" in vars(Child) and Child().step() == "base"
    recorder.restore()
    assert "step" not in vars(Child)
    assert recorder.spans[0][0] == "golden"


# --------------------------------------------------------------------------- metrics
def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == e2e_layers.LAYER_METRICS


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "reference.json"
    path.write_text(json.dumps(make_reference.build_reference([0], size="tiny")))
    return path


def run_benchmark(out_dir: Path, *args: str):
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--size", "tiny",
            # One repetition per kind, so every repetition runs seed 0.
            "--seconds", "0.1",
            "--out-dir", str(out_dir),
            *args,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return completed, result


@pytest.mark.parametrize(
    "workload, trace", [("table4-sim", 0), ("table4-sim", 1), ("service-queue", 1)]
)
def test_every_named_metric_is_reported(tiny_reference, tmp_path, workload, trace):
    completed, result = run_benchmark(
        tmp_path,
        "--workload", workload,
        "--seed", "0",
        "--trace", str(trace),
        "--reference", str(tiny_reference),
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    for name in (*run.END_TO_END, *run.ALSO_PRINTED):
        assert name in completed.stdout
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_quarantined_units_count_as_failed(tiny_reference, tmp_path):
    completed, result = run_benchmark(
        tmp_path,
        "--workload", "table5-formal",
        "--seed", "0",
        "--trace", "0",
        "--reference", str(tiny_reference),
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    formal_codes = json.loads(tiny_reference.read_text())["workloads"]["table5-formal"]["0"][
        "formal_codes"
    ]
    assert result["correct"] is True
    assert result["failed"] == formal_codes.count("q") * result["attempted"] // len(formal_codes)
    assert result["failed"] > 0


# --------------------------------------------------------------------------- output checks
def test_a_flipped_verdict_fails_the_digest_check():
    verdicts = {
        ("p", "human", "t", 0.2, 0): (True, True),
        ("p", "human", "t", 0.2, 1): (True, False),
    }
    reference = {"workloads": {"table4-sim": {"0": {"verdicts": workloads.verdict_digest(verdicts)}}}}
    assert workloads.check_against_reference("table4-sim", 0, verdicts, reference)[0]
    flipped = {**verdicts, ("p", "human", "t", 0.2, 1): (True, True)}
    correct, detail, _ = workloads.check_against_reference("table4-sim", 0, flipped, reference)
    assert not correct and "digest" in detail


FORMAL_KEYS = [("p", "symbolic", f"t{index}", 0.2, 0) for index in range(4)]
#: Simulation mode: pass, fail, pass, syntax error.  Formal mode at the
#: reference: one disagreement (t0), one quarantine (t2).
SIMULATION = dict(zip(FORMAL_KEYS, [(True, True), (True, False), (True, True), (False, False)]))
FORMAL = dict(zip(FORMAL_KEYS, [(True, False), (True, False), None, (False, False)]))
FORMAL_REFERENCE = {
    "units": workloads.units_digest(SIMULATION),
    "simulation_codes": workloads.verdict_codes(SIMULATION),
    "formal_codes": workloads.verdict_codes(FORMAL),
}


def test_formal_disagreements_are_counted_and_mode_dependent_syntax_fails():
    assert workloads.compare_with_simulation(FORMAL, FORMAL_REFERENCE) == (True, "", 1)
    broken = {**FORMAL, FORMAL_KEYS[3]: (True, False)}
    assert workloads.compare_with_simulation(broken, FORMAL_REFERENCE)[0] is False


@pytest.mark.parametrize(
    "unit, verdict",
    [(0, (True, True)), (1, (True, True)), (1, None)],
    ids=["proof-now-passes", "failure-now-passes", "newly-quarantined"],
)
def test_a_changed_formal_verdict_fails(unit, verdict):
    changed = {**FORMAL, FORMAL_KEYS[unit]: verdict}
    correct, detail, _ = workloads.compare_with_simulation(changed, FORMAL_REFERENCE)
    assert not correct and "formal verdict" in detail


def test_a_reference_quarantine_may_be_scored():
    # Fixing the bug that quarantines a unit is not a wrong proof.
    fixed = {**FORMAL, FORMAL_KEYS[2]: (True, False)}
    assert workloads.compare_with_simulation(fixed, FORMAL_REFERENCE) == (True, "", 2)


def test_a_digest_mismatch_fails_the_command(tiny_reference, tmp_path):
    reference = json.loads(tiny_reference.read_text())
    reference["workloads"]["table4-sim"]["0"]["verdicts"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(reference))
    completed, result = run_benchmark(
        tmp_path / "out",
        "--workload", "table4-sim",
        "--seed", "0",
        "--trace", "0",
        "--reference", str(tampered),
    )
    assert completed.returncode != 0
    assert result is not None and result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", "table4-sim", "--seed", "0", "--seconds", "0.1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
