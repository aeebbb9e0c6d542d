"""Import hygiene: the control plane loads no check engine.

A client, the broker and the HTTP server read manifests and journals; the
check engine (the Verilog toolchain, the formal prover, the check core and
the run engine) loads only in a worker and in a local run.  Each case imports
modules in a fresh interpreter under ``python -X importtime`` and asserts
which ``repro`` modules it loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.bench
import repro.bench.evaluator
import repro.bench.jobs
import repro.bench.outcomes
import repro.bench.scoring

SRC = Path(__file__).resolve().parent.parent / "src"

#: What the journal layer (client, broker, manifests, presets, store,
#: aggregator) must never load.
CHECK_ENGINE = (
    "repro.verilog",
    "repro.formal",
    "repro.logic",
    "repro.symbolic",
    "repro.core.dataset",
    "repro.bench.jobs",
    "repro.bench.evaluator",
    "repro.runs.engine",
)

#: What the HTTP server must never load: it builds suites to expand a
#: submitted manifest, but it proves, checks and runs nothing.
SERVER_FORBIDDEN = (
    "repro.formal",
    "repro.runs.engine",
    "repro.bench.jobs",
    "repro.bench.evaluator",
    "repro.core.dataset",
    "repro.analysis",
)


def imported_modules(*args: str, cwd: Path | None = None) -> tuple[set[str], int]:
    """The modules ``python -X importtime <args>`` imports, and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    modules = {
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return modules, done.returncode


def loaded(modules: set[str], packages: tuple[str, ...]) -> list[str]:
    """The members of ``modules`` that are, or sit inside, one of ``packages``."""
    return sorted(
        name for name in modules if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_journal_layer_loads_no_check_engine():
    modules, code = imported_modules(
        "-c",
        "import repro.service.broker, repro.experiments, repro.runs.presets,"
        " repro.runs.store, repro.runs.aggregate",
    )
    assert code == 0
    assert {"repro.service.broker", "repro.runs.aggregate"} <= modules
    assert loaded(modules, CHECK_ENGINE) == []


def test_http_server_loads_no_prover_or_run_engine():
    modules, code = imported_modules("-c", "import repro.service.api")
    assert code == 0
    # The server does load the suite builders, so POST /runs pays no import.
    assert {"repro.service.api", "repro.bench.verilogeval"} <= modules
    assert loaded(modules, SERVER_FORBIDDEN) == []


def test_first_metrics_scrape_loads_no_prover(tmp_path):
    """The server reports the prover's zero counters without importing it."""
    modules, code = imported_modules(
        "-c",
        "import sys, repro.service.api\n"
        "from repro.service.broker import FileBroker\n"
        "from repro.service.metrics import ServiceMetrics\n"
        f"text = ServiceMetrics(FileBroker({str(tmp_path)!r})).render()\n"
        "assert 'repro_formal_proofs_total 0' in text, text\n"
        "assert 'repro_formal_conflicts_total 0' in text, text\n"
        "assert not any(name.startswith('repro.formal') for name in sys.modules)\n",
    )
    assert code == 0
    assert "repro.service.metrics" in modules
    assert loaded(modules, SERVER_FORBIDDEN) == []


@pytest.fixture(scope="module")
def planned_run(tmp_path_factory) -> Path:
    """A run directory holding a planned tiny Table IV run, nothing executed."""
    from repro.experiments import ExperimentScale
    from repro.runs.presets import table4_manifest
    from repro.runs.store import RunStore

    run_dir = tmp_path_factory.mktemp("planned")
    RunStore(run_dir).write_manifest(
        table4_manifest(ExperimentScale.tiny(), baseline_keys=["gpt-4"], include_haven=False)
    )
    return run_dir


@pytest.mark.parametrize("command, exit_code", [("status", 3), ("report", 0)])
def test_runs_cli_reads_a_run_without_the_run_engine(planned_run, command, exit_code):
    modules, code = imported_modules("-m", "repro.runs", "--run-dir", str(planned_run), command)
    assert code == exit_code
    assert "repro.runs.cli" in modules
    assert loaded(modules, SERVER_FORBIDDEN) == []


class TestLazyPackages:
    def test_moved_names_have_one_home(self):
        outcomes, scoring = repro.bench.outcomes, repro.bench.scoring
        assert repro.bench.jobs.CheckOutcome is outcomes.CheckOutcome
        assert repro.bench.jobs.ResultKey is outcomes.ResultKey
        assert repro.bench.jobs.percentile is outcomes.percentile
        for name in ("EvaluationConfig", "TaskResult", "SuiteResult", "task_result"):
            assert getattr(repro.bench.evaluator, name) is getattr(scoring, name)
        assert repro.bench.evaluator.best_temperature is scoring.best_temperature

    def test_package_attributes_load_on_access(self):
        from repro.bench import EvaluationConfig, run_checks
        from repro.runs import RunEngine
        from repro.service import ServiceWorker

        assert EvaluationConfig is repro.bench.scoring.EvaluationConfig
        assert run_checks is repro.bench.jobs.run_checks
        assert RunEngine.__module__ == "repro.runs.engine"
        assert ServiceWorker.__module__ == "repro.service.worker"
        assert repro.verilog.__name__ == "repro.verilog"
        assert "run_checks" in dir(repro.bench) and "run_checks" in repro.bench.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.bench.nope  # noqa: B018 - the attribute access is the test
