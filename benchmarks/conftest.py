"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  By default the
experiments run at ``ExperimentScale.quick()`` (scaled-down suites, n = 5, single
temperature) so that ``pytest benchmarks/ --benchmark-only`` finishes in seconds;
set the environment variable ``REPRO_SCALE=paper`` to run at the paper's full
scale (143/156/29 tasks, n = 10, three temperatures).  Paper-scale Table IV
alone takes about 40 s on a two-core host (``make paper-table4``).

Each benchmark also writes its rendered table/figure into
``benchmarks/results/*.txt`` (tracked in git), so the numbers can be inspected
and any change to them shows in ``git diff``; the README's quick start says how
to run each scale.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"


def _scale_from_env() -> ExperimentScale:
    if os.environ.get("REPRO_SCALE", "quick").lower() == "paper":
        return ExperimentScale.paper()
    scale = ExperimentScale.quick()
    scale.num_samples = 5
    return scale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale used by every benchmark in this session."""
    return _scale_from_env()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write a rendered report to benchmarks/results/<name>.txt."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save
