"""The suite registry: every benchmark suite id, its builder and its seed.

One table, :data:`SUITES`, says how each suite of the paper is built from an
:class:`~repro.experiments.ExperimentScale`: which builder and config class
(in which :mod:`repro.bench` module), which scale field sizes it, and the
offset added to the scale seed.  :func:`build_suite` is the one place a suite
id turns into a :class:`~repro.bench.task.BenchmarkSuite`, for the experiment
drivers and the manifest resolver alike, and the one place an unknown id
fails.  :data:`TABLE4_SUITES` are Table IV's columns, in order.

The table itself is plain data: a builder's module is imported only when a
suite is built, so reading the registry loads no Verilog toolchain.  A
process that will build suites (the run engine, the HTTP server, which
expands every submitted manifest) calls :func:`import_builders` when it is
imported, so no unit and no request pays for the import.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .task import BenchmarkSuite


@dataclass(frozen=True)
class SuiteEntry:
    """How one suite is built: ``module.builder(module.config(num_tasks, seed))``."""

    module: str
    builder: str
    config: str
    #: The ``ExperimentScale`` field holding the task count.
    size: str
    seed_offset: int
    #: ``full_subset`` builds the suite at its full size, whatever the scale.
    subsettable: bool = False


SUITES: dict[str, SuiteEntry] = {
    "machine": SuiteEntry(
        "verilogeval", "build_verilogeval_machine", "SuiteConfig", "machine_tasks", 11
    ),
    "human": SuiteEntry(
        "verilogeval", "build_verilogeval_human", "SuiteConfig", "human_tasks", 11
    ),
    "rtllm": SuiteEntry("rtllm", "build_rtllm", "RTLLMConfig", "rtllm_tasks", 43),
    "v2": SuiteEntry("verilogeval_v2", "build_verilogeval_v2", "V2Config", "v2_tasks", 71),
    "symbolic": SuiteEntry(
        "symbolic_suite", "build_symbolic_suite", "SuiteConfig", "human_tasks", 11, True
    ),
}

#: Table IV's benchmark columns, in the paper's order.
TABLE4_SUITES = ("machine", "human", "rtllm", "v2")


def build_suite(suite_id: str, scale, *, full_subset: bool = False) -> "BenchmarkSuite":
    """Build ``suite_id`` at ``scale`` (an :class:`~repro.experiments.ExperimentScale`).

    An id the registry does not hold raises ``KeyError``.
    """
    entry = SUITES.get(suite_id)
    if entry is None:
        raise KeyError(f"unknown suite id {suite_id!r}")
    module = importlib.import_module(f"{__package__}.{entry.module}")
    num_tasks = None if full_subset and entry.subsettable else getattr(scale, entry.size)
    config = getattr(module, entry.config)
    return getattr(module, entry.builder)(
        config(num_tasks=num_tasks, seed=scale.seed + entry.seed_offset)
    )


def import_builders() -> None:
    """Import every builder's module now, so a later :func:`build_suite` imports none."""
    for module in sorted({entry.module for entry in SUITES.values()}):
        importlib.import_module(f"{__package__}.{module}")
