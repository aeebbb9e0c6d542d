"""The 44-task symbolic-modality suite (Tables V and VI).

This is a thin wrapper over :func:`repro.bench.verilogeval.build_symbolic_subset`
that exposes the subset as a standalone suite with the paper's composition
(10 truth-table, 13 waveform, 21 state-diagram tasks at full scale).
"""

from __future__ import annotations

from .task import BenchmarkSuite
from .verilogeval import SuiteConfig, build_symbolic_subset, build_verilogeval_human

#: Composition of the paper's 44-task subset.
SYMBOLIC_TRUTH_TABLE_COUNT = 10
SYMBOLIC_WAVEFORM_COUNT = 13
SYMBOLIC_STATE_DIAGRAM_COUNT = 21
SYMBOLIC_TOTAL = SYMBOLIC_TRUTH_TABLE_COUNT + SYMBOLIC_WAVEFORM_COUNT + SYMBOLIC_STATE_DIAGRAM_COUNT


def build_symbolic_suite(config: SuiteConfig | None = None) -> BenchmarkSuite:
    """Build the symbolic-modality suite from the VerilogEval-Human generator."""
    human = build_verilogeval_human(config)
    suite = build_symbolic_subset(human)
    suite.name = "Symbolic-Modalities"
    return suite
