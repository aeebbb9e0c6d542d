"""Benchmark suites, evaluation harness, pass@k and report rendering."""

from .evaluator import EvaluationConfig, SuiteResult, TaskResult, check_reference_designs
from .golden import GoldenCache, VerilogGolden, batch_equivalence_check
from .jobs import (
    CheckExecution,
    CheckRequest,
    ExecutionPolicy,
    ExecutionReport,
    ResultKey,
    run_checks,
)
from .passk import PassAtKResult, compute_pass_at_k, mean_pass_at_k, pass_at_k
from .reporting import (
    AblationSeries,
    FIG3_SETTINGS,
    Table4Row,
    Table5Row,
    format_table,
    render_fig3,
    render_fig4,
    render_table4,
    render_table5,
    render_table6,
    table4_row_from_results,
)
from .rtllm import RTLLMConfig, RTLLM_TASK_COUNT, build_rtllm
from .symbolic_suite import SYMBOLIC_TOTAL, build_symbolic_suite, modality_counts
from .task import BenchmarkSuite, BenchmarkTask
from .verilogeval import (
    HUMAN_TASK_COUNT,
    MACHINE_TASK_COUNT,
    SuiteConfig,
    build_symbolic_subset,
    build_verilogeval_human,
    build_verilogeval_machine,
)
from .verilogeval_v2 import V2Config, build_verilogeval_v2

__all__ = [
    "EvaluationConfig",
    "SuiteResult",
    "TaskResult",
    "check_reference_designs",
    "GoldenCache",
    "VerilogGolden",
    "batch_equivalence_check",
    "CheckExecution",
    "CheckRequest",
    "ExecutionPolicy",
    "ExecutionReport",
    "ResultKey",
    "run_checks",
    "PassAtKResult",
    "compute_pass_at_k",
    "mean_pass_at_k",
    "pass_at_k",
    "AblationSeries",
    "FIG3_SETTINGS",
    "Table4Row",
    "Table5Row",
    "format_table",
    "render_fig3",
    "render_fig4",
    "render_table4",
    "render_table5",
    "render_table6",
    "table4_row_from_results",
    "RTLLMConfig",
    "RTLLM_TASK_COUNT",
    "build_rtllm",
    "SYMBOLIC_TOTAL",
    "build_symbolic_suite",
    "modality_counts",
    "BenchmarkSuite",
    "BenchmarkTask",
    "HUMAN_TASK_COUNT",
    "MACHINE_TASK_COUNT",
    "SuiteConfig",
    "build_symbolic_subset",
    "build_verilogeval_human",
    "build_verilogeval_machine",
    "V2Config",
    "build_verilogeval_v2",
]
