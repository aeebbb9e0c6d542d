"""Benchmark suites, evaluation harness, pass@k and report rendering.

Public names load on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".scoring": ("EvaluationConfig", "SuiteResult", "TaskResult"),
        ".evaluator": ("check_reference_designs",),
        ".golden": ("GoldenCache", "VerilogGolden"),
        ".outcomes": ("ResultKey",),
        ".jobs": (
            "CheckExecution",
            "CheckRequest",
            "ExecutionPolicy",
            "ExecutionReport",
            "run_checks",
        ),
        ".passk": ("PassAtKResult", "compute_pass_at_k", "mean_pass_at_k", "pass_at_k"),
        ".reporting": (
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
        ),
        ".rtllm": ("RTLLMConfig", "RTLLM_TASK_COUNT", "build_rtllm"),
        ".symbolic_suite": ("SYMBOLIC_TOTAL", "build_symbolic_suite"),
        ".task": ("BenchmarkSuite", "BenchmarkTask"),
        ".verilogeval": (
            "HUMAN_TASK_COUNT",
            "MACHINE_TASK_COUNT",
            "SuiteConfig",
            "build_symbolic_subset",
            "build_verilogeval_human",
            "build_verilogeval_machine",
        ),
        ".verilogeval_v2": ("V2Config", "build_verilogeval_v2"),
    },
)
