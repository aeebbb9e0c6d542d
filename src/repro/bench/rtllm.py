"""RTLLM v1.1 benchmark suite.

RTLLM v1.1 [Lu et al., ASP-DAC'24] contains 29 RTL design tasks that are larger
and more design-oriented than VerilogEval problems (ALUs, counters, FSMs, clock
dividers, shifters, adders, ...), and is scored both on syntax and functional
correctness (pass@5 in Table IV).  This generator builds a 29-task synthetic
equivalent weighted towards the heavier sequential/datapath families, with
elevated knowledge/difficulty demands to reflect the benchmark's larger designs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import families
from .task import BenchmarkSuite, BenchmarkTask

#: RTLLM v1.1 size.
RTLLM_TASK_COUNT = 29

#: Extra demand added to every RTLLM task relative to the same family in
#: VerilogEval (the designs are larger: wider datapaths, more control logic).
RTLLM_KNOWLEDGE_BONUS = 0.10
RTLLM_DIFFICULTY_BONUS = 0.12


@dataclass
class RTLLMConfig:
    """Configuration of the RTLLM suite builder."""

    num_tasks: int | None = None
    seed: int = 43


_RTLLM_FAMILIES = [
    families.make_alu_task,
    families.make_counter_task,
    families.make_sequence_detector_task,
    families.make_clock_divider_task,
    families.make_shift_register_task,
    families.make_register_task,
    families.make_adder_task,
    families.make_comparator_task,
    families.make_mux_task,
    families.make_edge_detector_task,
    families.make_instructional_logic_task,
    families.make_decoder_task,
]


def _harden(task: BenchmarkTask) -> BenchmarkTask:
    """Raise a task's demands to RTLLM levels."""
    demands = task.demands
    task.demands = replace(
        demands,
        knowledge=min(1.0, demands.knowledge + RTLLM_KNOWLEDGE_BONUS),
        difficulty=min(1.0, demands.difficulty + RTLLM_DIFFICULTY_BONUS),
    )
    return task


def build_rtllm(config: RTLLMConfig | None = None) -> BenchmarkSuite:
    """Build the RTLLM v1.1 style suite (29 tasks by default)."""
    config = config or RTLLMConfig()
    total = config.num_tasks or RTLLM_TASK_COUNT
    tasks: list[BenchmarkTask] = []
    for index in range(total):
        builder = _RTLLM_FAMILIES[index % len(_RTLLM_FAMILIES)]
        task_id = f"rtllm_{index:03d}"
        task = builder(task_id, "rtllm", config.seed + index, "human")
        tasks.append(_harden(task))
    return BenchmarkSuite(
        name="RTLLM v1.1",
        tasks=tasks,
        description="Synthetic reproduction of RTLLM v1.1 (29 design-oriented RTL generation tasks).",
    )


def validate_references(
    config: RTLLMConfig | None = None,
    max_tasks: int | None = None,
    differential: bool = False,
) -> dict[str, str]:
    """Self-consistency sweep over the RTLLM suite (batched where combinational)."""
    from .evaluator import check_reference_designs

    return check_reference_designs(
        build_rtllm(config),
        max_tasks=max_tasks,
        differential=differential,
    )
