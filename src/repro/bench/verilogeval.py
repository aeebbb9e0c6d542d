"""VerilogEval v1 benchmark suites (Machine and Human).

The real VerilogEval v1 benchmark [Liu et al., ICCAD'23] contains 143
machine-generated tasks (VerilogEval-Machine) and 156 manually crafted tasks
(VerilogEval-Human); the Human split is the one whose prompts embed symbolic
modalities (truth tables, waveform charts, state diagrams and Karnaugh maps).
Its task data cannot be redistributed here, so these generators build synthetic
suites with the same structure:

* **Machine**: 143 tasks, verbose LLM-style prompts, no symbolic modalities,
  weighted towards simpler combinational and register blocks.
* **Human**: 156 tasks, terse engineer-style prompts, including exactly
  10 truth-table, 13 waveform and 21 state-diagram tasks (the 44-task symbolic
  subset evaluated in Table V), with the remainder spread over FSM, counter,
  shift-register, register, ALU, mux, decoder, adder, comparator, clock-divider
  and instructional-logic families.

Task generation is fully deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import families
from .task import BenchmarkSuite, BenchmarkTask

#: VerilogEval v1 split sizes (from the paper / benchmark release).
MACHINE_TASK_COUNT = 143
HUMAN_TASK_COUNT = 156
HUMAN_TRUTH_TABLE_COUNT = 10
HUMAN_WAVEFORM_COUNT = 13
HUMAN_STATE_DIAGRAM_COUNT = 21


@dataclass
class SuiteConfig:
    """Configuration shared by the suite builders."""

    num_tasks: int | None = None
    seed: int = 11
    style: str = "human"


_FamilyBuilder = Callable[[str, str, int, str], BenchmarkTask]

#: Family mix of the Machine split: (builder, weight).
_MACHINE_MIX: list[tuple[_FamilyBuilder, int]] = [
    (families.make_expression_task, 34),
    (families.make_mux_task, 14),
    (families.make_adder_task, 14),
    (families.make_comparator_task, 12),
    (families.make_decoder_task, 12),
    (families.make_register_task, 18),
    (families.make_counter_task, 18),
    (families.make_shift_register_task, 11),
    (families.make_alu_task, 10),
]

#: Family mix of the Human split's 112 non-symbolic tasks.
_HUMAN_MIX: list[tuple[_FamilyBuilder, int]] = [
    (families.make_expression_task, 16),
    (families.make_instructional_logic_task, 10),
    (families.make_counter_task, 14),
    (families.make_register_task, 14),
    (families.make_shift_register_task, 10),
    (families.make_sequence_detector_task, 12),
    (families.make_edge_detector_task, 6),
    (families.make_clock_divider_task, 6),
    (families.make_alu_task, 8),
    (families.make_mux_task, 6),
    (families.make_decoder_task, 4),
    (families.make_adder_task, 3),
    (families.make_comparator_task, 3),
]


def _build_from_mix(
    suite_name: str,
    mix: list[tuple[_FamilyBuilder, int]],
    total: int,
    seed: int,
    style: str,
    start_index: int = 0,
) -> list[BenchmarkTask]:
    """Instantiate ``total`` tasks following the family mix proportions."""
    tasks: list[BenchmarkTask] = []
    mix_total = sum(weight for _, weight in mix)
    counts = [max(1, round(total * weight / mix_total)) for _, weight in mix]
    # Adjust rounding drift so we hit the exact total.
    while sum(counts) > total:
        counts[counts.index(max(counts))] -= 1
    index = start_index
    builder_cycle = []
    for (builder, __), count in zip(mix, counts):
        builder_cycle.extend([builder] * count)
    while len(builder_cycle) < total:
        builder_cycle.append(mix[len(builder_cycle) % len(mix)][0])
    for builder in builder_cycle[:total]:
        task_id = f"{suite_name}_{index:04d}"
        tasks.append(builder(task_id, suite_name, seed + index, style))
        index += 1
    return tasks


#: VerilogEval-Machine problems are simpler than the manually-crafted Human ones
#: (they were machine-generated from existing code); every demand axis is scaled
#: down by this factor relative to the same task family in the Human split.
MACHINE_DEMAND_SCALE = 0.72


def build_verilogeval_machine(config: SuiteConfig | None = None) -> BenchmarkSuite:
    """Build the VerilogEval-Machine style suite (143 tasks by default)."""
    from dataclasses import replace

    config = config or SuiteConfig()
    total = config.num_tasks or MACHINE_TASK_COUNT
    tasks = _build_from_mix(
        "verilogeval_machine", _MACHINE_MIX, total, config.seed, style="machine"
    )
    for task in tasks:
        task.demands = replace(
            task.demands,
            knowledge=task.demands.knowledge * MACHINE_DEMAND_SCALE,
            logic=task.demands.logic * MACHINE_DEMAND_SCALE,
            difficulty=task.demands.difficulty * MACHINE_DEMAND_SCALE,
        )
    return BenchmarkSuite(
        name="VerilogEval-Machine",
        tasks=tasks,
        description="Synthetic reproduction of the VerilogEval v1 Machine split (LLM-phrased prompts).",
    )


def build_verilogeval_human(config: SuiteConfig | None = None) -> BenchmarkSuite:
    """Build the VerilogEval-Human style suite (156 tasks, 44 of them symbolic)."""
    config = config or SuiteConfig()
    total = config.num_tasks or HUMAN_TASK_COUNT

    # Symbolic subset sizes scale with the requested total (exact at full size).
    scale = total / HUMAN_TASK_COUNT
    truth_tables = max(1, round(HUMAN_TRUTH_TABLE_COUNT * scale))
    waveforms = max(1, round(HUMAN_WAVEFORM_COUNT * scale))
    state_diagrams = max(1, round(HUMAN_STATE_DIAGRAM_COUNT * scale))
    symbolic_total = truth_tables + waveforms + state_diagrams
    remaining = max(0, total - symbolic_total)

    tasks: list[BenchmarkTask] = []
    index = 0
    for count, builder in (
        (truth_tables, families.make_truth_table_task),
        (waveforms, families.make_waveform_task),
        (state_diagrams, families.make_state_diagram_task),
    ):
        for _ in range(count):
            task_id = f"verilogeval_human_{index:04d}"
            tasks.append(builder(task_id, "verilogeval_human", config.seed + index, "human"))
            index += 1
    tasks.extend(
        _build_from_mix(
            "verilogeval_human",
            _HUMAN_MIX,
            remaining,
            config.seed,
            style="human",
            start_index=index,
        )
    )
    return BenchmarkSuite(
        name="VerilogEval-Human",
        tasks=tasks,
        description=(
            "Synthetic reproduction of the VerilogEval v1 Human split, including the 44-task "
            "symbolic-modality subset (10 truth tables, 13 waveforms, 21 state diagrams)."
        ),
    )


def build_symbolic_subset(human_suite: BenchmarkSuite | None = None, config: SuiteConfig | None = None) -> BenchmarkSuite:
    """Extract the 44-task symbolic subset used in Tables V and VI."""
    suite = human_suite or build_verilogeval_human(config)
    symbolic = [task for task in suite if task.is_symbolic]
    return BenchmarkSuite(
        name="VerilogEval-Human-Symbolic",
        tasks=symbolic,
        description="Symbolic-modality subset of VerilogEval-Human (truth tables, waveforms, state diagrams).",
    )


def validate_references(
    config: SuiteConfig | None = None,
    splits: tuple[str, ...] = ("machine", "human"),
    max_tasks: int | None = None,
    differential: bool = False,
) -> dict[str, str]:
    """Self-consistency sweep: every reference design must pass its own testbench.

    Combinational references are checked in one column-parallel batched pass per
    task (see :mod:`repro.verilog.simulator.batch`); sequential references reset
    on the scalar engine and run their cycles on the fused generated loop (see
    :class:`~repro.verilog.codegen.SequenceRun`).  Returns task_id → failure
    summary.
    """
    from .evaluator import check_reference_designs

    failures: dict[str, str] = {}
    if "machine" in splits:
        failures.update(
            check_reference_designs(
                build_verilogeval_machine(config),
                max_tasks=max_tasks,
                differential=differential,
            )
        )
    if "human" in splits:
        failures.update(
            check_reference_designs(
                build_verilogeval_human(config),
                max_tasks=max_tasks,
                differential=differential,
            )
        )
    return failures
