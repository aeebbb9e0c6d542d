"""Rendering of benchmark results into the paper's table/figure layouts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .scoring import SuiteResult


def _is_numeric_cell(text: str) -> bool:
    """Whether a rendered cell is a bare number (optionally signed / percent)."""
    stripped = text.strip().rstrip("%x")
    if not stripped:
        return False
    try:
        float(stripped)
    except ValueError:
        return False
    return True


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render a simple aligned text table.

    Numeric cells (including ``+1.2``-style deltas and ``%``/``x``-suffixed
    values) are right-aligned within their column; everything else stays
    left-aligned.  An empty ``rows`` renders an explicit ``(no rows)`` body
    instead of a dangling separator line.
    """
    columns = [[str(header)] + [str(row[index]) for row in rows] for index, header in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(width) for header, width in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    if not rows:
        lines.append("(no rows)")
        return "\n".join(lines)
    for row in rows:
        cells = []
        for cell, width in zip(row, widths):
            text = str(cell)
            cells.append(text.rjust(width) if _is_numeric_cell(text) else text.ljust(width))
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.1f}"


@dataclass
class Table4Row:
    """One row of the Table IV main comparison."""

    model: str
    group: str
    open_source: bool
    model_size: str
    machine_pass1: float | None = None
    machine_pass5: float | None = None
    human_pass1: float | None = None
    human_pass5: float | None = None
    rtllm_syntax_pass5: float | None = None
    rtllm_func_pass5: float | None = None
    v2_pass1: float | None = None
    v2_pass5: float | None = None


def render_table4(rows: Sequence[Table4Row], title: str = "Table IV: Comparison against baseline models") -> str:
    """Render the main comparison table in the paper's column layout."""
    headers = [
        "Group",
        "Model",
        "Open",
        "Size",
        "VE-Machine p@1",
        "VE-Machine p@5",
        "VE-Human p@1",
        "VE-Human p@5",
        "RTLLM syn p@5",
        "RTLLM func p@5",
        "VE-v2 p@1",
        "VE-v2 p@5",
    ]
    body = [
        [
            row.group,
            row.model,
            "yes" if row.open_source else "no",
            row.model_size,
            _fmt(row.machine_pass1),
            _fmt(row.machine_pass5),
            _fmt(row.human_pass1),
            _fmt(row.human_pass5),
            _fmt(row.rtllm_syntax_pass5),
            _fmt(row.rtllm_func_pass5),
            _fmt(row.v2_pass1),
            _fmt(row.v2_pass5),
        ]
        for row in rows
    ]
    return format_table(headers, body, title)


def table4_row_from_results(
    model: str,
    group: str,
    open_source: bool,
    model_size: str,
    machine: SuiteResult | None = None,
    human: SuiteResult | None = None,
    rtllm: SuiteResult | None = None,
    v2: SuiteResult | None = None,
) -> Table4Row:
    """Assemble a Table IV row from per-suite results."""
    row = Table4Row(model=model, group=group, open_source=open_source, model_size=model_size)
    if machine is not None:
        percentages = machine.functional_percentages()
        row.machine_pass1, row.machine_pass5 = percentages.get(1), percentages.get(5)
    if human is not None:
        percentages = human.functional_percentages()
        row.human_pass1, row.human_pass5 = percentages.get(1), percentages.get(5)
    if rtllm is not None:
        row.rtllm_syntax_pass5 = rtllm.syntax_percentages().get(5)
        row.rtllm_func_pass5 = rtllm.functional_percentages().get(5)
    if v2 is not None:
        percentages = v2.functional_percentages()
        row.v2_pass1, row.v2_pass5 = percentages.get(1), percentages.get(5)
    return row


@dataclass
class Table5Row:
    """One row of the Table V symbolic-modality evaluation."""

    model: str
    truth_table: tuple[int, int]
    waveform: tuple[int, int]
    state_diagram: tuple[int, int]

    @property
    def overall(self) -> float:
        passed = self.truth_table[0] + self.waveform[0] + self.state_diagram[0]
        total = self.truth_table[1] + self.waveform[1] + self.state_diagram[1]
        return 100.0 * passed / total if total else 0.0


def table5_row_from_result(model: str, result: SuiteResult) -> Table5Row:
    """Assemble a Table V row from a symbolic-suite result.

    Per-modality task counts use the plain pass@1 estimate scaled to task
    counts (a task counts as passed in proportion to its fraction of passing
    samples, rounded over the modality).
    """

    def count(category: str) -> tuple[int, int]:
        results = [r for r in result.task_results if r.category == category]
        estimates = [r.num_functional_passes / max(1, r.num_samples) for r in results]
        return round(sum(estimates)), len(results)

    return Table5Row(
        model=model,
        truth_table=count("truth_table"),
        waveform=count("waveform"),
        state_diagram=count("state_diagram"),
    )


def render_table5(rows: Sequence[Table5Row], title: str = "Table V: Evaluation on symbolic modalities") -> str:
    """Render the symbolic-modality table (P/T and pass-rate per modality)."""
    headers = ["Model", "Truth Table P/T (PR)", "Waveform P/T (PR)", "State Diagram P/T (PR)", "Overall"]

    def cell(pair: tuple[int, int]) -> str:
        passed, total = pair
        rate = 100.0 * passed / total if total else 0.0
        return f"{passed}/{total} ({rate:.1f}%)"

    body = [
        [row.model, cell(row.truth_table), cell(row.waveform), cell(row.state_diagram), f"{row.overall:.1f}%"]
        for row in rows
    ]
    return format_table(headers, body, title)


def render_table6(
    rows: Mapping[str, tuple[float, float]],
    title: str = "Table VI: Effect of SI-CoT on commercial LLMs (pass@1, 44 symbolic tasks)",
) -> str:
    """Render the SI-CoT on/off comparison: model → (with SI-CoT, without SI-CoT)."""
    headers = ["Model", "pass@1 w/ SI-CoT", "pass@1 w/o SI-CoT", "delta"]
    body = [
        [model, f"{with_cot:.1f}", f"{without_cot:.1f}", f"{with_cot - without_cot:+.1f}"]
        for model, (with_cot, without_cot) in rows.items()
    ]
    return format_table(headers, body, title)


@dataclass
class AblationSeries:
    """One base model's Fig. 3 series over the five ablation settings."""

    model: str
    pass1: dict[str, float] = field(default_factory=dict)
    pass5: dict[str, float] = field(default_factory=dict)


FIG3_SETTINGS = ("base", "vanilla", "vanilla+CoT", "vanilla+KL", "vanilla+CoT+KL")


def render_fig3(series: Sequence[AblationSeries], title: str = "Fig. 3: Ablation of HaVen techniques (VerilogEval-Human)") -> str:
    """Render the ablation figure as two tables (pass@1 and pass@5)."""
    sections = []
    for metric_name, attribute in (("Pass@1 (%)", "pass1"), ("Pass@5 (%)", "pass5")):
        headers = ["Setting"] + [entry.model for entry in series]
        rows = []
        for setting in FIG3_SETTINGS:
            row = [setting]
            for entry in series:
                values: dict[str, float] = getattr(entry, attribute)
                row.append(f"{values.get(setting, float('nan')):.1f}")
            rows.append(row)
        sections.append(format_table(headers, rows, f"{title} — {metric_name}"))
    return "\n\n".join(sections)


def render_fig4(
    grid_pass1: Mapping[tuple[int, int], float],
    grid_pass5: Mapping[tuple[int, int], float],
    portions: Sequence[int] = (0, 50, 100),
    title: str = "Fig. 4: Ablation of KL-dataset composition (CodeQwen, VerilogEval-Human)",
) -> str:
    """Render the K/L portion grids; keys are (k_portion, l_portion) in percent."""
    sections = []
    for metric_name, grid in (("Pass@1 (%)", grid_pass1), ("Pass@5 (%)", grid_pass5)):
        headers = ["K% \\ L%"] + [str(portion) for portion in portions]
        rows = []
        for k_portion in portions:
            row = [str(k_portion)]
            for l_portion in portions:
                row.append(f"{grid.get((k_portion, l_portion), float('nan')):.1f}")
            rows.append(row)
        sections.append(format_table(headers, rows, f"{title} — {metric_name}"))
    return "\n\n".join(sections)
