"""Example scripts run end to end and print the numbers they document."""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    """Import ``examples/<name>.py`` as a module, call ``main()``, return stdout."""
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def table_rows(output: str) -> dict[str, list[float]]:
    """First-column label → numeric cells of every ``|``-separated data row."""
    rows: dict[str, list[float]] = {}
    for line in output.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) < 2:
            continue
        try:
            rows[cells[0]] = [float(cell) for cell in cells[1:]]
        except ValueError:
            continue
    return rows


def test_evaluate_model_configuration_rows(capsys):
    rows = table_rows(run_example("evaluate_model", capsys))
    # (func pass@1, func pass@5, syntax pass@1) per configuration.
    assert rows["CodeQwen (base)"] == [18.5, 30.0, 93.0]
    assert rows["CodeQwen + SI-CoT"] == [19.0, 30.0, 93.0]
    assert rows["HaVen-CodeQwen (no CoT)"] == [54.5, 67.5, 94.0]
    assert rows["HaVen-CodeQwen (full)"] == [61.0, 75.0, 94.0]
