"""Evaluate a model (with and without SI-CoT) on a VerilogEval-Human style suite.

Runs a four-profile manifest through the run engine on a scaled-down
VerilogEval-Human suite: the CodeQwen base profile and HaVen-CodeQwen (CodeQwen
fine-tuned on freshly generated vanilla + KL datasets), each with and without
SI-CoT.  Prints per-configuration pass@1/pass@5 and a per-category breakdown —
i.e. a miniature version of Table IV plus Fig. 3 for one model.

Run with::

    python examples/evaluate_model.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.evaluator import EvaluationConfig
from repro.bench.reporting import format_table
from repro.experiments import ExperimentScale, _run_manifest
from repro.runs.manifest import ProfileSpec, RunManifest, SuiteSpec

#: profile id → (kind, use SI-CoT, configuration label).
CONFIGURATIONS = {
    "base": ("baseline", False, "CodeQwen (base)"),
    "base-sicot": ("baseline", True, "CodeQwen + SI-CoT"),
    "haven": ("haven", False, "HaVen-CodeQwen (no CoT)"),
    "haven-sicot": ("haven", True, "HaVen-CodeQwen (full)"),
}


def main() -> None:
    scale = replace(ExperimentScale.quick(), human_tasks=40)
    manifest = RunManifest(
        name="evaluate-model",
        experiment="custom",
        scale=scale.to_dict(),
        config=EvaluationConfig(num_samples=5, ks=(1, 5), temperatures=(0.2,)),
        profiles=[
            ProfileSpec(
                profile_id=profile_id,
                kind=kind,
                key="codeqwen-7b",
                use_sicot=use_sicot,
                display=label,
            )
            for profile_id, (kind, use_sicot, label) in CONFIGURATIONS.items()
        ],
        suites=[SuiteSpec("human")],
    )

    print("Generating datasets, fine-tuning CodeQwen (behavioural model) and evaluating...")
    aggregator = _run_manifest(manifest)
    suite = aggregator.resolver.suite(manifest.suites[0])
    print(f"Suite: {suite.name} ({len(suite)} tasks), categories: {suite.categories()}")

    rows = []
    for profile_id, (_, _, label) in CONFIGURATIONS.items():
        result = aggregator.suite_result(profile_id, "human")
        functional = result.functional_percentages()
        syntax = result.syntax_percentages()
        rows.append([label, functional.get(1), functional.get(5), syntax.get(1)])

    print()
    print(format_table(
        ["Configuration", "func pass@1 (%)", "func pass@5 (%)", "syntax pass@1 (%)"],
        rows,
        title="VerilogEval-Human (scaled) — effect of fine-tuning and SI-CoT",
    ))

    print()
    full = aggregator.suite_result("haven-sicot", "human")
    category_rows = [
        [category, f"{100.0 * value:.1f}"] for category, value in sorted(full.category_pass_at_1().items())
    ]
    print(format_table(["Task category", "pass@1 (%)"], category_rows, title="HaVen-CodeQwen (full): per-category pass@1"))


if __name__ == "__main__":
    main()
