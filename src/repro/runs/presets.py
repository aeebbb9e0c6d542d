"""Manifest builders for the paper's five experiments.

Each function captures one ``run_*`` driver's sweep as a pure-data
:class:`~repro.runs.manifest.RunManifest`; the drivers in
:mod:`repro.experiments` are thin wrappers that build one of these, execute it
through the :class:`~repro.runs.engine.RunEngine`, and aggregate.
"""

from __future__ import annotations

from ..bench.suites import TABLE4_SUITES
from ..core.llm.profiles import BASE_MODEL_PROFILES, BASELINE_PROFILES
from .manifest import ProfileSpec, RunManifest, SuiteSpec


def _scale_and_config(scale):
    from ..experiments import ExperimentScale

    scale = scale or ExperimentScale.quick()
    return scale, scale.evaluation_config()


def table4_manifest(
    scale=None,
    baseline_keys: list[str] | None = None,
    include_haven: bool = True,
) -> RunManifest:
    """Table IV: every model evaluated on the four benchmarks."""
    from ..experiments import HAVEN_BASE_MODELS, TABLE4_BASELINES

    scale, config = _scale_and_config(scale)
    profiles: list[ProfileSpec] = []
    keys = baseline_keys if baseline_keys is not None else list(TABLE4_BASELINES)
    for key in keys:
        profile = BASELINE_PROFILES[key]
        profiles.append(
            ProfileSpec(
                profile_id=f"baseline:{key}",
                kind="baseline",
                key=key,
                use_sicot=False,
                display=profile.name,
                group=TABLE4_BASELINES.get(key, "General LLM"),
                open_source=profile.open_source,
                model_size=profile.model_size,
            )
        )
    if include_haven:
        for base_key, haven_name in HAVEN_BASE_MODELS.items():
            base = BASE_MODEL_PROFILES[base_key]
            profiles.append(
                ProfileSpec(
                    profile_id=f"haven:{base_key}",
                    kind="haven",
                    key=base_key,
                    use_sicot=True,
                    display=haven_name,
                    group="Ours",
                    open_source=True,
                    model_size=base.model_size,
                )
            )
    return RunManifest(
        name="table4",
        experiment="table4",
        scale=scale.to_dict(),
        config=config,
        profiles=profiles,
        suites=[SuiteSpec(suite_id) for suite_id in TABLE4_SUITES],
    )


def table5_manifest(scale=None, full_subset: bool = True) -> RunManifest:
    """Table V: per-modality pass@1 on the symbolic subset."""
    from ..experiments import TABLE5_MODELS

    scale, config = _scale_and_config(scale)
    profiles = [
        ProfileSpec(
            profile_id=f"baseline:{key}",
            kind="baseline",
            key=key,
            use_sicot=False,
            display=BASELINE_PROFILES[key].name,
            open_source=BASELINE_PROFILES[key].open_source,
            model_size=BASELINE_PROFILES[key].model_size,
        )
        for key in TABLE5_MODELS
    ]
    profiles.append(
        ProfileSpec(
            profile_id="haven:codeqwen-7b",
            kind="haven",
            key="codeqwen-7b",
            use_sicot=True,
            display="HaVen-CodeQwen",
            group="Ours",
            model_size=BASE_MODEL_PROFILES["codeqwen-7b"].model_size,
        )
    )
    return RunManifest(
        name="table5",
        experiment="table5",
        scale=scale.to_dict(),
        config=config,
        profiles=profiles,
        suites=[SuiteSpec("symbolic", full_subset=full_subset)],
    )


def table6_manifest(scale=None, full_subset: bool = True) -> RunManifest:
    """Table VI: commercial models with vs without SI-CoT on the symbolic subset."""
    from ..experiments import TABLE6_MODELS

    scale, config = _scale_and_config(scale)
    profiles: list[ProfileSpec] = []
    for key in TABLE6_MODELS:
        profile = BASELINE_PROFILES[key]
        for use_sicot in (True, False):
            profiles.append(
                ProfileSpec(
                    profile_id=f"baseline:{key}" + (":sicot" if use_sicot else ""),
                    kind="baseline",
                    key=key,
                    use_sicot=use_sicot,
                    display=profile.name,
                    open_source=profile.open_source,
                    model_size=profile.model_size,
                )
            )
    return RunManifest(
        name="table6",
        experiment="table6",
        scale=scale.to_dict(),
        config=config,
        profiles=profiles,
        suites=[SuiteSpec("symbolic", full_subset=full_subset)],
    )


def fig3_manifest(scale=None) -> RunManifest:
    """Fig. 3: the five ablation settings across the three base models."""
    from ..experiments import HAVEN_BASE_MODELS

    scale, config = _scale_and_config(scale)
    profiles: list[ProfileSpec] = []
    for base_key, haven_name in HAVEN_BASE_MODELS.items():
        base_name = BASE_MODEL_PROFILES[base_key].name
        display_by_setting = {
            "base": base_name,
            "vanilla": f"{base_name}+vanilla",
            "vanilla+CoT": f"{base_name}+vanilla",
            "vanilla+KL": f"{base_name}+vanilla+KL",
            "vanilla+CoT+KL": f"{base_name}+vanilla+KL",
        }
        for setting, display in display_by_setting.items():
            profiles.append(
                ProfileSpec(
                    profile_id=f"fig3:{base_key}:{setting}",
                    kind="fig3",
                    key=base_key,
                    setting=setting,
                    use_sicot="CoT" in setting,
                    display=display,
                    group=haven_name.replace("HaVen-", ""),
                    model_size=BASE_MODEL_PROFILES[base_key].model_size,
                )
            )
    return RunManifest(
        name="fig3",
        experiment="fig3",
        scale=scale.to_dict(),
        config=config,
        profiles=profiles,
        suites=[SuiteSpec("human")],
    )


def fig4_manifest(scale=None, portions: tuple[int, ...] = (0, 50, 100)) -> RunManifest:
    """Fig. 4: pass@1/5 grids over K/L dataset portions (CodeQwen)."""
    scale, config = _scale_and_config(scale)
    profiles = [
        ProfileSpec(
            profile_id=f"fig4:k{k_portion}:l{l_portion}",
            kind="fig4",
            key="codeqwen-7b",
            use_sicot=True,
            k_portion=k_portion,
            l_portion=l_portion,
            display=f"CodeQwen+K{k_portion}+L{l_portion}",
            group="CodeQwen",
            model_size=BASE_MODEL_PROFILES["codeqwen-7b"].model_size,
        )
        for k_portion in portions
        for l_portion in portions
    ]
    return RunManifest(
        name="fig4",
        experiment="fig4",
        scale=scale.to_dict(),
        config=config,
        profiles=profiles,
        suites=[SuiteSpec("human")],
        portions=tuple(portions),
    )


EXPERIMENT_MANIFESTS = {
    "table4": table4_manifest,
    "table5": table5_manifest,
    "table6": table6_manifest,
    "fig3": fig3_manifest,
    "fig4": fig4_manifest,
}
