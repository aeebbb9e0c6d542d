"""Behavioural LLM backends, capability profiles, corruption and fine-tuning.

Public names load on first access (see :mod:`repro._lazy`).
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": (
            "GeneratedSample",
            "GenerationConfig",
            "GenerationContext",
            "LLMBackend",
            "TaskDemands",
        ),
        ".corruption": ("CorruptionInjector", "CorruptionOutcome"),
        ".finetune": ("DatasetMix", "FineTuneConfig", "FineTuneReport", "FineTuner"),
        ".profiles": (
            "BASE_MODEL_PROFILES",
            "BASELINE_PROFILES",
            "CapabilityProfile",
            "ProfileRegistry",
        ),
        ".simulated": (
            "LOGISTIC_STEEPNESS",
            "MODALITY_DEMAND",
            "SimulatedCodeGenLLM",
            "make_backend",
            "success_probability",
        ),
    },
)
