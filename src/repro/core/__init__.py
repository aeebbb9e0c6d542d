"""HaVen core: taxonomy, SI-CoT, exemplars, datasets, behavioural LLMs, pipeline.

Public names load on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".exemplars": ("EXEMPLAR_LIBRARY", "Exemplar", "ExemplarLibrary"),
        ".hallucination_detector": (
            "DetectionReport",
            "HallucinationDetector",
            "PromptRequirements",
            "classify_generation",
        ),
        ".pipeline": ("HaVenPipeline", "PipelineResult"),
        ".prompt": ("DesignPrompt", "ModuleInterface", "PortSpec", "RefinedPrompt"),
        ".sicot": ("SICoTConfig", "SICoTPipeline", "infer_interface", "refine_prompt"),
        ".taxonomy": (
            "SUBTYPE_TO_TYPE",
            "TABLE_II_EXAMPLES",
            "HallucinationRecord",
            "HallucinationSubtype",
            "HallucinationType",
            "TaxonomyExample",
            "TaxonomySummary",
            "subtypes_of",
            "type_of",
        ),
    },
    submodules=("dataset", "llm"),
)
