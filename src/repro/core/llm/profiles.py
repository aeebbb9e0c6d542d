"""Capability profiles for the behavioural CodeGen backends.

A :class:`CapabilityProfile` summarises a model's competence along the axes the
hallucination taxonomy cares about.  All skills live on a 0-1 scale and are
compared against task demands (also 0-1) through a logistic curve in
:mod:`repro.core.llm.simulated`, which makes easy tasks near-certain and
out-of-reach tasks near-impossible — the behaviour real pass@k curves show.

The registry below covers every baseline row of Table IV plus the commercial
models of Tables V/VI.  The skill values are *calibration inputs*, chosen so the
measured pass rates land near the paper's numbers and — more importantly — so the
ranking and relative gaps match; the measured values are recorded in
``benchmarks/results/`` (see the README).  The three HaVen rows are intentionally **absent** here: they are
derived by running the actual fine-tuning pipeline
(:mod:`repro.core.llm.finetune`) on the base-model profiles with the KL-dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CapabilityProfile:
    """Competence of a CodeGen model along the taxonomy axes.

    Attributes:
        name: display name used in benchmark tables.
        symbolic_skill: ability to interpret raw symbolic modalities (truth
            tables, waveforms, state diagrams) embedded in prompts.
        sicot_gain: additional effective symbolic skill when the prompt has been
            refined by SI-CoT (the interpretation is handed to the model).
        knowledge_skill: HDL-convention and Verilog-attribute knowledge.
        logic_skill: logical-reasoning ability (expressions, corner cases,
            instruction following).
        syntax_skill: ability to emit syntactically valid Verilog.
        general_skill: robustness against overall task complexity.
        chat_alignment: familiarity with spec-to-RTL chat-style prompts
            (VerilogEval v2); low values add difficulty on that benchmark.
        temperature_sensitivity: how strongly sampling temperature perturbs the
            per-sample outcome.
        open_source: whether the underlying model is open source (Table IV column).
        model_size: parameter-count label used in reports.
        latent_key: identity used for the per-task latent draws of the behavioural
            backend.  Fine-tuned variants of a base model share the base's key so
            that ablation comparisons are paired (same per-task "luck"), mirroring
            how the paper evaluates every setting on the same task set.
    """

    name: str
    symbolic_skill: float
    knowledge_skill: float
    logic_skill: float
    syntax_skill: float
    general_skill: float
    sicot_gain: float = 0.08
    chat_alignment: float = 0.5
    temperature_sensitivity: float = 0.08
    open_source: bool = True
    model_size: str = "7B"
    latent_key: str = ""

    def with_updates(self, **changes: float) -> "CapabilityProfile":
        """Return a copy with the given fields replaced (used by fine-tuning)."""
        return replace(self, **changes)

    def latent_identity(self) -> str:
        """Key used for per-task latent randomness (defaults to the profile name)."""
        return self.latent_key or self.name

    def effective_symbolic_skill(self, prompt_refined: bool) -> float:
        """Symbolic skill after accounting for SI-CoT refinement."""
        if prompt_refined:
            return min(1.0, self.symbolic_skill + self.sicot_gain)
        return self.symbolic_skill


def _profile(
    name: str,
    symbolic: float,
    knowledge: float,
    logic: float,
    syntax: float,
    general: float,
    sicot_gain: float = 0.08,
    chat_alignment: float = 0.5,
    open_source: bool = True,
    model_size: str = "7B",
) -> CapabilityProfile:
    return CapabilityProfile(
        name=name,
        symbolic_skill=symbolic,
        knowledge_skill=knowledge,
        logic_skill=logic,
        syntax_skill=syntax,
        general_skill=general,
        sicot_gain=sicot_gain,
        chat_alignment=chat_alignment,
        open_source=open_source,
        model_size=model_size,
    )


#: Base (pre-trained, not Verilog-fine-tuned) models.  These are both Table IV
#: "General LLM" rows and the starting points of the HaVen fine-tuning pipeline.
BASE_MODEL_PROFILES: dict[str, CapabilityProfile] = {
    "codellama-7b": _profile(
        "CodeLlama-7b-Instruct", 0.14, 0.42, 0.45, 0.86, 0.43, chat_alignment=0.40
    ),
    "deepseek-coder-6.7b": _profile(
        "DeepSeek-Coder-6.7b-Instruct", 0.20, 0.53, 0.56, 0.92, 0.55, chat_alignment=0.55,
        model_size="6.7B",
    ),
    "codeqwen-7b": _profile(
        "CodeQwen1.5-7B-Chat", 0.16, 0.43, 0.47, 0.88, 0.45, chat_alignment=0.50
    ),
}

#: Commercial and open baselines of Table IV (plus Tables V/VI commercial models).
BASELINE_PROFILES: dict[str, CapabilityProfile] = {
    # Commercial general-purpose LLMs.
    "gpt-3.5": _profile(
        "GPT-3.5", 0.22, 0.50, 0.55, 0.90, 0.53, chat_alignment=0.70, open_source=False, model_size="n/a"
    ),
    "gpt-4": _profile(
        "GPT-4", 0.40, 0.64, 0.69, 0.97, 0.64, sicot_gain=0.10, chat_alignment=0.85,
        open_source=False, model_size="n/a",
    ),
    "gpt-4o-mini": _profile(
        "GPT-4o mini", 0.38, 0.61, 0.66, 0.96, 0.61, sicot_gain=0.10, chat_alignment=0.85,
        open_source=False, model_size="n/a",
    ),
    "deepseek-coder-v2": _profile(
        "DeepSeek-Coder-V2", 0.48, 0.64, 0.68, 0.96, 0.64, sicot_gain=0.09, chat_alignment=0.80,
        open_source=True, model_size="n/a",
    ),
    # Open general code LLMs.
    "starcoder-15b": _profile("Starcoder", 0.16, 0.42, 0.45, 0.90, 0.44, chat_alignment=0.35, model_size="15B"),
    "codellama-7b": BASE_MODEL_PROFILES["codellama-7b"],
    "deepseek-coder-6.7b": BASE_MODEL_PROFILES["deepseek-coder-6.7b"],
    "codeqwen-7b": BASE_MODEL_PROFILES["codeqwen-7b"],
    # Verilog-specialised baselines.
    "chipnemo-13b": _profile(
        "ChipNeMo", 0.16, 0.48, 0.47, 0.88, 0.47, chat_alignment=0.40, open_source=False, model_size="13B"
    ),
    "thakur-16b": _profile("Thakur et al.", 0.18, 0.51, 0.49, 0.87, 0.49, chat_alignment=0.40, model_size="16B"),
    "rtlcoder-mistral": _profile(
        "RTLCoder-Mistral", 0.32, 0.59, 0.58, 0.95, 0.58, chat_alignment=0.55
    ),
    "rtlcoder-deepseek": _profile(
        "RTLCoder-DeepSeek", 0.34, 0.62, 0.61, 0.93, 0.61, chat_alignment=0.60, model_size="6.7B"
    ),
    "betterv-codellama": _profile(
        "BetterV-CodeLlama", 0.34, 0.61, 0.61, 0.93, 0.61, chat_alignment=0.55, open_source=False
    ),
    "betterv-deepseek": _profile(
        "BetterV-DeepSeek", 0.36, 0.65, 0.63, 0.94, 0.63, chat_alignment=0.60, open_source=False,
        model_size="6.7B",
    ),
    "betterv-codeqwen": _profile(
        "BetterV-CodeQwen", 0.36, 0.65, 0.64, 0.94, 0.63, chat_alignment=0.60, open_source=False
    ),
    "autovcoder-codellama": _profile(
        "AutoVCoder-CodeLlama", 0.36, 0.63, 0.62, 0.93, 0.62, chat_alignment=0.55, open_source=False
    ),
    "autovcoder-deepseek": _profile(
        "AutoVCoder-DeepSeek", 0.38, 0.67, 0.65, 0.97, 0.64, chat_alignment=0.60, open_source=False,
        model_size="6.7B",
    ),
    "autovcoder-codeqwen": _profile(
        "AutoVCoder-CodeQwen", 0.38, 0.67, 0.66, 0.97, 0.64, chat_alignment=0.60, open_source=False
    ),
    "origen-deepseek": _profile(
        "OriGen-DeepSeek-7B-v1.5", 0.40, 0.73, 0.70, 0.95, 0.69, chat_alignment=0.65
    ),
}


@dataclass
class ProfileRegistry:
    """Lookup helper over the built-in profiles plus any registered at runtime."""

    profiles: dict[str, CapabilityProfile] = field(
        default_factory=lambda: dict(BASELINE_PROFILES)
    )

    def get(self, key: str) -> CapabilityProfile:
        """Return the profile registered under ``key``.

        Raises:
            KeyError: when the key is unknown.
        """
        if key not in self.profiles:
            raise KeyError(
                f"unknown model profile {key!r}; known: {sorted(self.profiles)}"
            )
        return self.profiles[key]

    def register(self, key: str, profile: CapabilityProfile) -> None:
        """Register (or replace) a profile, e.g. a fine-tuned HaVen model."""
        self.profiles[key] = profile

    def keys(self) -> list[str]:
        return sorted(self.profiles)
