"""End-to-end HaVen generation pipeline (Fig. 1).

A :class:`HaVenPipeline` couples the SI-CoT prompting model with a CodeGen
backend: the raw user prompt is first refined (symbolic interpretation + module
header completion) and the refined prompt is then handed to the CodeGen LLM for
an end-to-end inference.  Disabling SI-CoT yields the "vanilla prompting" setting
of the ablation study; swapping the backend/profile yields every row of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..symbolic.detector import SymbolicModality
from .llm.base import (
    GeneratedSample,
    GenerationConfig,
    GenerationContext,
    LLMBackend,
    TaskDemands,
)
from .prompt import DesignPrompt, ModuleInterface, RefinedPrompt
from .sicot import SICoTPipeline


@dataclass
class PipelineResult:
    """Everything produced for one task by one pipeline invocation."""

    refined_prompt: RefinedPrompt | None
    samples: list[GeneratedSample] = field(default_factory=list)

    @property
    def codes(self) -> list[str]:
        return [sample.code for sample in self.samples]


class HaVenPipeline:
    """SI-CoT prompting model + CodeGen LLM, end to end."""

    def __init__(
        self,
        backend: LLMBackend,
        sicot: SICoTPipeline | None = None,
        use_sicot: bool = True,
    ):
        self.backend = backend
        self.sicot = sicot if sicot is not None else (SICoTPipeline() if use_sicot else None)
        self.use_sicot = use_sicot and self.sicot is not None

    @property
    def name(self) -> str:
        suffix = "+SI-CoT" if self.use_sicot else ""
        return f"{self.backend.name}{suffix}"

    def generate(
        self,
        prompt: DesignPrompt,
        interface: ModuleInterface,
        reference_source: str,
        demands: TaskDemands | None = None,
        config: GenerationConfig | None = None,
        prompt_style: str = "completion",
        task_id: str = "",
        sample_indices: Sequence[int] | None = None,
    ) -> PipelineResult:
        """Run the full pipeline for one task.

        Args:
            prompt: the raw user prompt (as the benchmark supplies it).
            interface: the target module interface.
            reference_source: the task's golden implementation (used by the
                behavioural backend as its competence ceiling; ignored by a real
                LLM backend).
            demands: the task's demand profile (defaults to moderate demands).
            config: sampling configuration.
            prompt_style: ``"completion"`` or ``"spec_to_rtl"``.
            task_id: identifier for deterministic sampling.
            sample_indices: draw only these indices of the deterministic sample
                stream instead of ``range(config.num_samples)``, in one
                ``generate_indices`` call (the resumable run engine uses this
                to execute individual work units; each returned sample keeps
                its true ``sample_index``).
        """
        config = config or GenerationConfig()
        demands = demands or TaskDemands()

        refined: RefinedPrompt | None = None
        prompt_refined = False
        if self.use_sicot and self.sicot is not None:
            refined = self.sicot.refine(prompt)
            prompt_text = refined.text
            prompt_refined = refined.modality is not SymbolicModality.NONE and bool(
                refined.interpretation
            )
        else:
            prompt_text = prompt.full_text()

        context = GenerationContext(
            prompt_text=prompt_text,
            interface=interface,
            reference_source=reference_source,
            demands=demands,
            prompt_refined=prompt_refined,
            prompt_style=prompt_style,
            task_id=task_id,
        )
        if sample_indices is None:
            samples = self.backend.generate(context, config)
        else:
            samples = self.backend.generate_indices(context, config, sample_indices)
        return PipelineResult(refined_prompt=refined, samples=samples)
