"""Abstract interfaces for CodeGen LLM backends.

The paper fine-tunes CodeLlama/DeepSeek-Coder/CodeQwen and queries commercial
LLMs.  None of those are available offline, so this repository defines a backend
interface and ships a *behavioural* implementation
(:mod:`repro.core.llm.simulated`) whose generations are real Verilog text scored
mechanistically by the compiler/simulator substrate.  The interface is
deliberately narrow so that a genuine HuggingFace- or API-backed implementation
could be dropped in without touching the benchmark harness.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from ...symbolic.detector import SymbolicModality
from ...verilog.analyzer import Attribute
from ..prompt import ModuleInterface
from ..taxonomy import HallucinationRecord


@dataclass(frozen=True)
class TaskDemands:
    """What a benchmark task demands from the model, on normalised 0-1 scales.

    Attributes:
        modality: the symbolic modality embedded in the task prompt, if any.
        knowledge: how much HDL-convention / Verilog-attribute knowledge is needed.
        logic: how much logical reasoning (expression manipulation, corner cases).
        difficulty: overall structural complexity (ports, state, width).
        required_attributes: Verilog attributes the design must implement
            (asynchronous reset, negative-edge clocking, ...).
    """

    modality: SymbolicModality = SymbolicModality.NONE
    knowledge: float = 0.3
    logic: float = 0.3
    difficulty: float = 0.3
    required_attributes: frozenset[Attribute] = frozenset()

    def clamped(self) -> "TaskDemands":
        """Return a copy with every scalar clamped into [0, 1]."""

        def clamp(value: float) -> float:
            return min(1.0, max(0.0, value))

        return TaskDemands(
            modality=self.modality,
            knowledge=clamp(self.knowledge),
            logic=clamp(self.logic),
            difficulty=clamp(self.difficulty),
            required_attributes=self.required_attributes,
        )


@dataclass
class GenerationConfig:
    """Sampling configuration for a generation request."""

    temperature: float = 0.2
    num_samples: int = 1
    seed: int = 0
    max_new_tokens: int = 2048  # kept for interface fidelity; unused by the simulation


@dataclass
class GenerationContext:
    """Everything a backend needs to produce candidate Verilog for one task.

    Attributes:
        prompt_text: the instruction finally handed to the CodeGen LLM (possibly
            refined by SI-CoT).
        interface: the target module interface.
        reference_source: the task's golden implementation.  The behavioural
            backend treats this as the competence ceiling; a real LLM backend
            would ignore it.
        demands: the task's demand profile.
        prompt_refined: whether SI-CoT already interpreted the symbolic content.
        prompt_style: ``"completion"`` for VerilogEval-v1/RTLLM style prompts or
            ``"spec_to_rtl"`` for the chat-style VerilogEval-v2 prompts.
        task_id: identifier used for deterministic per-task randomness.
    """

    prompt_text: str
    interface: ModuleInterface
    reference_source: str
    demands: TaskDemands = field(default_factory=TaskDemands)
    prompt_refined: bool = False
    prompt_style: str = "completion"
    task_id: str = ""


@dataclass
class GeneratedSample:
    """One candidate completion for a task."""

    code: str
    injected_hallucinations: list[HallucinationRecord] = field(default_factory=list)
    sample_index: int = 0
    temperature: float = 0.2

    @property
    def is_intended_correct(self) -> bool:
        """Whether the behavioural backend intended this sample to be correct."""
        return not self.injected_hallucinations


class LLMBackend(abc.ABC):
    """Interface every CodeGen backend implements."""

    name: str = "backend"

    @abc.abstractmethod
    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        """Produce ``config.num_samples`` candidate completions for ``context``."""

    def generate_at(
        self, context: GenerationContext, config: GenerationConfig, index: int
    ) -> GeneratedSample:
        """Produce the sample at ``index`` of the deterministic sample stream.

        The contract (which the resumable run engine relies on) is that for a
        fixed ``(context, config)`` the stream of samples is deterministic and
        per-index addressable: ``generate_at(ctx, cfg, i)`` must equal
        ``generate(ctx, cfg')[i]`` for any ``cfg'`` that only differs in
        ``num_samples > i``.  The default implementation draws the prefix and
        indexes it; deterministic backends should override with a direct
        per-index derivation.
        """
        if index < 0:
            raise IndexError(f"sample index must be non-negative, got {index}")
        prefix = dataclasses.replace(config, num_samples=index + 1)
        return self.generate(context, prefix)[index]

    def generate_indices(
        self, context: GenerationContext, config: GenerationConfig, indices: Sequence[int]
    ) -> list[GeneratedSample]:
        """Produce the samples at ``indices`` of the deterministic sample stream.

        One call per (task, configuration) draw, whatever indices it names:
        each returned sample must equal ``generate_at`` of its index, so
        splitting a draw's indices across calls changes no sample.  The
        default draws them one by one; a backend with per-task work to share
        between indices overrides it.
        """
        return [self.generate_at(context, config, index) for index in indices]

    def generate_one(self, context: GenerationContext, config: GenerationConfig | None = None) -> GeneratedSample:
        """Convenience wrapper returning a single sample."""
        config = config or GenerationConfig(num_samples=1)
        samples = self.generate(context, GenerationConfig(
            temperature=config.temperature,
            num_samples=1,
            seed=config.seed,
        ))
        return samples[0]
