"""Behavioural CodeGen-LLM backend.

:class:`SimulatedCodeGenLLM` is the offline substitute for the fine-tuned
CodeLlama/DeepSeek/CodeQwen models and the commercial LLM baselines (see the
substitution table in DESIGN.md).  For every requested sample it:

1. evaluates its :class:`~repro.core.llm.profiles.CapabilityProfile` against the
   task's :class:`~repro.core.llm.base.TaskDemands` through a logistic
   skill-vs-demand model (plus temperature noise), axis by axis
   (syntax → symbolic → knowledge → logic → general complexity);
2. when every axis succeeds, emits the task's reference implementation (the
   competence ceiling);
3. when an axis fails, injects the corresponding Table II defect into the code
   via :class:`~repro.core.llm.corruption.CorruptionInjector` and reports the
   intended hallucination.

The emitted code — correct or corrupted — is then compiled and simulated by the
benchmark evaluator, so pass/fail is always decided by the toolchain.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from ...symbolic.detector import SymbolicModality
from ..taxonomy import HallucinationSubtype
from .base import GeneratedSample, GenerationConfig, GenerationContext, LLMBackend, TaskDemands
from .corruption import CorruptionInjector
from .profiles import CapabilityProfile

#: How hard each symbolic modality is to read directly from the raw prompt.
#: Calibrated to the ordering of Table V (waveforms hardest, truth tables easiest).
MODALITY_DEMAND: dict[SymbolicModality, float] = {
    SymbolicModality.NONE: 0.0,
    SymbolicModality.TRUTH_TABLE: 0.50,
    SymbolicModality.WAVEFORM: 0.62,
    SymbolicModality.STATE_DIAGRAM: 0.55,
}

#: Steepness of the skill-vs-demand logistic.  Larger values make task outcomes
#: more bimodal (well-within-capability tasks almost always pass, out-of-reach
#: tasks almost never do), which is what real pass@k curves look like.
LOGISTIC_STEEPNESS = 8.0

#: Standard deviation of the per-(model, task) aptitude offset.  This models the
#: fact that a given model either "gets" a particular problem or does not: samples
#: for the same task are strongly correlated, which keeps pass@5 close to pass@1
#: for hard tasks (as observed in the paper's tables) instead of saturating.
TASK_APTITUDE_SIGMA = 0.15

#: Baseline per-sample jitter of the shared task quantile (see ``evaluate_axes``).
#: Higher sampling temperature adds to this, which is exactly why the paper sweeps
#: the temperature when reporting pass@5.
SAMPLE_JITTER_BASE = 0.04

#: Baseline "demand" of emitting syntactically valid Verilog at all.
SYNTAX_DEMAND = 0.18

#: Extra difficulty seen by models unfamiliar with spec-to-RTL chat prompts.
CHAT_STYLE_PENALTY = 0.25


def _logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def sample_stream_key(
    identity: str, backend_seed: int, task_id: str, config: GenerationConfig, index: int
) -> str:
    """Canonical cache key of one sample in the deterministic sample stream.

    The temperature is canonicalised through ``repr(float(...))`` so every
    code path that builds a sample key — serial generation, per-unit sharded
    generation, resumed runs — spells the same temperature identically and
    distinct temperatures can never collide (an int-typed ``0`` and a float
    ``0.0`` are the same draw, while ``0.2`` vs ``0.5`` always differ).
    """
    return (
        f"{identity}|{backend_seed}|{task_id}|{config.seed}|"
        f"{float(config.temperature)!r}|{index}"
    )


def success_probability(skill: float, demand: float, steepness: float = LOGISTIC_STEEPNESS) -> float:
    """Probability of succeeding on one axis given skill and demand levels."""
    return _logistic(steepness * (skill - demand))


@dataclass
class AxisOutcome:
    """Result of evaluating one taxonomy axis for one sample."""

    axis: str
    success_probability: float
    failed: bool


class SimulatedCodeGenLLM(LLMBackend):
    """Profile-driven behavioural CodeGen backend."""

    def __init__(self, profile: CapabilityProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        self.name = profile.name
        #: :meth:`_task_latents` by the exact string it hashes.
        self._latents: dict[str, tuple[dict[str, float], dict[str, float]]] = {}

    # ------------------------------------------------------------------ generation
    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        """Generate ``config.num_samples`` candidates for one task."""
        return [self.generate_at(context, config, index) for index in range(config.num_samples)]

    def generate_at(
        self, context: GenerationContext, config: GenerationConfig, index: int
    ) -> GeneratedSample:
        """Generate exactly the sample at ``index`` of the deterministic stream.

        Every sample is seeded independently by
        :func:`sample_stream_key` — not by ``num_samples`` or by the other
        samples — so a sharded or resumed run that draws sample ``i`` in
        isolation reproduces the serial run bit-for-bit.
        """
        rng = self._sample_rng(context, config, index)
        return self._generate_sample(context, config, index, rng)

    def _generate_sample(
        self,
        context: GenerationContext,
        config: GenerationConfig,
        index: int,
        rng: random.Random,
    ) -> GeneratedSample:
        outcomes = self.evaluate_axes(context, config.temperature, rng)
        failed = [outcome for outcome in outcomes if outcome.failed]
        if not failed:
            return GeneratedSample(
                code=context.reference_source,
                injected_hallucinations=[],
                sample_index=index,
                temperature=config.temperature,
            )
        subtype = self._pick_subtype(failed[0].axis, context, rng)
        injector = CorruptionInjector(rng)
        outcome = injector.inject(context.reference_source, subtype)
        return GeneratedSample(
            code=outcome.code,
            injected_hallucinations=[outcome.record] if outcome.applied else [],
            sample_index=index,
            temperature=config.temperature,
        )

    # ------------------------------------------------------------------ axis model
    def evaluate_axes(
        self, context: GenerationContext, temperature: float, rng: random.Random
    ) -> list[AxisOutcome]:
        """Evaluate every taxonomy axis, in priority order, for one sample.

        Per-axis success probabilities come from the logistic skill-vs-demand
        model (shifted by a per-(model, task) aptitude offset).  Whether a
        particular *sample* succeeds on an axis is decided by comparing the
        probability against a per-(model, task, axis) latent quantile that is
        shared by every sample of the task, perturbed by a small per-sample
        jitter that grows with the sampling temperature.  Samples of one task are
        therefore strongly correlated — repeated sampling only flips outcomes for
        borderline tasks — which reproduces the modest pass@1 → pass@5 gaps the
        paper reports and makes the temperature sweep genuinely matter.
        """
        demands = context.demands.clamped()
        jitter = SAMPLE_JITTER_BASE + self.profile.temperature_sensitivity * max(temperature, 0.05)
        aptitude, quantiles = self._task_latents(context)

        def shifted(skill: float, axis: str) -> float:
            return skill + aptitude[axis]

        def decide(axis: str, probability: float) -> bool:
            """Return True when the axis FAILS for this sample."""
            draw = quantiles[axis] + rng.gauss(0.0, jitter)
            return draw > probability

        outcomes: list[AxisOutcome] = []

        syntax_p = success_probability(shifted(self.profile.syntax_skill, "syntax"), SYNTAX_DEMAND)
        outcomes.append(AxisOutcome("syntax", syntax_p, decide("syntax", syntax_p)))

        if demands.modality is not SymbolicModality.NONE:
            symbolic_skill = self.profile.effective_symbolic_skill(context.prompt_refined)
            symbolic_demand = MODALITY_DEMAND[demands.modality]
            symbolic_p = success_probability(shifted(symbolic_skill, "symbolic"), symbolic_demand)
            outcomes.append(AxisOutcome("symbolic", symbolic_p, decide("symbolic", symbolic_p)))

        knowledge_p = success_probability(
            shifted(self.profile.knowledge_skill, "knowledge"), demands.knowledge
        )
        outcomes.append(AxisOutcome("knowledge", knowledge_p, decide("knowledge", knowledge_p)))

        logic_p = success_probability(shifted(self.profile.logic_skill, "logic"), demands.logic)
        outcomes.append(AxisOutcome("logic", logic_p, decide("logic", logic_p)))

        difficulty = demands.difficulty
        if context.prompt_style == "spec_to_rtl":
            difficulty = min(1.0, difficulty + (1.0 - self.profile.chat_alignment) * CHAT_STYLE_PENALTY)
        general_p = success_probability(shifted(self.profile.general_skill, "general"), difficulty)
        outcomes.append(AxisOutcome("general", general_p, decide("general", general_p)))

        return outcomes

    def _task_latents(self, context: GenerationContext) -> tuple[dict[str, float], dict[str, float]]:
        """Per-(model, task) aptitude offsets and latent quantiles.

        Neither depends on the sample index, the temperature or on whether SI-CoT
        refined the prompt, so repeated samples of the same task are correlated
        and SI-CoT on/off comparisons see the same latent difficulty.  They
        are memoised by the string they are seeded from; callers must not
        mutate the returned dicts.
        """
        key = f"aptitude|{self.profile.latent_identity()}|{self.seed}|{context.task_id}"
        latents = self._latents.get(key)
        if latents is None:
            digest = hashlib.sha256(key.encode()).hexdigest()
            task_rng = random.Random(int(digest[:16], 16))
            axes = ("syntax", "symbolic", "knowledge", "logic", "general")
            aptitude = {axis: task_rng.gauss(0.0, TASK_APTITUDE_SIGMA) for axis in axes}
            quantiles = {axis: task_rng.random() for axis in axes}
            latents = self._latents[key] = (aptitude, quantiles)
        return latents

    def pass_probability(self, context: GenerationContext, temperature: float = 0.2) -> float:
        """Closed-form expected pass probability (no sampling noise); for analysis."""
        demands = context.demands.clamped()
        probability = success_probability(self.profile.syntax_skill, SYNTAX_DEMAND)
        if demands.modality is not SymbolicModality.NONE:
            probability *= success_probability(
                self.profile.effective_symbolic_skill(context.prompt_refined),
                MODALITY_DEMAND[demands.modality],
            )
        probability *= success_probability(self.profile.knowledge_skill, demands.knowledge)
        probability *= success_probability(self.profile.logic_skill, demands.logic)
        difficulty = demands.difficulty
        if context.prompt_style == "spec_to_rtl":
            difficulty = min(1.0, difficulty + (1.0 - self.profile.chat_alignment) * CHAT_STYLE_PENALTY)
        probability *= success_probability(self.profile.general_skill, difficulty)
        return probability

    # ------------------------------------------------------------------ helpers
    def _pick_subtype(
        self, axis: str, context: GenerationContext, rng: random.Random
    ) -> HallucinationSubtype:
        demands = context.demands
        if axis == "syntax":
            return HallucinationSubtype.VERILOG_SYNTAX_MISAPPLICATION
        if axis == "symbolic":
            return {
                SymbolicModality.TRUTH_TABLE: HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION,
                SymbolicModality.WAVEFORM: HallucinationSubtype.WAVEFORM_MISINTERPRETATION,
                SymbolicModality.STATE_DIAGRAM: HallucinationSubtype.STATE_DIAGRAM_MISINTERPRETATION,
            }.get(demands.modality, HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION)
        if axis == "knowledge":
            if demands.required_attributes and rng.random() < 0.6:
                return HallucinationSubtype.VERILOG_ATTRIBUTE_MISUNDERSTANDING
            return HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION
        if axis == "logic":
            roll = rng.random()
            if "if" in context.prompt_text.lower() and roll < 0.35:
                return HallucinationSubtype.INSTRUCTIONAL_LOGIC_FAILURE
            if ("case" in context.reference_source or "else" in context.reference_source) and roll < 0.65:
                return HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING
            return HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION
        # General complexity failures show up as logic or knowledge slips.
        return rng.choice(
            [
                HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION,
                HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION,
                HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING,
            ]
        )

    def _sample_rng(
        self, context: GenerationContext, config: GenerationConfig, index: int
    ) -> random.Random:
        key = sample_stream_key(
            self.profile.latent_identity(), self.seed, context.task_id, config, index
        )
        digest = hashlib.sha256(key.encode()).hexdigest()
        return random.Random(int(digest[:16], 16))


def make_backend(profile: CapabilityProfile, seed: int = 0) -> SimulatedCodeGenLLM:
    """Factory mirroring how a real backend would be constructed from a model id."""
    return SimulatedCodeGenLLM(profile=profile, seed=seed)
