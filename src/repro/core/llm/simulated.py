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
   via :class:`~repro.core.llm.corruption.CorruptionTable` and reports the
   intended hallucination.

Drawing is split into a plan and its draws.  One
:meth:`~SimulatedCodeGenLLM.generate_indices` call (``generate`` and
``generate_at`` go through it too) draws any sample indices of one task at one
temperature.  It builds the call's :class:`SamplePlan` once: the clamped
demands, the per-(model, task) latents, the temperature jitter, every axis's
latent quantile and success probability, and the task facts the sub-type pick
reads.  Each index then costs only its draws: the sha256-seeded ``Random``,
one Gaussian per axis, the sub-type pick, and the corruption's own picks
against the reference's memoised corruption table.  A sample is seeded by its
own key alone, so how its indices are grouped into calls never changes it.

The emitted code — correct or corrupted — is then compiled and simulated by the
benchmark evaluator, so pass/fail is always decided by the toolchain.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence

from ...symbolic.detector import SymbolicModality
from ..taxonomy import HallucinationSubtype
from .base import GeneratedSample, GenerationConfig, GenerationContext, LLMBackend
from .corruption import corruption_table
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

#: Baseline per-sample jitter of the shared task quantile (see :class:`SamplePlan`).
#: Higher sampling temperature adds to this, which is exactly why the paper sweeps
#: the temperature when reporting pass@5.
SAMPLE_JITTER_BASE = 0.04

#: Baseline "demand" of emitting syntactically valid Verilog at all.
SYNTAX_DEMAND = 0.18

#: Extra difficulty seen by models unfamiliar with spec-to-RTL chat prompts.
CHAT_STYLE_PENALTY = 0.25


#: The taxonomy axes, in the order their per-task latents are drawn.
AXES = ("syntax", "symbolic", "knowledge", "logic", "general")

#: The sub-type a failed symbolic axis yields, by the prompt's modality.
_SYMBOLIC_SUBTYPES = {
    SymbolicModality.TRUTH_TABLE: HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION,
    SymbolicModality.WAVEFORM: HallucinationSubtype.WAVEFORM_MISINTERPRETATION,
    SymbolicModality.STATE_DIAGRAM: HallucinationSubtype.STATE_DIAGRAM_MISINTERPRETATION,
}

#: General complexity failures show up as logic or knowledge slips.
_GENERAL_SUBTYPES = (
    HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION,
    HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION,
    HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING,
)


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
    return f"{_stream_key_prefix(identity, backend_seed, task_id, config)}{index}"


def _stream_key_prefix(
    identity: str, backend_seed: int, task_id: str, config: GenerationConfig
) -> str:
    """:func:`sample_stream_key` up to the sample index."""
    return f"{identity}|{backend_seed}|{task_id}|{config.seed}|{float(config.temperature)!r}|"


def success_probability(skill: float, demand: float, steepness: float = LOGISTIC_STEEPNESS) -> float:
    """Probability of succeeding on one axis given skill and demand levels."""
    return _logistic(steepness * (skill - demand))


class SamplePlan:
    """Everything one task's samples at one temperature share, built once per call.

    Per-axis success probabilities come from the logistic skill-vs-demand
    model (shifted by a per-(model, task) aptitude offset).  Whether a
    particular *sample* succeeds on an axis is decided by comparing the
    probability against a per-(model, task, axis) latent quantile that is
    shared by every sample of the task, perturbed by a small per-sample
    jitter that grows with the sampling temperature.  Samples of one task are
    therefore strongly correlated — repeated sampling only flips outcomes for
    borderline tasks — which reproduces the modest pass@1 → pass@5 gaps the
    paper reports and makes the temperature sweep genuinely matter.

    Attributes:
        axes: ``(axis, latent quantile, success probability)`` of every axis
            the task exercises, in decision order.
        jitter: standard deviation of a sample's perturbation of each quantile.
    """

    __slots__ = (
        "axes",
        "jitter",
        "key_prefix",
        "reference",
        "temperature",
        "symbolic_subtype",
        "has_attributes",
        "mentions_if",
        "has_branches",
    )

    def __init__(
        self, backend: "SimulatedCodeGenLLM", context: GenerationContext, config: GenerationConfig
    ):
        profile = backend.profile
        aptitude, quantiles = backend._task_latents(context)
        self.axes = tuple(
            (axis, quantiles[axis], success_probability(skill + aptitude[axis], demand))
            for axis, skill, demand in backend.axis_table(context)
        )
        self.jitter = SAMPLE_JITTER_BASE + profile.temperature_sensitivity * max(config.temperature, 0.05)
        self.key_prefix = _stream_key_prefix(
            profile.latent_identity(), backend.seed, context.task_id, config
        )
        self.reference = context.reference_source
        self.temperature = config.temperature
        demands = context.demands
        self.symbolic_subtype = _SYMBOLIC_SUBTYPES.get(
            demands.modality, HallucinationSubtype.TRUTH_TABLE_MISINTERPRETATION
        )
        self.has_attributes = bool(demands.required_attributes)
        self.mentions_if = "if" in context.prompt_text.lower()
        self.has_branches = "case" in self.reference or "else" in self.reference

    def draw(self, index: int) -> GeneratedSample:
        """The sample at ``index``: only its own seed and draws are computed."""
        digest = hashlib.sha256(f"{self.key_prefix}{index}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        jitter = self.jitter
        failed = None
        for axis, quantile, probability in self.axes:
            # Every axis draws, whichever fails first: the picks after the
            # loop see the same generator state for every failure pattern.
            if quantile + rng.gauss(0.0, jitter) > probability and failed is None:
                failed = axis
        if failed is None:
            return GeneratedSample(
                code=self.reference,
                injected_hallucinations=[],
                sample_index=index,
                temperature=self.temperature,
            )
        subtype = self._pick_subtype(failed, rng)
        outcome = corruption_table(self.reference).inject(subtype, rng)
        return GeneratedSample(
            code=outcome.code,
            injected_hallucinations=[outcome.record] if outcome.applied else [],
            sample_index=index,
            temperature=self.temperature,
        )

    def _pick_subtype(self, axis: str, rng: random.Random) -> HallucinationSubtype:
        if axis == "syntax":
            return HallucinationSubtype.VERILOG_SYNTAX_MISAPPLICATION
        if axis == "symbolic":
            return self.symbolic_subtype
        if axis == "knowledge":
            if self.has_attributes and rng.random() < 0.6:
                return HallucinationSubtype.VERILOG_ATTRIBUTE_MISUNDERSTANDING
            return HallucinationSubtype.DESIGN_CONVENTION_MISAPPLICATION
        if axis == "logic":
            roll = rng.random()
            if self.mentions_if and roll < 0.35:
                return HallucinationSubtype.INSTRUCTIONAL_LOGIC_FAILURE
            if self.has_branches and roll < 0.65:
                return HallucinationSubtype.INCORRECT_CORNER_CASE_HANDLING
            return HallucinationSubtype.INCORRECT_LOGICAL_EXPRESSION
        return rng.choice(_GENERAL_SUBTYPES)


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
        return self.generate_indices(context, config, range(config.num_samples))

    def generate_at(
        self, context: GenerationContext, config: GenerationConfig, index: int
    ) -> GeneratedSample:
        """Generate exactly the sample at ``index`` of the deterministic stream."""
        return self.generate_indices(context, config, (index,))[0]

    def generate_indices(
        self, context: GenerationContext, config: GenerationConfig, indices: Sequence[int]
    ) -> list[GeneratedSample]:
        """Generate the samples at ``indices`` of the deterministic stream.

        Every sample is seeded independently by :func:`sample_stream_key` —
        not by ``num_samples``, by the other samples or by the other indices
        of the call — so a sharded or resumed run that draws sample ``i`` in
        isolation reproduces the serial run bit-for-bit.
        """
        plan = SamplePlan(self, context, config)
        return [plan.draw(index) for index in indices]

    # ------------------------------------------------------------------ axis model
    def axis_table(self, context: GenerationContext) -> list[tuple[str, float, float]]:
        """``(axis, skill, demand)`` of every axis ``context`` exercises, in decision order.

        The symbolic axis exists only for prompts with a symbolic modality;
        chat-style prompts add difficulty for models unused to them.
        """
        profile = self.profile
        demands = context.demands.clamped()
        rows = [("syntax", profile.syntax_skill, SYNTAX_DEMAND)]
        if demands.modality is not SymbolicModality.NONE:
            rows.append(
                (
                    "symbolic",
                    profile.effective_symbolic_skill(context.prompt_refined),
                    MODALITY_DEMAND[demands.modality],
                )
            )
        rows.append(("knowledge", profile.knowledge_skill, demands.knowledge))
        rows.append(("logic", profile.logic_skill, demands.logic))
        difficulty = demands.difficulty
        if context.prompt_style == "spec_to_rtl":
            difficulty = min(1.0, difficulty + (1.0 - profile.chat_alignment) * CHAT_STYLE_PENALTY)
        rows.append(("general", profile.general_skill, difficulty))
        return rows

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
            digest = hashlib.sha256(key.encode()).digest()
            task_rng = random.Random(int.from_bytes(digest[:8], "big"))
            aptitude = {axis: task_rng.gauss(0.0, TASK_APTITUDE_SIGMA) for axis in AXES}
            quantiles = {axis: task_rng.random() for axis in AXES}
            latents = self._latents[key] = (aptitude, quantiles)
        return latents

    def pass_probability(self, context: GenerationContext, temperature: float = 0.2) -> float:
        """Closed-form expected pass probability (no sampling noise); for analysis."""
        probability = 1.0
        for _axis, skill, demand in self.axis_table(context):
            probability *= success_probability(skill, demand)
        return probability


def make_backend(profile: CapabilityProfile, seed: int = 0) -> SimulatedCodeGenLLM:
    """Factory mirroring how a real backend would be constructed from a model id."""
    return SimulatedCodeGenLLM(profile=profile, seed=seed)
