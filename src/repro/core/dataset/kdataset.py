"""Knowledge-enhanced dataset (K-dataset) generation — steps 6-8 of Fig. 2.

Pipeline:

1. **Topic matching (step 6)** — each vanilla instruction-code pair is analysed
   with the parser/analyzer (the ``slang`` substitute) to identify its topics and
   Verilog attributes, which are matched against the curated exemplar library.
   Pairs without an identifiable topic still contribute to the *valid vanilla
   dataset* (they help against plain Verilog syntax misapplication).
2. **Data augmentation (step 7)** — for each matched exemplar, the vanilla
   instruction is rewritten to align with the exemplar's HDL-engineer questioning
   style, injecting the module's actual interface and the exemplar's conventions
   and attribute requirements.  A pair matched by several exemplars is rewritten
   once per exemplar.
3. **Verification (step 8)** — every resulting pair's code is compiled with the
   syntax checker; erroneous or incomplete pairs are filtered out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ...verilog.analyzer import AnalysisResult, Attribute, ModuleAnalyzer, Topic
from ...verilog.design import get_default_database
from ...verilog.errors import VerilogError
from ...verilog.syntax_checker import SyntaxChecker
from ..exemplars import Exemplar, ExemplarLibrary
from .records import InstructionCodePair, InstructionDataset, PairOrigin

_TOPIC_NOUNS: dict[Topic, str] = {
    Topic.FSM: "finite state machine",
    Topic.COUNTER: "counter",
    Topic.SHIFT_REGISTER: "shift register",
    Topic.ALU: "arithmetic logic unit (ALU)",
    Topic.CLOCK_DIVIDER: "clock divider",
    Topic.MULTIPLEXER: "multiplexer",
    Topic.DECODER: "decoder",
    Topic.ENCODER: "encoder",
    Topic.ADDER: "adder",
    Topic.COMPARATOR: "comparator",
    Topic.REGISTER: "register",
    Topic.MEMORY: "memory",
    Topic.COMBINATIONAL: "combinational logic block",
}

_ATTRIBUTE_REQUIREMENTS: dict[Attribute, str] = {
    Attribute.ASYNC_RESET: "Use an asynchronous reset",
    Attribute.SYNC_RESET: "Use a synchronous reset",
    Attribute.POSEDGE_CLOCK: "Register state on the rising (positive) clock edge",
    Attribute.NEGEDGE_CLOCK: "Register state on the falling (negative) clock edge",
    Attribute.ACTIVE_HIGH_ENABLE: "Gate updates with the active-high enable",
    Attribute.ACTIVE_LOW_ENABLE: "Gate updates with the active-low enable",
    Attribute.PARAMETERIZED: "Keep the data width parameterized",
}

_STYLE_OPENERS = [
    "Design",
    "Implement",
    "As an HDL engineer, implement",
    "Following digital design conventions, design",
]


@dataclass
class KDatasetStats:
    """Per-stage counts of the K-dataset flow (mirrors the §III-C numbers)."""

    corpus_pairs: int = 0
    parsable_pairs: int = 0
    valid_vanilla_pairs: int = 0
    topic_matched_pairs: int = 0
    augmented_pairs: int = 0
    verified_pairs: int = 0


@dataclass
class KDatasetResult:
    """Output of the K-dataset generation flow."""

    vanilla_dataset: InstructionDataset
    k_dataset: InstructionDataset
    stats: KDatasetStats = field(default_factory=KDatasetStats)


class InstructionRewriter:
    """Rewrite a vanilla instruction to align with an exemplar's style (step 7)."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def rewrite(
        self,
        pair: InstructionCodePair,
        exemplar: Exemplar,
        analysis: AnalysisResult,
        interface_description: str,
    ) -> str:
        """Produce an HDL-engineer-aligned instruction for ``pair`` guided by ``exemplar``."""
        opener = self.rng.choice(_STYLE_OPENERS)
        topic_noun = _TOPIC_NOUNS.get(exemplar.topic, "module")
        sentences = [f"{opener} a {topic_noun} named {analysis.module_name}."]
        sentences.append(interface_description)

        requirements = [
            _ATTRIBUTE_REQUIREMENTS[attribute]
            for attribute in sorted(
                analysis.attributes & set(_ATTRIBUTE_REQUIREMENTS), key=lambda a: a.value
            )
        ]
        if requirements:
            sentences.append("; ".join(requirements) + ".")

        convention = self._convention_sentence(exemplar)
        if convention:
            sentences.append(convention)
        return " ".join(sentence.strip() for sentence in sentences if sentence.strip())

    def _convention_sentence(self, exemplar: Exemplar) -> str:
        if exemplar.topic is Topic.FSM:
            return (
                "Follow the conventional FSM structure with a state register, separate "
                "next-state logic and output logic."
            )
        if exemplar.topic is Topic.ALU or exemplar.topic is Topic.MULTIPLEXER:
            return "Cover every select/opcode value and include a default arm in the case statement."
        if exemplar.topic is Topic.CLOCK_DIVIDER:
            return "Derive the divided clock by toggling an internal register when the counter wraps."
        if exemplar.topic is Topic.SHIFT_REGISTER:
            return "Use concatenation to express the shift operation."
        return "Write clean, synthesizable RTL following standard coding conventions."


class KDatasetGenerator:
    """Run the full K-dataset generation flow."""

    def __init__(
        self,
        exemplars: ExemplarLibrary | None = None,
        seed: int = 0,
        max_exemplars_per_pair: int = 2,
    ):
        self.exemplars = exemplars or ExemplarLibrary()
        self.analyzer = ModuleAnalyzer()
        self.checker = SyntaxChecker()
        self.rewriter = InstructionRewriter(seed=seed)
        self.max_exemplars_per_pair = max_exemplars_per_pair

    def generate(self, vanilla: InstructionDataset) -> KDatasetResult:
        """Produce the verified vanilla dataset and the K-dataset from vanilla pairs."""
        stats = KDatasetStats(corpus_pairs=len(vanilla))
        valid_vanilla = InstructionDataset(name="vanilla-valid")
        k_dataset = InstructionDataset(name="k-dataset")

        for pair in vanilla:
            compile_result = self.checker.check(pair.code)
            if compile_result.ok:
                stats.parsable_pairs += 1
                verified_pair = InstructionCodePair(
                    instruction=pair.instruction,
                    code=pair.code,
                    origin=PairOrigin.VANILLA,
                    topics=set(pair.topics),
                    attributes=set(pair.attributes),
                    verified=True,
                    metadata=dict(pair.metadata),
                )
                valid_vanilla.add(verified_pair)
                stats.valid_vanilla_pairs += 1
            else:
                # Step 8 filters these out of every downstream dataset.
                continue

            analysis = self._analyze(pair.code)
            if analysis is None:
                continue
            matched = self.exemplars.match(analysis.topics, analysis.attributes)
            if not matched or not analysis.has_identifiable_topic():
                continue
            stats.topic_matched_pairs += 1

            interface_description = self._interface_description(pair.code)
            for exemplar in matched[: self.max_exemplars_per_pair]:
                instruction = self.rewriter.rewrite(pair, exemplar, analysis, interface_description)
                stats.augmented_pairs += 1
                candidate = InstructionCodePair(
                    instruction=instruction,
                    code=pair.code,
                    origin=PairOrigin.KNOWLEDGE,
                    topics=set(analysis.topics),
                    attributes=set(analysis.attributes),
                    exemplar_name=exemplar.name,
                    metadata=dict(pair.metadata),
                )
                # Verification (step 8): the code was already compiled above, so the
                # pair is verified by construction; re-check defensively in case a
                # rewriter ever mutates code in future extensions.
                candidate.verified = self.checker.check(candidate.code).ok
                if candidate.verified:
                    k_dataset.add(candidate)
                    stats.verified_pairs += 1

        return KDatasetResult(vanilla_dataset=valid_vanilla, k_dataset=k_dataset, stats=stats)

    # ------------------------------------------------------------------ helpers
    def _analyze(self, code: str) -> AnalysisResult | None:
        try:
            return self.analyzer.analyze_source(code)
        except VerilogError:
            return None

    def _interface_description(self, code: str) -> str:
        try:
            module = get_default_database().parse_module(code)
        except VerilogError:
            return ""
        inputs = [port.name for port in module.ports if port.direction and port.direction.value == "input"]
        outputs = [port.name for port in module.ports if port.direction and port.direction.value == "output"]
        parts = []
        if inputs:
            parts.append("inputs " + ", ".join(inputs))
        if outputs:
            parts.append("outputs " + ", ".join(outputs))
        return ("The interface has " + " and ".join(parts) + ".") if parts else ""

