"""Vanilla instruction-code pair generation (step 5 of the K-dataset flow).

The paper uses GPT-3.5 to attach "basic, general-purpose instructions" to the raw
GitHub code samples.  :class:`SimulatedDescriptionWriter` plays that role: it
inspects the module (ports, detected topic) and produces a deliberately generic,
engineer-misaligned description — exactly the kind of trivial phrasing Table I
contrasts with HDL-engineer practice.  Samples that do not even parse get a
best-effort description from their raw text, again mirroring how a closed-source
LLM happily describes broken code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ...verilog.analyzer import ModuleAnalyzer, Topic
from ...verilog.design import get_default_database
from ...verilog.errors import VerilogError
from .corpus import CorpusSample
from .records import InstructionCodePair, InstructionDataset, PairOrigin

_TOPIC_PHRASES: dict[Topic, str] = {
    Topic.FSM: "a state machine",
    Topic.COUNTER: "a counter",
    Topic.SHIFT_REGISTER: "a shift register",
    Topic.ALU: "an arithmetic logic unit",
    Topic.CLOCK_DIVIDER: "a clock divider",
    Topic.MULTIPLEXER: "a multiplexer",
    Topic.DECODER: "a decoder",
    Topic.ENCODER: "an encoder",
    Topic.ADDER: "an adder",
    Topic.COMPARATOR: "a comparator",
    Topic.REGISTER: "a register",
    Topic.MEMORY: "a memory block",
    Topic.COMBINATIONAL: "some combinational logic",
}

_TEMPLATES = [
    "Write a Verilog module called {name} that implements {thing}. It has {ports}.",
    "Please create a Verilog design named {name}. The module should behave like {thing} and use {ports}.",
    "Implement {thing} in Verilog. Name the module {name} and include {ports}.",
    "Generate Verilog code for a module {name}, which is {thing} with {ports}.",
]


@dataclass
class SimulatedDescriptionWriter:
    """Stand-in for the closed-source LLM that writes vanilla instructions."""

    seed: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.analyzer = ModuleAnalyzer()

    def describe(self, code: str) -> str:
        """Produce a vanilla (generic) instruction for a code sample."""
        try:
            module = get_default_database().parse_module(code)
        except VerilogError:
            return self.describe_unparsable(code)
        return self.describe_module(module, self.analyzer.analyze(module))

    def describe_module(self, module, analysis) -> str:
        """Describe an already parsed and analysed module (avoids re-parsing)."""
        thing = _TOPIC_PHRASES.get(analysis.primary_topic, "some logic")
        inputs = [port.name for port in module.ports if port.direction and port.direction.value == "input"]
        outputs = [port.name for port in module.ports if port.direction and port.direction.value == "output"]
        ports = self._render_ports(inputs, outputs)
        template = self.rng.choice(_TEMPLATES)
        return template.format(name=module.name, thing=thing, ports=ports)

    def _render_ports(self, inputs: list[str], outputs: list[str]) -> str:
        parts: list[str] = []
        if inputs:
            parts.append("inputs " + ", ".join(inputs))
        if outputs:
            parts.append("outputs " + ", ".join(outputs))
        return " and ".join(parts) if parts else "no ports"

    def describe_unparsable(self, code: str) -> str:
        """Best-effort description for code that does not parse."""
        first_line = next((line.strip() for line in code.splitlines() if line.strip()), "a module")
        return f"Write Verilog code similar to the snippet starting with '{first_line[:60]}'."


@dataclass
class VanillaDatasetGenerator:
    """Turn corpus samples into the vanilla instruction-code dataset."""

    seed: int = 0

    def generate(self, samples: list[CorpusSample]) -> InstructionDataset:
        """Generate one vanilla pair per corpus sample (no filtering yet).

        Each sample is parsed and analysed exactly once; the describer and the
        topic/attribute tagging share the result instead of re-parsing.
        """
        writer = SimulatedDescriptionWriter(seed=self.seed)
        analyzer = writer.analyzer
        dataset = InstructionDataset(name="vanilla")
        for sample in samples:
            try:
                module = get_default_database().parse_module(sample.code)
            except VerilogError:
                module = None
            if module is None:
                analysis = None
                instruction = writer.describe_unparsable(sample.code)
            else:
                analysis = analyzer.analyze(module)
                instruction = writer.describe_module(module, analysis)
            pair = InstructionCodePair(
                instruction=instruction,
                code=sample.code,
                origin=PairOrigin.VANILLA,
                metadata={"path": sample.path},
            )
            if analysis is not None:
                pair.topics = set(analysis.topics)
                pair.attributes = set(analysis.attributes)
            dataset.add(pair)
        return dataset
