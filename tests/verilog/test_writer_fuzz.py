"""Fuzz round-trip: writer output must re-parse to an equivalent AST.

Random modules are generated from a seeded grammar over the supported subset
(declarations with initialisers, parameters, continuous assigns, combinational
and clocked always blocks, if/case/for statements, the full expression
grammar).  For every module: ``parse(source)`` → ``write`` → ``parse`` must
yield a structurally identical AST (dataclass equality), and the emission must
be a fixed point (``write(parse(write(m))) == write(m)``).

The same generator doubles as the execution-fuzz corpus: every module is also
driven through a differential — generated code vs the scalar
``ModuleSimulator`` oracle.  Combinational modules run as lanes of one
``BatchSimulator`` compared on every output signal of every lane after every
input application (x/z bits included); clocked modules run testbench checks
whose cycles ride the fused generated loop
(:class:`~repro.verilog.codegen.SequenceRun`), handed over from the scalar
engine after reset and compared with it on every output and every state
signal after every cycle; rejected modules must leave generated code with
their rejection reason.
"""

from __future__ import annotations

import random

import pytest

from repro.verilog.codegen import SequenceRun
from repro.verilog.design import DesignDatabase
from repro.verilog.parser import parse_module
from repro.bench.golden import VerilogGolden
from repro.verilog.simulator import (
    BatchSimulator,
    BatchTestbenchRunner,
    LaneFallback,
    ModuleSimulator,
    ResetSpec,
    TestbenchRunner,
)
from repro.verilog.simulator.values import LogicVector
from repro.verilog.writer import write_module


class _SourceGen:
    """Seeded random Verilog source generator (valid by construction)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.signals: dict[str, int] = {}

    # ------------------------------------------------------------------ expressions
    def expr(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return self.leaf()
        choice = rng.random()
        if choice < 0.3:
            op = rng.choice(["&", "|", "^", "+", "-", "&&", "||"])
            return f"({self.expr(depth - 1)} {op} {self.expr(depth - 1)})"
        if choice < 0.45:
            op = rng.choice(["==", "!=", "<", ">", "<=", ">=", "===", "!=="])
            return f"({self.expr(depth - 1)} {op} {self.expr(depth - 1)})"
        if choice < 0.55:
            op = rng.choice(["~", "!", "&", "|", "^", "~&", "~|"])
            return f"({op}{self.leaf()})"
        if choice < 0.65:
            return f"({self.expr(depth - 1)} ? {self.expr(depth - 1)} : {self.expr(depth - 1)})"
        if choice < 0.75:
            return f"{{{self.expr(depth - 1)}, {self.expr(depth - 1)}}}"
        if choice < 0.8:
            count = rng.randint(2, 4)
            return f"{{{count}{{{self.leaf()}}}}}"
        if choice < 0.9:
            op = rng.choice(["<<", ">>", "<<<", ">>>"])
            return f"({self.expr(depth - 1)} {op} {self.rng.randint(0, 3)})"
        return self.leaf()

    def leaf(self) -> str:
        rng = self.rng
        if self.signals and rng.random() < 0.65:
            name = rng.choice(list(self.signals))
            width = self.signals[name]
            roll = rng.random()
            if width > 1 and roll < 0.2:
                index = rng.randint(0, width - 1)
                return f"{name}[{index}]"
            if width > 1 and roll < 0.35:
                msb = rng.randint(0, width - 1)
                lsb = rng.randint(0, msb)
                return f"{name}[{msb}:{lsb}]"
            if width > 2 and roll < 0.4:
                base = rng.randint(0, width - 2)
                return f"{name}[{base} +: 2]"
            return name
        width = rng.randint(1, 8)
        value = rng.randrange(1 << width)
        base = rng.choice(["d", "b", "h", ""])
        if not base:
            return str(value)
        digits = {"d": str(value), "b": format(value, "b"), "h": format(value, "x")}[base]
        return f"{width}'{base}{digits}"

    # ------------------------------------------------------------------ statements
    def statement(self, target: str, depth: int, nonblocking: bool) -> str:
        rng = self.rng
        assign = "<=" if nonblocking else "="
        if depth <= 0 or rng.random() < 0.4:
            return f"{target} {assign} {self.expr(2)};"
        choice = rng.random()
        if choice < 0.4:
            return (
                f"if ({self.expr(2)})\n"
                f"    {self.statement(target, depth - 1, nonblocking)}\n"
                "else\n"
                f"    {self.statement(target, depth - 1, nonblocking)}"
            )
        if choice < 0.7:
            kind = rng.choice(["case", "casez", "casex"])
            subject = rng.choice(list(self.signals))
            arms = "\n".join(
                f"    {self.signals[subject]}'d{value}: {self.statement(target, 0, nonblocking)}"
                for value in range(min(3, 1 << self.signals[subject]))
            )
            return (
                f"{kind} ({subject})\n{arms}\n"
                f"    default: {self.statement(target, 0, nonblocking)}\n"
                "endcase"
            )
        return (
            "begin\n"
            f"    {self.statement(target, depth - 1, nonblocking)}\n"
            f"    {self.statement(target, depth - 1, nonblocking)}\n"
            "end"
        )

    # ------------------------------------------------------------------ modules
    def module(self) -> str:
        rng = self.rng
        self.signals = {}
        ports = ["input clk", "input rst"]
        self.signals["rst"] = 1
        for index in range(rng.randint(1, 3)):
            width = rng.choice([1, 2, 4, 8])
            name = f"in{index}"
            self.signals[name] = width
            ports.append(f"input [{width - 1}:0] {name}" if width > 1 else f"input {name}")
        items: list[str] = []
        if rng.random() < 0.5:
            items.append(f"localparam LIMIT = {rng.randint(1, 15)};")
        for index in range(rng.randint(0, 2)):
            width = rng.choice([2, 4, 8])
            name = f"w{index}"
            init = f" = {width}'d{rng.randrange(1 << width)}" if rng.random() < 0.3 else ""
            items.append(f"reg [{width - 1}:0] {name}{init};")
            self.signals[name] = width
        outputs: list[str] = []
        for index in range(rng.randint(1, 2)):
            width = rng.choice([1, 4, 8])
            name = f"out{index}"
            range_text = f"[{width - 1}:0] " if width > 1 else ""
            if rng.random() < 0.5:
                ports.append(f"output {range_text}{name}")
                items.append(f"assign {name} = {self.expr(3)};")
            else:
                ports.append(f"output reg {range_text}{name}")
                if rng.random() < 0.5:
                    items.append(
                        "always @(*)\n    " + self.statement(name, 2, nonblocking=False)
                    )
                else:
                    sensitivity = rng.choice(["posedge clk", "posedge clk or posedge rst"])
                    items.append(
                        f"always @({sensitivity})\n    "
                        + self.statement(name, 2, nonblocking=True)
                    )
            outputs.append(name)
            self.signals[name] = width
        header = "module fuzzmod (\n    " + ",\n    ".join(ports) + "\n);\n"
        return header + "\n".join("    " + item.replace("\n", "\n    ") for item in items) + "\nendmodule\n"


@pytest.mark.parametrize("seed", range(40))
def test_write_then_parse_is_equivalent(seed):
    source = _SourceGen(seed).module()
    first = parse_module(source)
    emitted = write_module(first)
    second = parse_module(emitted)
    assert second == first, f"round-trip changed the AST for seed {seed}:\n{emitted}"


@pytest.mark.parametrize("seed", range(40))
def test_emission_is_a_fixed_point(seed):
    source = _SourceGen(seed).module()
    first_text = write_module(parse_module(source))
    second_text = write_module(parse_module(first_text))
    assert second_text == first_text


_FUZZ_LANES = 8
_FUZZ_STEPS = 4


def _snapshot(batch: BatchSimulator, scalars, outputs: list[str]) -> None:
    """Assert one engine's outputs equal the scalar oracle on every lane."""
    for name in outputs:
        vector = batch.get(name)
        for lane, scalar in enumerate(scalars):
            assert (
                vector.lane(lane).to_verilog_literal()
                == scalar.get(name).to_verilog_literal()
            ), f"output {name} lane {lane}"


@pytest.mark.parametrize("seed", range(20))
def test_codegen_differential_execution(seed):
    """Generated code == scalar simulator, every output, every lane or cycle.

    A module the lowering rejects (e.g. uninitialised regs surfacing as undef
    sources) must refuse lanes with its rejection reason; its checks then
    run on the scalar engine, which is the fallback contract.
    """
    source = _SourceGen(seed).module()
    compiled = DesignDatabase().compile(source)
    widths = compiled.input_widths()
    data_inputs = sorted(set(widths) - {"clk", "rst"})
    outputs = [port.name for port in compiled.template.output_ports()]
    rng = random.Random(seed * 7919 + 1)
    steps = [
        {
            name: [rng.randrange(1 << widths[name]) for _ in range(_FUZZ_LANES)]
            for name in data_inputs
        }
        for _ in range(_FUZZ_STEPS)
    ]

    if not compiled.codegen.supported:
        with pytest.raises(LaneFallback) as excinfo:
            BatchSimulator(compiled, lanes=_FUZZ_LANES)
        assert excinfo.value.reason == compiled.codegen.reject_reason
        return

    if compiled.has_sequential_processes:
        # One clocked check per lane's sequence: the fused loop against the
        # scalar runner, mismatch for mismatch (differential=True also
        # re-checks it internally).
        options = {"reset": ResetSpec(signal="rst"), "max_mismatches": 1000}
        for lane in range(_FUZZ_LANES):
            stimulus = [
                {"rst": int(index == 0), **{name: values[lane] for name, values in step.items()}}
                for index, step in enumerate(steps)
            ]
            fast = BatchTestbenchRunner(differential=True, **options).run(
                source, VerilogGolden(source), stimulus
            )
            slow = TestbenchRunner(**options).run(source, VerilogGolden(source), stimulus)
            assert [str(m) for m in fast.mismatches] == [str(m) for m in slow.mismatches]
            assert fast.total_checks == slow.total_checks
        return

    fast = BatchSimulator(compiled, lanes=_FUZZ_LANES)
    scalars = [ModuleSimulator(compiled) for _ in range(_FUZZ_LANES)]
    for index, step in enumerate(steps):
        applied = {**step, "rst": [int(index == 0)] * _FUZZ_LANES, "clk": [0] * _FUZZ_LANES}
        fast.apply_inputs({name: list(values) for name, values in applied.items()})
        for lane, scalar in enumerate(scalars):
            scalar.apply_inputs({name: values[lane] for name, values in applied.items()})
        _snapshot(fast, scalars, outputs)


_FUSED_CYCLES = 12


def _clocked_module(seed: int):
    """The first module of a seed-derived stream that has a fused program."""
    for attempt in range(50):
        source = _SourceGen(seed * 1000 + attempt).module()
        compiled = DesignDatabase().compile(source)
        if compiled.codegen.sequence is not None:
            return compiled
    raise AssertionError(f"no clocked module with a fused program for seed {seed}")


@pytest.mark.parametrize("seed", range(20))
def test_fused_sequence_matches_scalar(seed):
    """Fused generated loop == scalar simulator over a multi-cycle sequence.

    Reset runs on the scalar engine; each later cycle hands over as soon as
    the program's gate admits it, and from then on every output and every
    state signal must equal the scalar oracle after every cycle.  Vectors
    drive random subsets of the inputs (the rest keep their values) and
    sometimes re-assert the (asynchronous, for some modules) reset.
    """
    compiled = _clocked_module(seed)
    program = compiled.codegen.sequence
    widths = compiled.input_widths()
    data_inputs = sorted(set(widths) - {"clk"})
    outputs = [port.name for port in compiled.template.output_ports()]
    rng = random.Random(seed * 31 + 7)

    oracle = ModuleSimulator(compiled)
    oracle.apply_inputs({"rst": 1, "clk": 0})
    oracle.clock_cycle()
    oracle.apply_inputs({"rst": 0})

    run = None
    for _ in range(_FUSED_CYCLES):
        data = {
            name: rng.randrange(1 << widths[name])
            for name in data_inputs
            if rng.random() < 0.7
        }
        if "rst" in data:
            data["rst"] = int(rng.random() < 0.2)
        if run is None and program.ready(oracle.signals, data, set(widths)):
            # The store dict is copied: values are immutable, and the
            # oracle keeps running in lockstep.
            run = SequenceRun(program, dict(oracle.signals), "clk", compiled.name)
        if data:
            oracle.apply_inputs(data)
        oracle.clock_cycle()
        if run is None:
            continue
        run.cycle(data)
        for name in outputs:
            assert run.read(name).to_verilog_literal() == oracle.get(name).to_verilog_literal(), name
        for name, value in run.dump().items():
            assert oracle.get(name).to_verilog_literal() == (
                LogicVector.from_int(value, oracle.get(name).width).to_verilog_literal()
            ), name
    assert run is not None, "the gate never admitted a handover"


def test_roundtrip_preserves_number_literal_text():
    source = "module m(output [7:0] y); assign y = 8'hA5 + 8'b0001_0010; endmodule"
    emitted = write_module(parse_module(source))
    assert "8'hA5" in emitted
    assert parse_module(emitted) == parse_module(source)
