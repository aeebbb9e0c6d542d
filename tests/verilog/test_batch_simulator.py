"""Differential property tests: generated code vs the scalar ModuleSimulator.

The generated-code engine must be *bit-exact* with the scalar oracle on every
signal of every lane — combinational lanes of a :class:`BatchSimulator` and
clocked checks on the fused cycle loop of :class:`BatchTestbenchRunner`.
Random modules are generated from a seeded grammar over the supported RTL
subset (bitwise/arithmetic/relational operators, ternaries, concats, part
selects, shifts by constants, if/case procedural logic, sync/async resets)
and driven with random stimuli; any divergence is a bug in the lowering.
Checks generated code cannot take must leave it, with a recorded reason, and
score exactly as the scalar runner scores them.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.golden import VerilogGolden
from repro.verilog import codegen
from repro.verilog.design import compile_design
from repro.verilog.simulator import (
    BatchSimulator,
    BatchTestbenchRunner,
    BatchVector,
    CombinationalGolden,
    LaneFallback,
    LogicVector,
    ModuleSimulator,
    ResetSpec,
    TestbenchRunner,
)
from repro.verilog.simulator.testbench import ExpectedTrace, ReplayGolden


# --------------------------------------------------------------------------- random RTL
class _ExprGen:
    """Seeded random expression generator over declared signals."""

    def __init__(self, rng: random.Random, signals: dict[str, int]):
        self.rng = rng
        self.signals = signals

    def expr(self, depth: int) -> str:
        if depth <= 0 or self.rng.random() < 0.3:
            return self.leaf()
        choice = self.rng.random()
        if choice < 0.35:
            op = self.rng.choice(["&", "|", "^", "+", "-"])
            return f"({self.expr(depth - 1)} {op} {self.expr(depth - 1)})"
        if choice < 0.5:
            op = self.rng.choice(["==", "!=", "<", ">", "<=", ">="])
            return f"({self.expr(depth - 1)} {op} {self.expr(depth - 1)})"
        if choice < 0.6:
            return f"(~{self.expr(depth - 1)})"
        if choice < 0.7:
            op = self.rng.choice(["&", "|", "^"])
            name = self.rng.choice(list(self.signals))
            return f"({op}{name})"
        if choice < 0.8:
            return f"({self.expr(depth - 1)} ? {self.expr(depth - 1)} : {self.expr(depth - 1)})"
        if choice < 0.9:
            amount = self.rng.randint(0, 3)
            op = self.rng.choice(["<<", ">>"])
            return f"({self.expr(depth - 1)} {op} {amount})"
        return f"{{{self.expr(depth - 1)}, {self.expr(depth - 1)}}}"

    def leaf(self) -> str:
        if self.rng.random() < 0.7:
            name = self.rng.choice(list(self.signals))
            width = self.signals[name]
            if width > 1 and self.rng.random() < 0.3:
                msb = self.rng.randint(0, width - 1)
                lsb = self.rng.randint(0, msb)
                if msb == lsb:
                    return f"{name}[{msb}]"
                return f"{name}[{msb}:{lsb}]"
            return name
        width = self.rng.randint(1, 4)
        return f"{width}'d{self.rng.randrange(1 << width)}"


def _random_combinational(seed: int) -> tuple[str, dict[str, int]]:
    """A random combinational module; returns (source, input widths)."""
    rng = random.Random(seed)
    num_inputs = rng.randint(2, 4)
    widths = {f"i{n}": rng.choice([1, 2, 4, 8]) for n in range(num_inputs)}
    gen = _ExprGen(rng, widths)
    ports = [f"    input [{w - 1}:0] {n}" if w > 1 else f"    input {n}" for n, w in widths.items()]
    num_outputs = rng.randint(1, 3)
    lines = []
    for index in range(num_outputs):
        out_width = rng.choice([1, 4, 8])
        range_text = f"[{out_width - 1}:0] " if out_width > 1 else ""
        if rng.random() < 0.5:
            ports.append(f"    output {range_text}o{index}")
            lines.append(f"    assign o{index} = {gen.expr(3)};")
        else:
            ports.append(f"    output reg {range_text}o{index}")
            condition = gen.expr(2)
            subject = rng.choice(list(widths))
            arms = "\n".join(
                f"            {widths[subject]}'d{value}: o{index} = {gen.expr(2)};"
                for value in range(min(4, 1 << widths[subject]))
            )
            lines.append(
                "    always @(*) begin\n"
                f"        if ({condition})\n"
                f"            o{index} = {gen.expr(2)};\n"
                "        else begin\n"
                f"            case ({subject})\n{arms}\n"
                f"            default: o{index} = {gen.expr(2)};\n"
                "            endcase\n"
                "        end\n"
                "    end"
            )
    source = (
        "module randmod (\n" + ",\n".join(ports) + "\n);\n" + "\n".join(lines) + "\nendmodule\n"
    )
    return source, widths


def _random_clocked(seed: int) -> tuple[str, dict[str, int]]:
    """A random clocked module (registers + comb logic); returns (source, data widths)."""
    rng = random.Random(seed)
    widths = {"d0": rng.choice([1, 4, 8]), "d1": rng.choice([1, 2, 4])}
    gen = _ExprGen(rng, {**widths, "state": 4})
    async_reset = rng.random() < 0.5
    sensitivity = "posedge clk or posedge rst" if async_reset else "posedge clk"
    ports = ["    input clk", "    input rst"]
    ports += [
        f"    input [{w - 1}:0] {n}" if w > 1 else f"    input {n}" for n, w in widths.items()
    ]
    ports.append("    output reg [3:0] state")
    ports.append("    output [3:0] view")
    body = (
        f"    always @({sensitivity}) begin\n"
        "        if (rst)\n"
        "            state <= 4'd0;\n"
        "        else begin\n"
        f"            state <= {gen.expr(2)};\n"
        "        end\n"
        "    end\n"
        f"    assign view = {gen.expr(2)};\n"
    )
    source = "module randseq (\n" + ",\n".join(ports) + "\n);\n" + body + "endmodule\n"
    return source, widths


def _random_vectors(rng: random.Random, widths: dict[str, int], count: int) -> list[dict[str, int]]:
    return [
        {name: rng.randrange(1 << width) for name, width in widths.items()} for _ in range(count)
    ]


@pytest.fixture(autouse=True)
def _clean_fallback_registry():
    codegen.reset_fallback_stats()
    yield
    codegen.reset_fallback_stats()


def _outcome(result):
    return result.passed, result.total_checks, result.failure_summary


def _lane_outputs(source: str, vectors: list[dict]) -> list[dict[str, LogicVector]]:
    """Each vector's outputs on a fresh scalar simulator.

    Every lane of one batch pass must equal them, unless generated code
    cannot take the design or the vectors.
    """
    try:
        batch = BatchSimulator.from_source(source, lanes=len(vectors))
        batch.apply_inputs({name: [vector[name] for vector in vectors] for name in vectors[0]})
    except LaneFallback:
        batch = None
    outputs = []
    for lane, vector in enumerate(vectors):
        scalar = ModuleSimulator.from_source(source)
        scalar.apply_inputs(dict(vector))
        expected = {name: scalar.get(name) for name in scalar.output_names()}
        if batch is not None:
            assert {name: batch.get_lane(name, lane) for name in expected} == expected, vector
        outputs.append(expected)
    return outputs


# --------------------------------------------------------------------------- combinational
class TestCombinationalDifferential:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_module_matches_scalar_oracle(self, seed):
        source, widths = _random_combinational(seed)
        rng = random.Random(seed + 1000)
        vectors = _random_vectors(rng, widths, 24)
        outputs = _lane_outputs(source, vectors)
        assert len(outputs) == len(vectors)
        # Every module of the grammar lowers: this compared generated code.
        assert codegen.fallback_stats()["total"] == 0

    def test_all_internal_signals_match_not_only_outputs(self):
        source, widths = _random_combinational(5)
        rng = random.Random(99)
        vectors = _random_vectors(rng, widths, 16)
        batch = BatchSimulator.from_source(source, lanes=len(vectors))
        batch.apply_inputs({name: [v[name] for v in vectors] for name in widths})
        for lane, vector in enumerate(vectors):
            scalar = ModuleSimulator.from_source(source)
            scalar.apply_inputs(dict(vector))
            for name in scalar.signals:
                assert batch.get_lane(name, lane) == scalar.get(name), (name, lane)

    def test_x_input_leaves_generated_code(self):
        source = (
            "module m(input [3:0] a, input [3:0] b, output [4:0] s, output e);\n"
            "    assign s = a + b;\n"
            "    assign e = a == b;\n"
            "endmodule\n"
        )
        # Lane 1 drives b with x bits: the x/z gate refuses generated code,
        # and the scalar lanes must agree with the scalar oracle bit for bit.
        a_values = [LogicVector.from_int(3, 4), LogicVector.from_int(9, 4)]
        b_values = [LogicVector.from_int(5, 4), LogicVector.from_string("1x00")]
        batch = BatchSimulator.from_source(source, lanes=2)
        with pytest.raises(LaneFallback) as excinfo:
            batch.apply_inputs({"a": a_values, "b": b_values})
        assert excinfo.value.reason == codegen.XZ_STATE
        assert codegen.fallback_stats()["reasons"] == {codegen.XZ_STATE: 1}

    def test_data_dependent_shift_matches(self):
        source = (
            "module m(input en, input [2:0] sel, output reg [7:0] out);\n"
            "    always @(*) begin\n"
            "        if (en) out = 8'd1 << sel; else out = 8'd0;\n"
            "    end\n"
            "endmodule\n"
        )
        vectors = [{"en": e, "sel": s} for e in (0, 1) for s in range(8)]
        golden = CombinationalGolden(lambda v: {"out": (1 << v["sel"]) if v["en"] else 0})
        result = BatchTestbenchRunner(differential=True).run(source, golden, vectors)
        assert result.passed and result.total_checks == len(vectors)
        assert codegen.fallback_stats()["reasons"] == {"non-constant-shift": 1}

    def test_inconsistent_stimulus_keys_run_on_the_scalar_simulator(self):
        source = "module m(input a, input b, output y); assign y = a ^ b; endmodule"
        # The second vector keeps ``b`` from the first, as serially applied
        # inputs do; independent lanes could not.
        stimulus = [{"a": 1, "b": 1}, {"a": 0}]
        golden = ReplayGolden(ExpectedTrace(False, ({"y": 0}, {"y": 1})))
        result = BatchTestbenchRunner(differential=True).run(source, golden, stimulus)
        assert result.passed and result.total_checks == 2
        assert codegen.fallback_stats()["total"] == 0


class TestIndexWrapRegressions:
    """Bit-select positions must not alias modulo 2^index.width (review finding)."""

    def test_read_of_bit_beyond_index_range_does_not_alias(self):
        # v[8] is unreachable through a 3-bit sel; sel=0 must read bit 0 only.
        source = (
            "module m(input [8:0] v, input [2:0] sel, output o);\n"
            "    assign o = v[sel];\n"
            "endmodule\n"
        )
        vectors = [{"v": 0b100000000, "sel": 0}, {"v": 0b100000001, "sel": 0}]
        outputs = _lane_outputs(source, vectors)
        assert outputs[0]["o"].to_int() == 0
        assert outputs[1]["o"].to_int() == 1

    def test_write_of_bit_beyond_index_range_does_not_alias(self):
        source = (
            "module m(input [2:0] sel, output reg [8:0] out);\n"
            "    always @(*) begin\n"
            "        out = 9'd0;\n"
            "        out[sel] = 1'b1;\n"
            "    end\n"
            "endmodule\n"
        )
        vectors = [{"sel": 0}, {"sel": 1}, {"sel": 7}]
        outputs = _lane_outputs(source, vectors)
        assert [o["out"].to_int() for o in outputs] == [1, 2, 128]


class TestTernaryWidth:
    """``?:`` is as wide as its wider branch, taken or not (IEEE 1364)."""

    EXPRESSION = "(c ? a : 7'h11) << 1"

    def test_known_condition_widens_the_taken_branch_on_every_engine(self):
        source = (
            "module m(input c, input [1:0] a, output [7:0] y);\n"
            f"    assign y = {self.EXPRESSION};\n"
            "endmodule\n"
        )
        scalar = ModuleSimulator.from_source(source)
        scalar.apply_inputs({"c": 1, "a": 3})
        assert scalar.get("y").to_int() == 6
        batch = BatchSimulator.from_source(source, lanes=1)
        batch.apply_inputs({"c": [1], "a": [3]})
        assert batch.get_lane("y", 0).to_int() == 6
        clocked = (
            "module r(input clk, input rst, input c, input [1:0] a, output reg [7:0] y);\n"
            f"    always @(posedge clk) if (rst) y <= 8'd0; else y <= {self.EXPRESSION};\n"
            "endmodule\n"
        )
        compiled = compile_design(clocked)
        simulator = ModuleSimulator(compiled)
        simulator.apply_inputs({"clk": 0, "rst": 1, "c": 0, "a": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        run = codegen.SequenceRun(compiled.codegen.sequence, simulator.signals, "clk", "r")
        run.cycle({"c": 1, "a": 3})
        assert run.read("y").to_int() == 6
        simulator.clock_cycle("clk", {"c": 1, "a": 3})
        assert simulator.get("y").to_int() == 6

    def test_the_branch_not_taken_does_not_raise(self):
        # A zero replication raises when evaluated; the constant condition
        # never takes that branch, so it only lends its width.
        source = (
            "module m(input [1:0] a, output [7:0] y);\n"
            "    assign y = 1'b1 ? a : {0{a}};\n"
            "endmodule\n"
        )
        scalar = ModuleSimulator.from_source(source)
        scalar.apply_inputs({"a": 3})
        assert scalar.get("y").to_int() == 3


class TestLatchFallback:
    """Inferred latches hold history across vectors: they must stay scalar."""

    LATCH = (
        "module m(input en, input [3:0] d, output reg [3:0] q);\n"
        "    always @(*) begin\n"
        "        if (en) q = d;\n"
        "    end\n"
        "endmodule\n"
    )

    def test_latch_risk_detected(self):
        assert compile_design(self.LATCH).has_latch_risk
        with pytest.raises(LaneFallback, match="latch"):
            BatchSimulator.from_source(self.LATCH, lanes=2)
        complete = (
            "module m(input en, input [3:0] d, output reg [3:0] q);\n"
            "    always @(*) begin\n"
            "        if (en) q = d; else q = 4'd0;\n"
            "    end\n"
            "endmodule\n"
        )
        assert not compile_design(complete).has_latch_risk
        case_with_default = (
            "module m(input [1:0] op, output reg [1:0] y);\n"
            "    always @(*) begin\n"
            "        case (op)\n"
            "            2'd0: y = 2'd1;\n"
            "            default: y = 2'd0;\n"
            "        endcase\n"
            "    end\n"
            "endmodule\n"
        )
        assert not compile_design(case_with_default).has_latch_risk
        case_without_default = case_with_default.replace(
            "            default: y = 2'd0;\n", ""
        )
        assert compile_design(case_without_default).has_latch_risk

    def test_latchy_dut_scored_identically_to_scalar_runner(self):
        # The golden mirrors the latch's history semantics, so the scalar
        # serial run passes; the batched runner must reach the same verdict.
        state = {"q": 0}

        def golden_fn(inputs):
            if inputs["en"]:
                state["q"] = inputs["d"]
            return {"q": state["q"]}

        stimulus = [{"en": 1, "d": 5}, {"en": 0, "d": 7}, {"en": 1, "d": 2}]
        scalar = TestbenchRunner().run(self.LATCH, CombinationalGolden(golden_fn), stimulus)
        state["q"] = 0
        batched = BatchTestbenchRunner(differential=True).run(
            self.LATCH, CombinationalGolden(golden_fn), stimulus
        )
        assert scalar.passed and batched.passed


# --------------------------------------------------------------------------- leaving generated code
class TestChecksLeavingGeneratedCode:
    """A check generated code cannot take scores exactly as the scalar runner scores it."""

    def _pin(self, source, golden, stimulus, reason):
        scalar = TestbenchRunner().run(source, golden, stimulus)
        codegen.reset_fallback_stats()
        batched = BatchTestbenchRunner().run(source, golden, stimulus)
        assert _outcome(batched) == _outcome(scalar)
        assert [str(m) for m in batched.mismatches] == [str(m) for m in scalar.mismatches]
        stats = codegen.fallback_stats()
        assert stats["reasons"] == {reason: 1}
        return batched

    def test_non_constant_shift(self):
        source = (
            "module m(input [3:0] a, input [1:0] n, output [3:0] y);\n"
            "    assign y = a << n;\n"
            "endmodule\n"
        )
        # The golden rotates instead of shifting: some vectors mismatch.
        golden = CombinationalGolden(
            lambda ins: {"y": ((ins["a"] << ins["n"]) | (ins["a"] >> (4 - ins["n"]))) & 15}
        )
        stimulus = [{"a": a, "n": n} for a in (1, 9, 12) for n in range(4)]
        result = self._pin(source, golden, stimulus, "non-constant-shift")
        assert not result.passed and result.total_checks == len(stimulus)

    def test_undriven_input_port(self):
        source = "module m(input a, input b, output y); assign y = a & b; endmodule"
        golden = CombinationalGolden(lambda ins: {"y": 0})
        # b is never driven, so it stays x: lane a=1 reads back x.
        result = self._pin(source, golden, [{"a": 0}, {"a": 1}], codegen.XZ_STATE)
        assert "got 1'bx" in result.failure_summary

    def test_initial_block(self):
        source = (
            "module m(input [3:0] a, output [3:0] y);\n"
            "    reg [3:0] k;\n"
            "    initial k = 4'd5;\n"
            "    assign y = a + k;\n"
            "endmodule\n"
        )
        golden = CombinationalGolden(lambda ins: {"y": (ins["a"] + 5) & 15})
        result = self._pin(source, golden, [{"a": a} for a in range(16)], "initial")
        assert result.passed

    def test_clocked_design_is_not_a_lane_design(self):
        source = (
            "module m(input clk, input d, output reg q);\n"
            "    always @(posedge clk) q <= d;\n"
            "endmodule\n"
        )
        with pytest.raises(LaneFallback, match="sequential"):
            BatchSimulator.from_source(source, lanes=2)
        assert codegen.fallback_stats()["reasons"] == {"sequential": 1}


# --------------------------------------------------------------------------- clocked
class TestClockedDifferential:
    """Clocked checks: reset on the scalar engine, cycles on the fused loop."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_clocked_module_matches_scalar_oracle(self, seed):
        source, widths = _random_clocked(seed)
        assert compile_design(source).codegen.sequence is not None
        rng = random.Random(seed + 500)
        cycles = 10
        for _ in range(6):
            stimulus = [
                {
                    "rst": 1 if cycle == 0 else (1 if rng.random() < 0.1 else 0),
                    **{name: rng.randrange(1 << width) for name, width in widths.items()},
                }
                for cycle in range(cycles)
            ]
            # The golden simulates the same source on the scalar engine, so
            # every output of every cycle is compared with the oracle.
            options = {"reset": ResetSpec(signal="rst"), "max_mismatches": 1000}
            scalar = TestbenchRunner(**options).run(source, VerilogGolden(source), stimulus)
            fused = BatchTestbenchRunner(differential=True, **options).run(
                source, VerilogGolden(source), stimulus
            )
            assert fused.passed, fused.failure_summary
            assert _outcome(fused) == _outcome(scalar)

    def test_initial_block_counter_matches_oracle(self):
        source = (
            "module m(input clk, output reg [3:0] q);\n"
            "    initial q = 4'd0;\n"
            "    always @(posedge clk) q <= q + 4'd1;\n"
            "endmodule\n"
        )

        class Golden:
            is_sequential = True

            def reset(self):
                self.q = 0

            def step(self, inputs):
                self.q = (self.q + 1) % 16
                return {"q": self.q}

        stimulus = [{}] * 20
        scalar = TestbenchRunner().run(source, Golden(), stimulus)
        fused = BatchTestbenchRunner(differential=True).run(source, Golden(), stimulus)
        assert scalar.passed and _outcome(fused) == _outcome(scalar)

    def test_async_reset_matches_oracle_mid_sequence(self):
        source = (
            "module m(input clk, input rst, input en, output reg [3:0] count);\n"
            "    always @(posedge clk or posedge rst) begin\n"
            "        if (rst) count <= 4'd0;\n"
            "        else if (en) count <= count + 1'b1;\n"
            "    end\n"
            "endmodule\n"
        )

        class Golden:
            is_sequential = True

            def reset(self):
                self.count = 0

            def step(self, inputs):
                if inputs["rst"]:
                    self.count = 0
                elif inputs["en"]:
                    self.count = (self.count + 1) % 16
                return {"count": self.count}

        rng = random.Random(7)
        for _ in range(4):
            stimulus = [
                {"rst": 1 if rng.random() < 0.2 else 0, "en": rng.randint(0, 1)}
                for _ in range(12)
            ]
            options = {"reset": ResetSpec(signal="rst")}
            scalar = TestbenchRunner(**options).run(source, Golden(), stimulus)
            fused = BatchTestbenchRunner(differential=True, **options).run(
                source, Golden(), stimulus
            )
            assert scalar.passed and _outcome(fused) == _outcome(scalar)


# --------------------------------------------------------------------------- BatchVector
class TestBatchVector:
    def test_pack_unpack_roundtrip(self):
        rng = random.Random(3)
        vectors = [
            LogicVector(width=6, value=rng.randrange(64), xz_mask=rng.randrange(64))
            for _ in range(17)
        ]
        packed = BatchVector.from_vectors(vectors)
        assert packed.to_vectors() == vectors

    def test_broadcast_is_uniform(self):
        value = LogicVector.from_string("1x0z")
        packed = BatchVector.broadcast(value, 9)
        assert all(packed.lane(index) == value for index in range(9))

    def test_from_ints_packs_one_value_per_lane(self):
        packed = BatchVector.from_ints([1, 2, 3, 20], 4)
        assert [packed.lane(index).to_int() for index in range(4)] == [1, 2, 3, 4]

    def test_resize_matches_scalar(self):
        vectors = [LogicVector.from_int(v, 3) for v in (1, 5, 7)]
        packed = BatchVector.from_vectors(vectors)
        widened = packed.resized(5)
        assert [widened.lane(index) for index in range(3)] == [v.resized(5) for v in vectors]
        narrowed = packed.resized(2)
        assert [narrowed.lane(index) for index in range(3)] == [v.resized(2) for v in vectors]
