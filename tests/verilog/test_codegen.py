"""Codegen back end: lowering, equivalence, fallback recording.

The generated straight-line functions must be *observationally identical* to
the scalar simulator on every supported design — these tests pin the
contract at three levels: artifact generation (what is accepted, what is
rejected and why), runtime equivalence (codegen vs scalar oracle, lane by
lane), and the integration seams (fallback registry, deadline ticks,
disk-cached artifacts).
"""

from __future__ import annotations

import re
import sys

import pytest

from repro.deadline import CheckTimeout, deadline_scope
from repro.verilog import codegen, wordgen
from repro.verilog.design import DesignDatabase
from repro.verilog.simulator import (
    BatchSimulator,
    BatchTestbenchRunner,
    CombinationalGolden,
    LaneFallback,
    ModuleSimulator,
    ResetSpec,
    TestbenchRunner,
)

ALU = """
module alu(
    input [3:0] a,
    input [3:0] b,
    input [1:0] op,
    output reg [3:0] y,
    output reg carry
);
    reg [4:0] t;
    always @(*) begin
        t = 5'b0;
        case (op)
            2'b00: t = a + b;
            2'b01: t = a - b;
            2'b10: t = {1'b0, a & b};
            default: t = {1'b0, a | b};
        endcase
        y = t[3:0];
        carry = t[4];
    end
endmodule
"""

ACCUM = """
module accum(
    input clk,
    input rst,
    input [3:0] d,
    output reg [4:0] sum
);
    always @(posedge clk) begin
        if (rst)
            sum <= 5'b0;
        else
            sum <= sum + d;
    end
endmodule
"""


@pytest.fixture(autouse=True)
def _clean_fallback_registry():
    codegen.reset_fallback_stats()
    yield
    codegen.reset_fallback_stats()


def _columns(simulator: BatchSimulator, names: list[str]) -> dict[str, list[str]]:
    """Every output on every lane, as Verilog literals (x/z kept visible)."""
    out: dict[str, list[str]] = {}
    for name in names:
        vector = simulator.get(name)
        out[name] = [vector.lane(lane).to_verilog_literal() for lane in range(simulator.lanes)]
    return out


def _scalar_columns(source: str, lane_inputs: list[dict], names: list[str]) -> dict[str, list[str]]:
    """The same view from one fresh scalar simulator per lane (the oracle)."""
    out: dict[str, list[str]] = {name: [] for name in names}
    for inputs in lane_inputs:
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs(dict(inputs))
        for name in names:
            out[name].append(simulator.get(name).to_verilog_literal())
    return out


class _AccumGolden:
    """Python model of ACCUM: synchronous reset, accumulate ``d`` per cycle."""

    is_sequential = True

    def reset(self):
        self.sum = 0

    def step(self, inputs):
        self.sum = 0 if inputs["rst"] else (self.sum + inputs["d"]) % 32
        return {"sum": self.sum}


class TestGeneration:
    def test_supported_design_produces_sources(self):
        compiled = DesignDatabase().compile(ALU)
        artifact = compiled.codegen
        assert artifact is not None and artifact.supported
        assert "def codegen_settle" in artifact.settle_source
        assert set(artifact.settle_gate) == {"a", "b", "op"}
        assert {name for name, _ in artifact.settle_writes} == {"t", "y", "carry"}

    @pytest.mark.parametrize(
        "source, reason",
        [
            (
                "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
                " assign y = a / b; endmodule",
                "mul-div-mod",
            ),
            (
                "module s(input [3:0] a, input [1:0] n, output [3:0] y);"
                " assign y = a << n; endmodule",
                "non-constant-shift",
            ),
            (
                "module l(input sel, input d, output reg q);"
                " always @(*) begin if (sel) q = d; end endmodule",
                "latch",
            ),
            (
                "module u(input a, output y); wire dangling;"
                " assign y = a; endmodule",
                "undef-source",
            ),
            (
                "module t(input a, output reg y);"
                ' always @(*) begin y = a; $display("y"); end endmodule',
                "system-task",
            ),
            (
                "module c(input a, output wire p, output wire q);"
                " assign p = a ^ q; assign q = p; endmodule",
                "comb-cycle",
            ),
        ],
    )
    def test_reject_reasons(self, source, reason):
        compiled = DesignDatabase().compile(source)
        assert compiled.codegen is not None
        assert compiled.codegen.reject_reason == reason

    def test_clocked_design_gets_a_fused_run(self):
        program = DesignDatabase().compile(ACCUM).codegen.sequence
        assert program is not None
        assert "def codegen_run" in program.source
        assert [name for name, _ in program.inputs] == ["clk", "d", "rst"]
        assert program.outputs == (("sum", 5),)
        assert program.edge_inputs == ("clk",)
        assert [name for name, _ in program.state] == ["d", "rst", "sum"]
        assert DesignDatabase().compile(ALU).codegen.sequence is None

    def test_process_driven_input_gets_no_fused_run(self):
        source = (
            "module p(input clk, input a, output reg q);"
            " always @(posedge clk) begin q <= a; end"
            " assign a = q; endmodule"
        )
        artifact = DesignDatabase().compile(source).codegen
        assert artifact.supported
        assert artifact.sequence is None

    def test_rejected_design_raises_lane_fallback(self):
        source = (
            "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
            " assign y = a / b; endmodule"
        )
        with pytest.raises(LaneFallback, match="mul-div-mod") as excinfo:
            BatchSimulator.from_source(source, lanes=4)
        assert excinfo.value.reason == "mul-div-mod"

    def test_zero_lanes_rejected(self):
        from repro.verilog.errors import SimulationError

        with pytest.raises(SimulationError, match="at least one stimulus lane"):
            BatchSimulator.from_source(ALU, lanes=0)


class TestEquivalence:
    def test_combinational_matches_scalar_oracle(self):
        lanes = 64
        rng_inputs = {
            "a": [(7 * lane + 3) % 16 for lane in range(lanes)],
            "b": [(11 * lane + 5) % 16 for lane in range(lanes)],
            "op": [lane % 4 for lane in range(lanes)],
        }
        fast = BatchSimulator.from_source(ALU, lanes=lanes)
        fast.apply_inputs(rng_inputs)
        lane_inputs = [
            {name: values[lane] for name, values in rng_inputs.items()} for lane in range(lanes)
        ]
        assert _columns(fast, ["y", "carry"]) == _scalar_columns(ALU, lane_inputs, ["y", "carry"])
        assert codegen.fallback_stats()["total"] == 0

    def test_clocked_matches_scalar_oracle(self):
        stimulus = [{"rst": 0, "d": cycle % 16} for cycle in range(16)]
        stimulus += [{"rst": int(cycle % 5 == 0), "d": (3 * cycle + 1) % 16} for cycle in range(16)]
        options = {"reset": ResetSpec(signal="rst")}
        scalar = TestbenchRunner(**options).run(ACCUM, _AccumGolden(), stimulus)
        fused = BatchTestbenchRunner(differential=True, **options).run(
            ACCUM, _AccumGolden(), stimulus
        )
        assert scalar.passed
        assert (fused.passed, fused.total_checks) == (scalar.passed, scalar.total_checks)

    def test_xz_gate_refuses_then_a_defined_call_runs(self):
        # An undriven input is x: the gate refuses the generated settle and
        # the call raises; once every read input is driven the same
        # simulator settles on generated code.
        simulator = BatchSimulator.from_source(ALU, lanes=4)
        with pytest.raises(LaneFallback):
            simulator.apply_inputs({"a": 1, "b": 2})
        assert codegen.fallback_stats()["reasons"] == {codegen.XZ_STATE: 1}
        simulator.apply_inputs({"op": 0})
        assert codegen.fallback_stats()["total"] == 1
        assert simulator.get("y").lane(0).to_int() == 3


class TestFallbackRegistry:
    def test_design_rejection_is_recorded(self):
        source = (
            "module d(input [3:0] a, input [3:0] b, output [3:0] y);"
            " assign y = a % b; endmodule"
        )
        with pytest.raises(LaneFallback):
            BatchSimulator.from_source(source, lanes=4)
        stats = codegen.fallback_stats()
        assert stats["total"] >= 1
        assert "mul-div-mod" in stats["reasons"]
        assert any("mul-div-mod" in reasons for reasons in stats["designs"].values())

    def test_one_record_per_check_that_leaves(self):
        source = (
            "module d(input [3:0] a, input [1:0] n, output [3:0] y);"
            " assign y = a << n; endmodule"
        )
        golden = CombinationalGolden(lambda ins: {"y": (ins["a"] << ins["n"]) & 15})
        stimulus = [{"a": a, "n": n} for a in range(4) for n in range(4)]
        for _ in range(3):
            assert BatchTestbenchRunner().run(source, golden, stimulus).passed
        assert codegen.fallback_stats()["reasons"] == {"non-constant-shift": 3}

    def test_fresh_simulator_records_no_fallback(self):
        # Nothing settles before inputs are driven, so a fresh simulator has
        # nothing to refuse.
        source = "module g(input a, input b, output y); assign y = a & b; endmodule"
        simulator = BatchSimulator.from_source(source, lanes=4)
        assert codegen.fallback_stats()["total"] == 0
        simulator.apply_inputs({"a": 1, "b": 0})
        assert codegen.fallback_stats()["total"] == 0


class TestCompileCache:
    def test_cache_evicts_oldest_beyond_the_cap(self, monkeypatch):
        monkeypatch.setattr(codegen, "COMPILE_CACHE_ENTRIES", 4)
        monkeypatch.setattr(codegen, "_COMPILE_CACHE", {})
        sources = [f"def fn():\n    return {index}\n" for index in range(10)]
        for source in sources:
            assert codegen._compiled_function(source, "fn")() == sources.index(source)
        assert list(codegen._COMPILE_CACHE) == sources[-4:]

    def test_cap_holds_a_full_design_database(self):
        assert codegen.COMPILE_CACHE_ENTRIES >= DesignDatabase().max_entries


#: A three-block 4-state Moore FSM: the emission-size reference design.
FSM = """
module fsm(input clk, input rst, input x, output reg [1:0] state, output z);
    localparam A = 2'd0, B = 2'd1, C = 2'd2, D = 2'd3;
    reg [1:0] next;
    always @(posedge clk) begin
        if (rst) state <= A;
        else state <= next;
    end
    always @(*) begin
        case (state)
            A: next = x ? B : A;
            B: next = x ? B : C;
            C: next = x ? D : A;
            D: next = x ? B : C;
            default: next = A;
        endcase
    end
    assign z = state == D;
endmodule
"""


def _lockstep(source: str, cycles: int = 24, seed: int = 0) -> int:
    """Run ``source`` on its fused loop and on the scalar oracle; cycles compared.

    Reset (``rst``, when declared) runs on the scalar engine; from the first
    boundary the gate admits, every state signal must agree after every cycle.
    """
    import random

    from repro.verilog.simulator.values import LogicVector

    compiled = DesignDatabase().compile(source)
    program = compiled.codegen.sequence
    assert program is not None, compiled.codegen.reject_reason
    widths = compiled.input_widths()
    data_inputs = sorted(set(widths) - {"clk"})
    oracle = ModuleSimulator(compiled)
    oracle.apply_inputs({name: 0 for name in widths})
    if "rst" in widths:
        oracle.apply_inputs({"rst": 1})
        oracle.clock_cycle()
        oracle.apply_inputs({"rst": 0})
    rng = random.Random(seed)
    run = None
    compared = 0
    for _ in range(cycles):
        data = {name: rng.randrange(1 << widths[name]) for name in data_inputs}
        if "rst" in data:
            data["rst"] = int(rng.random() < 0.1)
        if run is None and program.ready(oracle.signals, data, set(widths)):
            run = codegen.SequenceRun(program, dict(oracle.signals), "clk", compiled.name)
        oracle.apply_inputs(data)
        oracle.clock_cycle()
        if run is None:
            continue
        run.cycle(data)
        for name, value in run.dump().items():
            width = oracle.get(name).width
            assert LogicVector.from_int(value, width) == oracle.get(name), name
        compared += 1
    return compared


class TestWordLevelRun:
    """The fused loop is word-level Python with real control flow."""

    def test_fsm_emission_is_small_and_word_level(self):
        source = DesignDatabase().compile(FSM).codegen.sequence.source
        # The column lowering emitted 93 lines for this design.
        assert source.count("\n") <= 45
        assert "elif" in source
        assert not re.search(r"\bs\d+_\d+\b", source), "per-bit state local"
        assert _lockstep(FSM) > 0

    @pytest.mark.parametrize(
        "body, reason",
        [
            # A branch whose condition folds to 0 is dead code, as the
            # lanes' lowering folds it: its division is never lowered.
            ("if (1'b0 && en) q <= a / b; else q <= a; r <= b;", None),
            ("case (2'd1) 2'd0: q <= a / b; default: q <= a; endcase r <= b;", None),
            # The partly constant words both lowerings fold.
            ("if ((a & 4'd0) != 0) q <= a / b; else q <= a; r <= b;", None),
            ("if ((a | 4'hf) == 4'hf) q <= a; else q <= a / b; r <= b;", None),
            ("if (a < 4'd0) q <= a / b; else q <= a; r <= b;", None),
            ("if ((a << 4) != 0) q <= a / b; else q <= a; r <= b;", None),
            ("if (en) q <= a / b; else q <= a; r <= b;", "mul-div-mod"),
            # Non-blocking targets are checked after every process, where
            # the lanes' lowering checked its commits.
            ("q[a] <= b; r <= a % b;", "mul-div-mod"),
            ("q[a] <= b; r <= a;", "non-constant-select"),
            ("q <= a << b; r <= b;", "non-constant-shift"),
        ],
    )
    def test_rejections_match_the_column_lowering(self, body, reason):
        source = (
            "module m(input clk, input en, input [3:0] a, input [3:0] b,"
            " output reg [3:0] q, output reg [3:0] r);"
            f" always @(posedge clk) begin {body} end endmodule"
        )
        artifact = DesignDatabase().compile(source).codegen
        assert artifact.reject_reason == reason
        if reason is None:
            assert artifact.sequence is not None
            assert _lockstep(source) > 0

    @pytest.mark.parametrize(
        "body",
        [
            # Read after its non-blocking assignment: the read sees the old value.
            "a <= b; b <= a ^ d;",
            # Assigned in branches and by parts.
            "if (d[0]) a <= d; else a <= a + 4'd1; b[1:0] <= d[3:2]; b[3:2] <= a[1:0];",
            # Blocking and non-blocking: one pending value per assignment.
            "a = a + 4'd1; if (d[1]) a <= d; b <= a; if (d[2]) a[0] <= 1'b0;",
            # A blocking temporary feeding a non-blocking assignment.
            "t = d ^ b; b <= t; a <= {t[1:0], t[3:2]};",
        ],
    )
    def test_nonblocking_commits_match_the_scalar_oracle(self, body):
        source = (
            "module m(input clk, input rst, input [3:0] d, output reg [3:0] a,"
            " output reg [3:0] b); reg [3:0] t;"
            " always @(posedge clk) begin if (rst) begin a <= 4'd0; b <= 4'd5; t = 0; end"
            f" else begin {body} end end endmodule"
        )
        assert _lockstep(source) > 0

    @pytest.mark.parametrize("arms", [900, 3000])
    def test_a_long_case_chain_compiles_or_is_rejected(self, arms):
        """Python compiles an ``elif`` as an ``if`` nested in the arm before.

        A case chain nests one level per arm without indenting, and
        ``compile()`` recurses once per level, so a long lookup table is
        either lowered shallow enough to compile or rejected as code-size.
        """
        rows = " ".join(f"{i}: q <= 8'd{i * 37 & 255};" for i in range(arms))
        source = (
            "module rom(input clk, input [11:0] addr, output reg [7:0] q);"
            f" always @(posedge clk) case (addr) {rows} default: q <= 8'd0; endcase"
            " endmodule"
        )
        artifact = DesignDatabase().compile(source).codegen
        if arms > wordgen.MAX_STATEMENT_DEPTH:
            assert artifact.reject_reason == "code-size"
            return
        assert artifact.sequence is not None, artifact.reject_reason

        def nested(frames: int):
            # Compile under a deep Python stack: the compiler's limit is
            # what remains of the recursion limit.
            if frames:
                return nested(frames - 1)
            return compile(artifact.sequence.source, "<codegen_run>", "exec")

        nested(sys.getrecursionlimit() // 2)
        assert _lockstep(source) > 0

    def test_processes_on_both_edges_match_the_scalar_oracle(self):
        source = """
        module m(input clk, input rst, input [3:0] d, output reg [3:0] p, output reg [3:0] n,
                 output [4:0] s);
            always @(posedge clk) if (rst) p <= 4'd0; else p <= p + d;
            always @(negedge clk) if (rst) n <= 4'd0; else n <= p ^ n;
            assign s = {1'b0, p} + n;
        endmodule
        """
        assert _lockstep(source) > 0


def _tool(name: str):
    """A module of ``tools/``, loaded by path."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_suite_agrees_with_the_scalar_oracle(monkeypatch):
    """The five suites at tiny scale, every fast check re-checked on the scalar engine.

    A divergence degrades its check (the re-check raises), so every run
    must be clean; and fused clocked runs must have been compared at all.
    """
    from repro.experiments import ExperimentScale
    from repro.verilog.design import set_default_database

    runs = []
    original = codegen.SequenceRun.__init__

    def counting(self, *args, **kwargs):
        runs.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(codegen.SequenceRun, "__init__", counting)
    previous = set_default_database(DesignDatabase())
    try:
        summaries = _tool("codegen_differential").differential_runs(ExperimentScale.tiny())
    finally:
        set_default_database(previous)
    assert [summary["manifest"] for summary in summaries] == ["table4", "table5"]
    for summary in summaries:
        assert summary["units"] > 0
        assert (summary["quarantined"], summary["degraded"], summary["warnings"]) == (0, 0, 0)
    assert runs


class TestDeadline:
    def test_generated_settle_ticks_the_deadline(self):
        simulator = BatchSimulator.from_source(ALU, lanes=8)
        simulator.apply_inputs({"a": 1, "b": 2, "op": 0})
        with deadline_scope(0.0):
            with pytest.raises(CheckTimeout) as excinfo:
                simulator.settle()
        assert excinfo.value.site == "BatchSimulator.codegen_settle"

    def test_fused_run_ticks_the_deadline_per_cycle(self):
        compiled = DesignDatabase().compile(ACCUM)
        simulator = ModuleSimulator(compiled)
        simulator.apply_inputs({"clk": 0, "rst": 1, "d": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        run = codegen.SequenceRun(compiled.codegen.sequence, simulator.signals, "clk", "accum")
        run.cycle({"d": 3})
        assert run.read("sum").to_int() == 3
        with deadline_scope(0.0):
            with pytest.raises(CheckTimeout) as excinfo:
                run.cycle({"d": 1})
        assert excinfo.value.site == "codegen_run"

