"""Cache semantics of the compile-once design database.

Covers the contract the rest of the codebase now leans on: LRU hit/miss/
eviction accounting, parameter-override keying, negative caching of parse and
elaboration errors, the on-disk content-addressed tier, signal-store isolation
between simulators built from one cached artifact, and a property test that
cached and cold evaluation agree on random writer round-tripped modules.
"""

from __future__ import annotations

import random

import pytest

from repro.verilog.design import (
    CompiledDesign,
    DesignDatabase,
    DesignKey,
    coerce_compiled,
    compile_module_ast,
    get_default_database,
    set_default_database,
)
from repro.verilog.errors import ElaborationError, ParseError, VerilogError
from repro.verilog.parser import parse_module
from repro.verilog.simulator import BatchSimulator, ModuleSimulator, elaborate_module
from repro.verilog.syntax_checker import SyntaxChecker
from repro.verilog.writer import write_module

INV = "module inv(input a, output y); assign y = ~a; endmodule\n"

PARAM_COUNTER = """
module counter #(parameter WIDTH = 4) (
    input clk,
    input rst,
    output reg [WIDTH-1:0] count
);
    always @(posedge clk) begin
        if (rst)
            count <= {WIDTH{1'b0}};
        else
            count <= count + 1'b1;
    end
endmodule
"""

LATCHY = """
module latchy(input sel, input d, output reg q);
    always @(*) begin
        if (sel)
            q = d;
    end
endmodule
"""


class TestCacheSemantics:
    def test_hit_miss_accounting(self):
        db = DesignDatabase()
        first = db.compile(INV)
        second = db.compile(INV)
        assert first is second
        assert db.stats.misses == 1
        assert db.stats.hits == 1

    def test_parameter_override_keying(self):
        db = DesignDatabase()
        base = db.compile(PARAM_COUNTER)
        wide = db.compile(PARAM_COUNTER, parameter_overrides={"WIDTH": 8})
        assert base is not wide
        assert base.parameters["WIDTH"] == 4
        assert wide.parameters["WIDTH"] == 8
        assert db.stats.misses == 2
        # Override order in the dict must not matter for the key.
        again = db.compile(PARAM_COUNTER, parameter_overrides={"WIDTH": 8})
        assert again is wide

    def test_module_name_keying(self):
        source = INV + "module buf_(input a, output y); assign y = a; endmodule\n"
        db = DesignDatabase()
        first = db.compile(source)
        named = db.compile(source, module_name="buf_")
        assert first.name == "inv"
        assert named.name == "buf_"
        # Both compiles share one parse of the source file.
        assert db.stats.parse_hits == 1

    def test_lru_eviction(self):
        db = DesignDatabase(max_entries=2)
        sources = [f"module m{i}(input a, output y); assign y = a; endmodule" for i in range(3)]
        db.compile(sources[0])
        db.compile(sources[1])
        db.compile(sources[0])  # refresh: m0 is now most recent
        db.compile(sources[2])  # evicts m1
        assert db.stats.evictions == 1
        misses = db.stats.misses
        db.compile(sources[0])
        assert db.stats.misses == misses  # still cached
        db.compile(sources[1])
        assert db.stats.misses == misses + 1  # was evicted, recompiled

    def test_zero_capacity_disables_caching(self):
        db = DesignDatabase(max_entries=0)
        first = db.compile(INV)
        second = db.compile(INV)
        assert first is not second
        assert db.stats.hits == 0
        assert db.stats.misses == 2

    def test_negative_cache_parse_error(self):
        db = DesignDatabase()
        broken = "module broken("
        with pytest.raises(ParseError) as cold:
            db.compile(broken)
        with pytest.raises(ParseError) as warm:
            db.compile(broken)
        assert str(cold.value) == str(warm.value)
        assert db.stats.negative_hits == 1
        assert db.stats.misses == 1

    def test_negative_cache_elaboration_error(self):
        db = DesignDatabase()
        # Parses fine but cannot be elaborated (memory array).
        source = "module mem(input a, output y); reg [7:0] store [0:3]; assign y = a; endmodule"
        with pytest.raises(ElaborationError):
            db.compile(source)
        with pytest.raises(ElaborationError):
            db.compile(source)
        assert db.stats.negative_hits == 1

    def test_negative_cache_is_per_key(self):
        db = DesignDatabase()
        with pytest.raises(ParseError):
            db.compile(INV, module_name="missing")
        # Same source under a different key still compiles.
        assert db.compile(INV).name == "inv"


class TestParseModule:
    TWO = INV + "module buf1(input a, output y); assign y = a; endmodule\n"

    def test_matches_parser_parse_module(self):
        db = DesignDatabase()
        assert db.parse_module(self.TWO) == parse_module(self.TWO)
        assert db.parse_module(self.TWO, "buf1") == parse_module(self.TWO, "buf1")

    def test_returns_the_shared_ast(self):
        db = DesignDatabase()
        first = db.parse_module(self.TWO)
        assert db.parse_module(self.TWO) is first
        assert db.parse(self.TWO).modules[0] is first
        assert db.stats.parse_hits == 2

    @pytest.mark.parametrize(
        "source, name",
        [("// no module here\n", None), (INV, "missing"), ("module broken(", None)],
    )
    def test_raises_what_parser_parse_module_raises(self, source, name):
        db = DesignDatabase()
        with pytest.raises(ParseError) as expected:
            parse_module(source, name)
        for _ in range(2):  # cold, then from the parse tier
            with pytest.raises(ParseError) as actual:
                db.parse_module(source, name)
            assert str(actual.value) == str(expected.value)


class TestDiskTier:
    def test_round_trip(self, tmp_path):
        writer_db = DesignDatabase(cache_dir=tmp_path)
        compiled = writer_db.compile(PARAM_COUNTER, parameter_overrides={"WIDTH": 6})
        assert writer_db.stats.disk_writes == 1

        reader_db = DesignDatabase(cache_dir=tmp_path)
        loaded = reader_db.compile(PARAM_COUNTER, parameter_overrides={"WIDTH": 6})
        assert reader_db.stats.disk_hits == 1
        assert reader_db.stats.misses == 0
        assert loaded.key == compiled.key
        assert loaded.parameters == compiled.parameters
        # The loaded artifact must actually simulate.
        simulator = ModuleSimulator(loaded)
        simulator.apply_inputs({"rst": 1, "clk": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        simulator.clock_cycle()
        assert simulator.get_int("count") == 1

    def test_corrupt_entry_recompiles(self, tmp_path):
        db = DesignDatabase(cache_dir=tmp_path)
        db.compile(INV)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not a pickle")
        fresh = DesignDatabase(cache_dir=tmp_path)
        compiled = fresh.compile(INV)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses == 1
        assert compiled.name == "inv"

    def test_disk_filename_embeds_schema_version(self, tmp_path):
        from repro.verilog.design import DISK_FORMAT_VERSION

        db = DesignDatabase(cache_dir=tmp_path)
        db.compile(INV)
        entries = list(tmp_path.iterdir())
        assert len(entries) == 1
        assert entries[0].name.endswith(f"-v{DISK_FORMAT_VERSION}.pkl")

    def test_stale_schema_version_is_a_clean_miss(self, tmp_path):
        """Old-format pickles are never loaded: the version lives in the key.

        A schema bump (e.g. adding the codegen artifact) must surface as a
        recompile, not as an unpickle error or an artifact with silently
        missing attributes.
        """
        from repro.verilog.design import DISK_FORMAT_VERSION

        db = DesignDatabase(cache_dir=tmp_path)
        db.compile(INV)
        for entry in list(tmp_path.iterdir()):
            stale = entry.name.replace(
                f"-v{DISK_FORMAT_VERSION}.pkl", f"-v{DISK_FORMAT_VERSION - 1}.pkl"
            )
            entry.rename(tmp_path / stale)
        fresh = DesignDatabase(cache_dir=tmp_path)
        compiled = fresh.compile(INV)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses == 1
        simulator = ModuleSimulator(compiled)
        simulator.apply_inputs({"a": 1})
        assert simulator.get_int("y") == 0
        # The recompile rewrote the entry under the current version.
        names = {entry.name for entry in tmp_path.iterdir()}
        assert any(name.endswith(f"-v{DISK_FORMAT_VERSION}.pkl") for name in names)

    def test_codegen_artifact_survives_disk_round_trip(self, tmp_path):
        writer_db = DesignDatabase(cache_dir=tmp_path)
        compiled = writer_db.compile(INV)
        assert compiled.codegen is not None and compiled.codegen.supported

        reader_db = DesignDatabase(cache_dir=tmp_path)
        loaded = reader_db.compile(INV)
        assert reader_db.stats.disk_hits == 1
        assert loaded.codegen is not None
        assert loaded.codegen.supported
        assert loaded.codegen.settle_source == compiled.codegen.settle_source
        # The reloaded artifact must drive the generated back end.
        simulator = BatchSimulator(loaded, lanes=2)
        simulator.apply_inputs({"a": [0, 1]})
        assert simulator.get("y").lane(0).to_int() == 1
        assert simulator.get("y").lane(1).to_int() == 0


class TestCompiledDesign:
    def test_store_isolation_between_simulators(self):
        db = DesignDatabase()
        compiled = db.compile(PARAM_COUNTER)
        a = ModuleSimulator(compiled)
        b = ModuleSimulator(compiled)
        a.apply_inputs({"rst": 1, "clk": 0})
        a.clock_cycle()
        a.apply_inputs({"rst": 0})
        a.clock_cycle()
        a.clock_cycle()
        assert a.get_int("count") == 2
        # b never saw a clock edge: its registers still hold the template's x.
        assert b.get("count").has_unknown
        # The template itself is untouched.
        assert compiled.template.store.get("count").has_unknown

    def test_template_survives_simulation(self):
        db = DesignDatabase()
        compiled = db.compile(INV)
        simulator = ModuleSimulator(compiled)
        simulator.apply_inputs({"a": 1})
        again = ModuleSimulator(compiled)
        again.apply_inputs({"a": 0})
        assert again.get_int("y") == 1
        assert simulator.get_int("y") == 0

    def test_analyses(self):
        db = DesignDatabase()
        counter = db.compile(PARAM_COUNTER)
        assert counter.has_sequential_processes
        latchy = db.compile(LATCHY)
        assert latchy.has_latch_risk
        assert not latchy.has_sequential_processes
        inv = db.compile(INV)
        assert not inv.has_latch_risk
        assert inv.input_widths() == {"a": 1}

    def test_undef_sources(self):
        source = "module u(input a, output y); wire dangling; assign y = a; endmodule"
        compiled = DesignDatabase().compile(source)
        assert compiled.undef_sources == frozenset({"dangling"})

    def test_divergent_overrides_bypass_template(self):
        db = DesignDatabase()
        compiled = db.compile(PARAM_COUNTER)
        simulator = ModuleSimulator(compiled, parameter_overrides={"WIDTH": 2})
        assert simulator.design.store.widths["count"] == 2
        # The cached artifact keeps its own parameters.
        assert compiled.parameters["WIDTH"] == 4

    def test_coerce_compiled_variants(self):
        db = DesignDatabase()
        from_source = coerce_compiled(INV, database=db)
        assert from_source is coerce_compiled(from_source)
        module = parse_module(INV)
        from_ast = coerce_compiled(module)
        assert isinstance(from_ast, CompiledDesign)
        assert from_ast.name == "inv"
        overridden = coerce_compiled(db.compile(PARAM_COUNTER), parameter_overrides={"WIDTH": 7})
        assert overridden.parameters["WIDTH"] == 7


class TestSyntaxCheckerMemo:
    def test_check_results_memoised(self):
        db = DesignDatabase()
        checker = SyntaxChecker(database=db)
        first = checker.check(INV)
        second = checker.check(INV)
        assert first is second
        assert first.ok
        assert db.stats.check_hits == 1

    def test_check_hit_hashes_the_source_once(self, monkeypatch):
        import repro.verilog.design as design_module

        db = DesignDatabase()
        db.store_check(INV, "result")
        calls = []
        real_hash = design_module.source_hash
        monkeypatch.setattr(
            design_module, "source_hash", lambda source: calls.append(source) or real_hash(source)
        )
        assert db.cached_check(INV) == "result"
        assert calls == [INV]
        assert db.stats.check_hits == 1

    def test_failed_checks_memoised(self):
        db = DesignDatabase()
        checker = SyntaxChecker(database=db)
        broken = "module broken(input a, output y); assign y = b; endmodule"
        first = checker.check(broken)
        second = checker.check(broken)
        assert first is second
        assert not first.ok
        assert db.stats.check_hits == 1

    def test_checker_and_simulator_share_parse(self):
        db = DesignDatabase()
        checker = SyntaxChecker(database=db)
        checker.check(INV)
        db.compile(INV)
        # compile() reused the parse the checker populated.
        assert db.stats.parse_hits == 1


# --------------------------------------------------------------------------- property test
def _random_combinational_source(rng: random.Random, index: int) -> tuple[str, list[str]]:
    """A small random combinational module over 1-bit inputs."""
    num_inputs = rng.randint(2, 4)
    inputs = [f"i{j}" for j in range(num_inputs)]

    def expr(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice(inputs + ["1'b0", "1'b1"])
        op = rng.choice(["&", "|", "^"])
        left, right = expr(depth - 1), expr(depth - 1)
        if rng.random() < 0.3:
            return f"(~({left} {op} {right}))"
        return f"({left} {op} {right})"

    ports = ", ".join(f"input {name}" for name in inputs)
    return (
        f"module rand{index}({ports}, output y0, output y1);\n"
        f"    assign y0 = {expr(3)};\n"
        f"    assign y1 = {expr(2)};\n"
        "endmodule\n"
    ), inputs


@pytest.mark.parametrize("seed", range(8))
def test_cached_and_cold_agree_on_random_roundtripped_modules(seed):
    """Property: cached compile (twice, writer round-tripped) == cold elaborate.

    Each random module is written out, re-parsed and compiled through a
    database twice (the second compile is a guaranteed cache hit); a cold
    simulator built straight from ``elaborate_module`` on a fresh parse is the
    oracle.  Every input assignment must produce identical outputs.
    """
    rng = random.Random(seed)
    db = DesignDatabase()
    for index in range(4):
        source, inputs = _random_combinational_source(rng, index)
        roundtripped = write_module(parse_module(source))
        db.compile(roundtripped)  # prime
        cached = db.compile(roundtripped)  # hit
        assert db.stats.hits >= 1
        warm_sim = ModuleSimulator(cached)
        cold_sim = ModuleSimulator(parse_module(roundtripped))
        warm_batch = BatchSimulator(cached, lanes=1 << len(inputs))
        lanes = {
            name: [(row >> bit) & 1 for row in range(1 << len(inputs))]
            for bit, name in enumerate(inputs)
        }
        warm_batch.apply_inputs(lanes)
        for row in range(1 << len(inputs)):
            assignment = {name: (row >> bit) & 1 for bit, name in enumerate(inputs)}
            warm_sim.apply_inputs(dict(assignment))
            cold_sim.apply_inputs(dict(assignment))
            for output in ("y0", "y1"):
                assert warm_sim.get(output) == cold_sim.get(output), (
                    f"cached scalar diverged on {assignment} (seed {seed}, module {index})"
                )
                assert warm_batch.get_lane(output, row) == cold_sim.get(output), (
                    f"cached batch diverged on {assignment} (seed {seed}, module {index})"
                )


class TestDefaultDatabase:
    def test_from_source_rides_default_database(self):
        previous = set_default_database(DesignDatabase())
        try:
            db = get_default_database()
            ModuleSimulator.from_source(INV)
            ModuleSimulator.from_source(INV)
            BatchSimulator.from_source(INV, 4)
            assert db.stats.misses == 1
            assert db.stats.hits == 2
        finally:
            set_default_database(previous)
