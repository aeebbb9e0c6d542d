"""Differential gate: the regex lexer against the character-at-a-time oracle.

``reference_lexer.Lexer`` is the scanner the regex lexer replaced.  Both must
produce the same ``(kind, text, line, column)`` token stream on every source
the project lexes — suite references, dataset samples, the candidates of a
tiny Table IV sweep and the writer fuzz corpus — and the same ``LexerError``
``(message, line, column)`` on malformed input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from reference_lexer import Lexer as ReferenceLexer
from test_writer_fuzz import _SourceGen

from repro.bench.symbolic_suite import build_symbolic_suite
from repro.bench.verilogeval import SuiteConfig
from repro.experiments import ExperimentScale, build_datasets, build_suites
from repro.verilog.errors import LexerError
from repro.verilog.lexer import Lexer
from repro.verilog.parser import parse_module
from repro.verilog.writer import write_module


def _outcome(lexer_cls, source: str):
    """The token stream as plain tuples, or the error as (message, line, column)."""
    try:
        tokens = lexer_cls(source).tokenize()
    except LexerError as exc:
        return ("error", exc.message, exc.line, exc.column)
    return [(token.kind, token.text, token.line, token.column) for token in tokens]


def assert_same_tokens(source: str) -> None:
    assert _outcome(Lexer, source) == _outcome(ReferenceLexer, source), repr(source)


# --------------------------------------------------------------------------- corpora
@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale.tiny()


def test_suite_references(tiny_scale):
    suites = list(build_suites(tiny_scale).values())
    suites.append(
        build_symbolic_suite(SuiteConfig(num_tasks=tiny_scale.human_tasks, seed=tiny_scale.seed + 11))
    )
    assert len(suites) == 5
    for suite in suites:
        assert suite.tasks
        for task in suite.tasks:
            assert_same_tokens(task.reference_source)


def test_dataset_samples(tiny_scale):
    bundle = build_datasets(tiny_scale)
    for dataset in (bundle.vanilla, bundle.k_dataset, bundle.l_dataset):
        assert dataset.pairs
        for pair in dataset.pairs:
            assert_same_tokens(pair.code)


def test_tiny_table4_candidates(tiny_scale, monkeypatch):
    """Every source a tiny Table IV sweep lexes, its generated candidates included."""
    from repro.runs.engine import RunEngine
    from repro.runs.presets import table4_manifest
    from repro.runs.store import RunStore
    from repro.verilog.design import DesignDatabase, set_default_database

    sources: set[str] = set()
    tokenize = Lexer.tokenize

    def recording_tokenize(self):
        sources.add(self.source)
        return tokenize(self)

    monkeypatch.setattr(Lexer, "tokenize", recording_tokenize)
    previous = set_default_database(DesignDatabase())
    try:
        RunEngine(table4_manifest(tiny_scale), RunStore.ephemeral()).run()
    finally:
        set_default_database(previous)
    monkeypatch.undo()
    assert len(sources) > 100
    for source in sorted(sources):
        assert_same_tokens(source)


@pytest.mark.parametrize("seed", range(40))
def test_writer_fuzz_sources(seed):
    source = _SourceGen(seed).module()
    assert_same_tokens(source)
    assert_same_tokens(write_module(parse_module(source)))


# --------------------------------------------------------------------------- edge cases
VALID_EDGES = [
    "",
    "  \n\t\r\n ",
    "1.",
    "1.5 1_0.25 1_. 7.x",
    "4'sb1010 8'SHff 12'O17 16'D_1 'b1 'hX 'o7 'd9 3'b?z_",
    "4 'b1 4'b1'b0",
    "a<<<=b>>>c===d!==e**f==g!=h<=i>=j&&k||l<<m>>n~&o~|p~^q^~r[3+:2][1-:1]",
    "+-*/%<>!~&|^=? ()[]{}:;,.#@",
    "\\esc+id rest \\a\\b\tc",
    '"str \\" esc" "tab\there" "\\\\" ""',
    "$display $a$b$ $",
    "_a$1 a_ A9 module endmodule negedge",
    "/*/ */ /**/ a/b a/ /*\n*/ c // tail",
    "a//b\nc /* x\n y */ d",
    "`timescale 1ns/1ps\n`define W 4\nwire [`W-1:0] w;",
    "module m;\r\n  wire a;\r\nendmodule\r\n",
    "module m;\n\twire\ta;\n\t\tassign a = 1'b1;\n",
    "x\r\r\ny",
    "a ` b\n c   d",
]

MALFORMED = [
    "wire a; /* unterminated",
    "module m;\n  /* open\n still open",
    '$display("oops);',
    '"line\nbreak"',
    '"escaped \\\nnewline"',
    '"ends in a backslash \\',
    "wire a = 4'",
    "'",
    "4'q1",
    "4'Q1",
    "4'b",
    "4'b;",
    "'b;",
    "4'sq1",
    "4's",
    "4'b2",
    "'sb1",
    "x = 'sb1;",
    "\\ rest",
    "\\\tx",
    "a \\",
    "\\\r\n",
    "wire a §;",
    "wire é;",
    "4'İ",  # lowercases to two characters
    "module m;\r\n  wire a;\r\n  wire b §;\r\nendmodule\r\n",
    "module m;\r\n  /* never closed\r\n",
    "module m;\n\twire\ta;\n\t\t4'q\n",
    "\t\t'x",
    "`define X 1\nwire ¤",
    "c\u2028d",  # a Unicode line separator is not a newline
]


@pytest.mark.parametrize("source", VALID_EDGES)
def test_valid_edge_cases(source):
    assert _outcome(ReferenceLexer, source)[0] != "error"
    assert_same_tokens(source)


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_corpus_raises_identical_errors(source):
    outcome = _outcome(Lexer, source)
    assert outcome[0] == "error", repr(source)
    assert outcome == _outcome(ReferenceLexer, source)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="ab_1s'bhodxz?.\"\\/*`$;(+-<=>&|^~ \t\r\n§", max_size=40))
def test_random_text_agrees(source):
    assert_same_tokens(source)

