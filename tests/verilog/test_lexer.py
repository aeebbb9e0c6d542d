"""Tests for the Verilog lexer."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.verilog.errors import LexerError
from repro.verilog.lexer import Lexer, tokenize
from repro.verilog.tokens import TokenKind


class TestBasicTokens:
    def test_keywords_recognised(self):
        tokens = tokenize("module endmodule input output wire reg always assign")
        kinds = {token.text: token.kind for token in tokens[:-1]}
        assert all(kind is TokenKind.KEYWORD for kind in kinds.values())

    def test_identifier_vs_keyword(self):
        tokens = tokenize("module my_module")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENTIFIER
        assert tokens[1].text == "my_module"

    def test_identifier_with_dollar_and_digits(self):
        tokens = tokenize("sig_1$x")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[0].text == "sig_1$x"

    def test_eof_token_terminates_stream(self):
        tokens = tokenize("wire w;")
        assert tokens[-1].kind is TokenKind.EOF

    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_system_identifier(self):
        tokens = tokenize("$display")
        assert tokens[0].kind is TokenKind.SYSTEM_IDENTIFIER
        assert tokens[0].text == "$display"

    def test_escaped_identifier(self):
        tokens = tokenize("\\weird+name rest")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[0].text == "weird+name"
        assert tokens[1].text == "rest"


class TestNumbers:
    @pytest.mark.parametrize(
        "literal",
        ["42", "4'b1010", "8'hFF", "12'o777", "16'd1234", "4'sb1010", "3'b1x0", "8'hz"],
    )
    def test_number_forms(self, literal):
        tokens = tokenize(literal)
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].text == literal

    def test_underscore_in_number(self):
        tokens = tokenize("16'b1010_1010_1111_0000")
        assert tokens[0].kind is TokenKind.NUMBER

    def test_real_literal(self):
        tokens = tokenize("10.5")
        assert tokens[0].kind is TokenKind.NUMBER

    def test_invalid_base_raises(self):
        with pytest.raises(LexerError):
            tokenize("4'q1010")

    def test_missing_digits_raises(self):
        with pytest.raises(LexerError):
            tokenize("4'b;")


class TestOperatorsAndComments:
    @pytest.mark.parametrize(
        "operator",
        ["<<<", ">>>", "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "+:", "-:"],
    )
    def test_multi_char_operators(self, operator):
        tokens = tokenize(f"a {operator} b")
        assert any(token.kind is TokenKind.OPERATOR and token.text == operator for token in tokens)

    def test_line_comment_is_skipped(self):
        tokens = tokenize("wire a; // this is a comment\nwire b;")
        texts = [token.text for token in tokens]
        assert "comment" not in " ".join(texts)
        assert texts.count("wire") == 2

    def test_block_comment_is_skipped(self):
        tokens = tokenize("wire /* hidden */ a;")
        assert [t.text for t in tokens[:-1]] == ["wire", "a", ";"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("wire a; /* unterminated")

    def test_compiler_directive_skipped(self):
        tokens = tokenize("`timescale 1ns/1ps\nmodule m; endmodule")
        assert tokens[0].is_keyword("module")

    def test_string_literal(self):
        tokens = tokenize('$display("hello world");')
        strings = [t for t in tokens if t.kind is TokenKind.STRING]
        assert len(strings) == 1
        assert strings[0].text == "hello world"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize('"oops')

    def test_unexpected_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("wire a §;")


class TestScannerQuirks:
    """Behaviour kept exactly from the character-at-a-time scanner."""

    def test_unsized_number_takes_no_sign_marker(self):
        assert tokenize("4'sb1")[0].text == "4'sb1"
        with pytest.raises(LexerError) as info:
            tokenize("'sb1")
        assert (info.value.message, info.value.column) == ("unexpected character \"'\"", 1)

    def test_trailing_quote_is_an_empty_base(self):
        with pytest.raises(LexerError) as info:
            tokenize("x = '")
        assert (info.value.message, info.value.column) == ("invalid number base ''", 6)

    def test_real_literal_needs_a_fraction_digit(self):
        tokens = tokenize("1.")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (TokenKind.NUMBER, "1"),
            (TokenKind.PUNCTUATION, "."),
        ]


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("module m;\n  wire a;\nendmodule")
        wire_token = next(token for token in tokens if token.text == "wire")
        assert wire_token.line == 2
        assert wire_token.column == 3

    def test_crlf_and_tabs_count_one_column_each(self):
        tokens = tokenize("a;\r\n\tb")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), (";", 1, 2), ("b", 2, 2), ("", 2, 3)
        ]

    def test_tokenize_twice_returns_fresh_lists(self):
        lexer = Lexer("module m; endmodule")
        first = lexer.tokenize()
        second = lexer.tokenize()
        assert first == second
        assert first is not second
        assert [token.kind for token in second].count(TokenKind.EOF) == 1

    def test_token_helpers(self):
        tokens = tokenize("module (")
        assert tokens[0].is_keyword("module")
        assert not tokens[0].is_keyword("endmodule")
        assert tokens[1].is_punct("(")


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=32))
def test_lexing_random_sized_literals(value, width):
    """Any sized binary literal we can print must lex as a single number token."""
    literal = f"{width}'b{format(value & ((1 << width) - 1), 'b')}"
    tokens = tokenize(literal)
    assert tokens[0].kind is TokenKind.NUMBER
    assert len(tokens) == 2  # number + EOF


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12))
def test_lexing_random_identifiers(name):
    tokens = Lexer(name).tokenize()
    assert tokens[0].text == name
    assert tokens[0].kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
