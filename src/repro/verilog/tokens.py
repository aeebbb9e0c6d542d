"""Token definitions for the Verilog-2001 lexer.

The lexer/parser pair in :mod:`repro.verilog` targets the synthesizable subset of
Verilog-2001 that HDL engineers use for the module classes covered by the HaVen
paper (FSMs, counters, shift registers, ALUs, clock dividers, combinational
logic) plus the constructs needed for dataset verification.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    SYSTEM_IDENTIFIER = "system_identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


#: Reserved words recognised by the lexer.  This intentionally covers more than the
#: parser accepts so that misuse of a reserved word is reported as a syntax error
#: rather than silently treated as an identifier.
KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "integer",
        "real",
        "parameter",
        "localparam",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "for",
        "while",
        "repeat",
        "forever",
        "posedge",
        "negedge",
        "or",
        "and",
        "not",
        "nand",
        "nor",
        "xor",
        "xnor",
        "buf",
        "function",
        "endfunction",
        "task",
        "endtask",
        "generate",
        "endgenerate",
        "genvar",
        "signed",
        "unsigned",
        "wait",
        "disable",
        "deassign",
        "force",
        "release",
        "fork",
        "join",
        "specify",
        "endspecify",
        "supply0",
        "supply1",
        "tri",
        "time",
        "event",
        "defparam",
    }
)

#: Multi-character operators ordered longest-first so that maximal munch works by
#: simple prefix testing.
MULTI_CHAR_OPERATORS = (
    "<<<",
    ">>>",
    "===",
    "!==",
    "**",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "~&",
    "~|",
    "~^",
    "^~",
    "+:",
    "-:",
)

SINGLE_CHAR_OPERATORS = frozenset("+-*/%<>!~&|^=?")

PUNCTUATION = frozenset("()[]{}:;,.#@")


class Token(NamedTuple):
    """A single lexical token (an immutable named tuple).

    Attributes:
        kind: the lexical category.
        text: the exact source text of the token (numbers keep their base prefix).
        line: 1-based source line of the first character.
        column: 1-based source column of the first character.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """Return ``True`` when this token is the given reserved word."""
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_op(self, op: str) -> bool:
        """Return ``True`` when this token is the given operator."""
        return self.kind is TokenKind.OPERATOR and self.text == op

    def is_punct(self, punct: str) -> bool:
        """Return ``True`` when this token is the given punctuation character."""
        return self.kind is TokenKind.PUNCTUATION and self.text == punct

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.column}"
