"""The character-at-a-time Verilog scanner, kept as the test oracle.

This is the scanner :mod:`repro.verilog.lexer` used before it became one
compiled master regex.  ``tests/verilog/test_lexer_differential.py`` asserts
that both produce the same ``(kind, text, line, column)`` token streams and
the same ``LexerError`` ``(message, line, column)`` on the project's sources
and on a malformed corpus.  It is test code only: nothing in ``src/`` uses it.
"""

from __future__ import annotations

from repro.verilog.errors import LexerError
from repro.verilog.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789$")
_DIGITS = set("0123456789")
_BASE_CHARS = {
    "b": set("01xXzZ?_"),
    "o": set("01234567xXzZ?_"),
    "d": set("0123456789_"),
    "h": set("0123456789abcdefABCDEFxXzZ?_"),
}


class Lexer:
    """Convert Verilog source text into a list of tokens.

    Example:
        >>> tokens = Lexer("module m; endmodule").tokenize()
        >>> [t.text for t in tokens[:-1]]
        ['module', 'm', ';', 'endmodule']
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self.tokens: list[Token] = []

    # ------------------------------------------------------------------ helpers
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self.line, self.column)

    def _emit(self, kind: TokenKind, text: str, line: int, column: int) -> None:
        self.tokens.append(Token(kind, text, line, column))

    # ------------------------------------------------------------------ scanning
    def tokenize(self) -> list[Token]:
        """Scan the whole source and return tokens terminated by an EOF token."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                self._skip_line_comment()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            elif ch == "`":
                self._skip_compiler_directive()
            elif ch in _IDENT_START:
                self._scan_identifier()
            elif ch == "\\":
                self._scan_escaped_identifier()
            elif ch == "$":
                self._scan_system_identifier()
            elif ch in _DIGITS or (ch == "'" and self._peek(1).lower() in "bodh"):
                self._scan_number()
            elif ch == '"':
                self._scan_string()
            else:
                self._scan_operator_or_punctuation()
        self._emit(TokenKind.EOF, "", self.line, self.column)
        return self.tokens

    def _skip_line_comment(self) -> None:
        while self.pos < len(self.source) and self._peek() != "\n":
            self._advance()

    def _skip_block_comment(self) -> None:
        start_line, start_col = self.line, self.column
        self._advance(2)
        while self.pos < len(self.source):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            self._advance()
        raise LexerError("unterminated block comment", start_line, start_col)

    def _skip_compiler_directive(self) -> None:
        # `timescale, `define, `include ... are skipped up to end of line.  The
        # synthesizable subset we model does not require macro expansion.
        while self.pos < len(self.source) and self._peek() != "\n":
            self._advance()

    def _scan_identifier(self) -> None:
        line, column = self.line, self.column
        start = self.pos
        while self.pos < len(self.source) and self._peek() in _IDENT_CONT:
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        self._emit(kind, text, line, column)

    def _scan_escaped_identifier(self) -> None:
        line, column = self.line, self.column
        self._advance()  # backslash
        start = self.pos
        while self.pos < len(self.source) and self._peek() not in " \t\r\n":
            self._advance()
        text = self.source[start : self.pos]
        if not text:
            raise LexerError("empty escaped identifier", line, column)
        self._emit(TokenKind.IDENTIFIER, text, line, column)

    def _scan_system_identifier(self) -> None:
        line, column = self.line, self.column
        start = self.pos
        self._advance()  # $
        while self.pos < len(self.source) and self._peek() in _IDENT_CONT:
            self._advance()
        self._emit(TokenKind.SYSTEM_IDENTIFIER, self.source[start : self.pos], line, column)

    def _scan_number(self) -> None:
        line, column = self.line, self.column
        start = self.pos
        # Optional decimal size before the base specifier.
        while self.pos < len(self.source) and self._peek() in _DIGITS | {"_"}:
            self._advance()
        if self._peek() == "'":
            self._advance()
            signed_marker = self._peek().lower()
            if signed_marker == "s":
                self._advance()
            base = self._peek().lower()
            if base not in _BASE_CHARS:
                raise self._error(f"invalid number base {base!r}")
            self._advance()
            allowed = _BASE_CHARS[base]
            digit_start = self.pos
            while self.pos < len(self.source) and self._peek() in allowed:
                self._advance()
            if self.pos == digit_start:
                raise self._error("based number is missing digits")
        else:
            # Possibly a real literal (e.g. delays in testbench code).
            if self._peek() == "." and self._peek(1) in _DIGITS:
                self._advance()
                while self.pos < len(self.source) and self._peek() in _DIGITS:
                    self._advance()
        self._emit(TokenKind.NUMBER, self.source[start : self.pos], line, column)

    def _scan_string(self) -> None:
        line, column = self.line, self.column
        self._advance()  # opening quote
        start = self.pos
        while self.pos < len(self.source) and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            if self._peek() == "\n":
                raise LexerError("unterminated string literal", line, column)
            self._advance()
        if self.pos >= len(self.source):
            raise LexerError("unterminated string literal", line, column)
        text = self.source[start : self.pos]
        self._advance()  # closing quote
        self._emit(TokenKind.STRING, text, line, column)

    def _scan_operator_or_punctuation(self) -> None:
        line, column = self.line, self.column
        for op in MULTI_CHAR_OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                self._emit(TokenKind.OPERATOR, op, line, column)
                return
        ch = self._peek()
        if ch in SINGLE_CHAR_OPERATORS:
            self._advance()
            self._emit(TokenKind.OPERATOR, ch, line, column)
            return
        if ch in PUNCTUATION:
            self._advance()
            self._emit(TokenKind.PUNCTUATION, ch, line, column)
            return
        raise self._error(f"unexpected character {ch!r}")


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper returning the token list for ``source``."""
    return Lexer(source).tokenize()
