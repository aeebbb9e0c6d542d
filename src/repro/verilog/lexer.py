"""Regex-driven lexer for the Verilog-2001 subset used throughout the project.

One compiled master pattern does the scanning: each match skips any run of
whitespace, ``//`` and ``/* */`` comments and compiler directives, then names
the token that follows in one of its named groups.  Malformed input is matched
by dedicated error groups (an unterminated comment or string, a based number
without a valid base or digits, a stray character), so every position of the
source is consumed by exactly one match and the scan is a single
``finditer`` pass.  The output is a list of
:class:`~repro.verilog.tokens.Token` objects terminated by an EOF token.  It
is the first stage of the "industry-standard compiler" substitute used for
dataset verification and syntax pass@k scoring (see DESIGN.md).
"""

from __future__ import annotations

import re

from .errors import LexerError
from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)


def _char_class(chars) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


_BASED_DIGITS = "(?:[bB][01xXzZ?_]+|[oO][0-7xXzZ?_]+|[dD][0-9_]+|[hH][0-9a-fA-FxXzZ?_]+)"

# Each match skips whitespace, comments and compiler directives, then matches
# one group.  Alternation order matters only where two groups can start with
# the same character: ``/*`` (a comment, else an unterminated-comment error)
# before the ``/`` operator, valid numbers before the number error group, and
# the multi-character operators in the longest-first order of
# ``MULTI_CHAR_OPERATORS``.  An unsized based number (``'b1``) takes no sign
# marker; a quote that does not start one is an unexpected character, except
# at the end of input, where it is a number with an empty base.  ``EOF`` and
# ``BAD_CHAR`` match at any position, so a match never fails and the skip
# prefix never backtracks.
_MASTER = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|`[^\n]*)*(?:"
    + "|".join(
        [
            r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_$]*)",
            r"(?P<PUNCTUATION>" + _char_class(PUNCTUATION) + ")",
            r"(?P<NUMBER>(?:[0-9][0-9_]*'[sS]?|')" + _BASED_DIGITS
            + r"|[0-9][0-9_]*(?![0-9_'])(?:\.[0-9]+)?)",
            r"(?P<BAD_COMMENT>/\*)",
            r"(?P<OPERATOR>"
            + "|".join(re.escape(op) for op in MULTI_CHAR_OPERATORS)
            + "|" + _char_class(SINGLE_CHAR_OPERATORS) + ")",
            r'"(?P<STRING>[^"\\\n]*(?:\\[^\n][^"\\\n]*)*)"',
            r"\\(?P<ESCAPED>[^ \t\r\n]+)",
            r"(?P<SYSTEM_IDENTIFIER>\$[A-Za-z0-9_$]*)",
            r"(?P<BAD_NUMBER>[0-9][0-9_]*'|'(?=[bodhBODH]|\Z))",
            r'(?P<BAD_STRING>")',
            r"(?P<BAD_ESCAPE>\\)",
            r"(?P<EOF>\Z)",
            r"(?P<BAD_CHAR>.)",
        ]
    )
    + ")",
    re.DOTALL,
)

_PLAIN_KINDS = {
    "PUNCTUATION": TokenKind.PUNCTUATION,
    "NUMBER": TokenKind.NUMBER,
    "OPERATOR": TokenKind.OPERATOR,
    "SYSTEM_IDENTIFIER": TokenKind.SYSTEM_IDENTIFIER,
}
_NUMBER_BASES = frozenset("bodh")


class Lexer:
    """Convert Verilog source text into a list of tokens.

    Example:
        >>> tokens = Lexer("module m; endmodule").tokenize()
        >>> [t.text for t in tokens[:-1]]
        ['module', 'm', ';', 'endmodule']
    """

    def __init__(self, source: str):
        self.source = source

    def tokenize(self) -> list[Token]:
        """Scan the whole source and return a new token list ending in an EOF token.

        Raises:
            LexerError: at the first malformed token, with its line and column.
        """
        source = self.source
        tokens: list[Token] = []
        append = tokens.append
        keyword, identifier = TokenKind.KEYWORD, TokenKind.IDENTIFIER
        line, line_start = 1, 0
        # Tokens never span a newline, so the line of a token is settled by
        # counting the newlines that precede its start.
        next_newline = source.find("\n")
        if next_newline < 0:
            next_newline = len(source)
        for match in _MASTER.finditer(source):
            kind = match.lastgroup
            start = match.start(kind)
            while start > next_newline:
                line += 1
                line_start = next_newline + 1
                next_newline = source.find("\n", line_start)
                if next_newline < 0:
                    next_newline = len(source)
            if kind == "IDENT":
                text = match[kind]
                append(
                    Token(keyword if text in KEYWORDS else identifier, text, line, start - line_start + 1)
                )
            elif kind in _PLAIN_KINDS:
                append(Token(_PLAIN_KINDS[kind], match[kind], line, start - line_start + 1))
            # A string or escaped identifier sits at its opening quote or
            # backslash, one character before its text.
            elif kind == "STRING":
                append(Token(TokenKind.STRING, match[kind], line, start - line_start))
            elif kind == "ESCAPED":
                append(Token(identifier, match[kind], line, start - line_start))
            elif kind == "EOF":
                # After trailing whitespace the end of input matches twice.
                append(Token(TokenKind.EOF, "", line, start - line_start + 1))
                break
            else:
                raise self._error(match, line, line_start)
        return tokens

    def _error(self, match: re.Match[str], line: int, line_start: int) -> LexerError:
        """The error a ``BAD_*`` match stands for, at the scanner's position."""
        source, kind = self.source, match.lastgroup
        pos = match.start(kind)
        if kind == "BAD_NUMBER":
            # The group ends at the quote: an optional sign marker, then the base.
            pos = match.end(kind)
            if source[pos : pos + 1].lower() == "s":
                pos += 1
            base = source[pos : pos + 1].lower()
            if base in _NUMBER_BASES:
                message, pos = "based number is missing digits", pos + 1
            else:
                message = f"invalid number base {base!r}"
        else:
            message = {
                "BAD_COMMENT": "unterminated block comment",
                "BAD_STRING": "unterminated string literal",
                "BAD_ESCAPE": "empty escaped identifier",
                "BAD_CHAR": f"unexpected character {source[pos]!r}",
            }[kind]
        return LexerError(message, line, pos - line_start + 1)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper returning the token list for ``source``."""
    return Lexer(source).tokenize()
