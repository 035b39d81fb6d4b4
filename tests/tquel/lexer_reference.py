"""The hand-rolled TQuel lexer: the reference.

:func:`repro.tquel.lexer.tokenize` scans with one master regular
expression.  This is the lexer it replaced, which peeks and advances one
character at a time, kept so the two can be compared token by token and
error by error (``tests/tquel/test_lexer_differential.py``).

One difference is deliberate.  Here a number starts at any character
for which ``str.isdigit`` holds, so ``2²`` reaches ``int("2²")`` and
raises a bare ``ValueError`` from the parser, and ``٣`` lexes as a
number that parses as 3.  The new lexer reads ASCII ``[0-9]`` digits
only; any other character that cannot start a token is a
:class:`~repro.errors.TQuelSyntaxError` ("unexpected character") at its
line and column.
"""

from __future__ import annotations

from typing import List

from repro.errors import TQuelSyntaxError
from repro.tquel.lexer import KEYWORDS, SYMBOLS, Token, TokenType


class Lexer:
    """Tokenizes one TQuel source string."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._position = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> List[Token]:
        """The full token list, ending with an EOF token."""
        result = []
        while True:
            token = self._next()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    # -- scanning ---------------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        index = self._position + ahead
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count: int = 1) -> str:
        text = self._source[self._position:self._position + count]
        for char in text:
            if char == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._position += count
        return text

    def _skip_whitespace_and_comments(self) -> None:
        while True:
            char = self._peek()
            if char and char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "*":
                line, column = self._line, self._column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise TQuelSyntaxError("unterminated comment",
                                               line, column)
                    self._advance()
                self._advance(2)
            elif char == "#":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next(self) -> Token:
        self._skip_whitespace_and_comments()
        line, column = self._line, self._column
        char = self._peek()
        if not char:
            return Token(TokenType.EOF, "", line, column)

        if char == '"':
            return self._string(line, column)

        if char.isdigit():
            return self._number(line, column)

        if char.isalpha() or char == "_":
            return self._word(line, column)

        for symbol in SYMBOLS:
            if self._source.startswith(symbol, self._position):
                self._advance(len(symbol))
                return Token(TokenType.SYMBOL, symbol, line, column)

        raise TQuelSyntaxError(f"unexpected character {char!r}", line, column)

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            char = self._peek()
            if not char or char == "\n":
                raise TQuelSyntaxError("unterminated string literal",
                                       line, column)
            if char == '"':
                self._advance()
                return Token(TokenType.STRING, "".join(chars), line, column)
            if char == "\\" and self._peek(1) in ('"', "\\"):
                self._advance()
            chars.append(self._advance())

    def _number(self, line: int, column: int) -> Token:
        digits: List[str] = []
        seen_dot = False
        while self._peek().isdigit() or (self._peek() == "." and not seen_dot
                                         and self._peek(1).isdigit()):
            if self._peek() == ".":
                seen_dot = True
            digits.append(self._advance())
        return Token(TokenType.NUMBER, "".join(digits), line, column)

    def _word(self, line: int, column: int) -> Token:
        chars: List[str] = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        word = "".join(chars)
        if word.lower() in KEYWORDS:
            return Token(TokenType.KEYWORD, word.lower(), line, column)
        return Token(TokenType.IDENT, word, line, column)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* in one call."""
    return Lexer(source).tokens()
