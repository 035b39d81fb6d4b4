"""The TQuel lexer.

One master regular expression scans the source: each match is the
whitespace and comments before a token, then the token, the end of
input, or the character at which lexing fails.  Keywords are
case-insensitive (the paper typesets them lowercase; INGRES accepted
either).  Strings use double quotes, as in all the paper's examples
(``f.name = "Merrie"``, ``as of "12/10/82"``), with ``\\"`` and
``\\\\`` escapes.  Numbers are ASCII ``[0-9]+(.[0-9]+)?``; an identifier
is a letter or ``_`` and then letters, digits or ``_`` (Unicode
``str.isalpha`` / ``str.isalnum``).  Every failure is a
:class:`~repro.errors.TQuelSyntaxError` at its 1-based line and column.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.errors import TQuelSyntaxError


class TokenType(enum.Enum):
    """Lexical categories."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    STRING = "string"
    NUMBER = "number"
    SYMBOL = "symbol"
    EOF = "end of input"


#: Reserved words.  ``start``/``end`` double as the temporal unary
#: operators ``start of`` / ``end of``.
KEYWORDS = frozenset({
    "range", "of", "is", "retrieve", "into", "unique", "where", "when",
    "valid", "from", "to", "at", "as", "through", "start", "end", "overlap",
    "precede", "extend", "equal", "and", "or", "not", "append", "delete",
    "replace", "create", "destroy", "event", "key", "persistent", "now",
    "forever", "beginning", "by", "sort",
    # Extended when-operators (beyond the paper's overlap/precede/equal):
    "meets", "before", "after", "during", "starts", "finishes",
    # Null tests: `x is null`, `x is not null`.
    "null",
})

#: Multi-character symbols first so maximal munch works.
SYMBOLS = ("!=", "<=", ">=", "(", ")", ",", ".", "=", "<", ">", "+", "-",
           "*", "/", ";")


class Token(NamedTuple):
    """One lexeme with its source position (1-based line and column)."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """True if this token is the given keyword."""
        return self.type is TokenType.KEYWORD and self.value == word

    def is_symbol(self, symbol: str) -> bool:
        """True if this token is the given symbol."""
        return self.type is TokenType.SYMBOL and self.value == symbol


#: One match per token: the whitespace and comments before it, then the
#: first alternative that matches, in order.  A word is ``\w+`` not led
#: by a decimal digit; :func:`tokenize` refuses the other non-letters
#: (``²``, ``½``) ``\w`` admits first.  An unclosed ``"`` or ``/*`` is
#: an error before it can be a symbol; no token at all is the end.
_TOKEN = re.compile(r"""
    ( (?: [ \t\r\n]+ | \#[^\n]* | /\*.*?\*/ )*+ )
    (?: ( [^\W\d]\w* )
      | ( [0-9]+ (?:\.[0-9]+)? )
      | ( " (?: [^"\\\n] | \\["\\] | \\(?!["\\]) )* " )
      | ( "|/\* )
      | ( """ + "|".join(map(re.escape, SYMBOLS)) + r""" )
      | ( . )
      | \Z )
""", re.VERBOSE | re.DOTALL)
_UNTERMINATED = {'"': "unterminated string literal",
                 "/*": "unterminated comment"}
_ESCAPE = re.compile(r'\\(["\\])')
_IDENT, _KEYWORD, _STRING, _NUMBER, _SYMBOL, _EOF = TokenType
#: ``Token(...)`` runs the Python ``__new__`` NamedTuple generates; this
#: builds the same tuple in C.
_new = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """The tokens of *source*, ending with an EOF token."""
    tokens: List[Token] = []
    line, line_start, position = 1, 0, 0
    # finditer stops at the first error; findall would scan on, from each
    # later unclosed ``/*`` or ``"`` to the end: quadratic if hostile.
    for match in _TOKEN.finditer(source):
        gap, word, number, string, opened, symbol, other = match.groups()
        if gap:
            position += len(gap)
            if "\n" in gap:
                line += gap.count("\n")
                line_start = position - len(gap) + gap.rindex("\n") + 1
        column = position - line_start + 1
        if word:
            kind, value = _IDENT, word
            if word.lower() in KEYWORDS:
                kind, value = _KEYWORD, word.lower()
            elif not (word[0].isalpha() or word[0] == "_"):
                other = word[0]
        elif symbol:
            kind, value = _SYMBOL, symbol
        elif string:
            kind, value = _STRING, string[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif number:
            kind, value = _NUMBER, number
        elif opened:
            raise TQuelSyntaxError(_UNTERMINATED[opened], line, column)
        elif not other:
            tokens.append(_new(Token, (_EOF, "", line, column)))
            break
        if other:
            raise TQuelSyntaxError(f"unexpected character {other!r}",
                                   line, column)
        tokens.append(_new(Token, (kind, value, line, column)))
        position += len(word or symbol or string or number)
    return tokens
