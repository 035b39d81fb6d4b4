"""Differential: the regular-expression lexer against the hand-rolled one.

:func:`repro.tquel.lexer.tokenize` scans with one master regular
expression; :mod:`tests.tquel.lexer_reference` is the character-at-a-time
lexer it replaced.  On generated sources, and on every TQuel statement
quoted in ``tests/``, ``examples/`` and ``docs/``, the two must return
the same tokens — type, value, line and column — or raise the same
error with the same message at the same position.  The one allowed
difference is the fix: a number is ASCII ``[0-9]`` digits, so a
non-ASCII digit is an "unexpected character" where the reference read
it as part of a number.
"""

import ast
import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TQuelSyntaxError
from repro.tquel.lexer import TokenType, tokenize

from tests.tquel import lexer_reference as reference

ROOT = pathlib.Path(__file__).resolve().parents[2]
STATEMENT = re.compile(
    r"\s*(retrieve|append|replace|delete|range\s+of|create|destroy)\b",
    re.IGNORECASE)


def outcome(lex, source):
    """The token list, or what the error says and where."""
    try:
        return "tokens", lex(source)
    except TQuelSyntaxError as error:
        return "error", str(error), error.line, error.column


def assert_same(source):
    assert outcome(tokenize, source) == outcome(reference.tokenize, source), \
        source


def mixed_case(word):
    return st.lists(st.booleans(), min_size=len(word),
                    max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c
                              for c, u in zip(word, upper)))


#: Lexemes that meet the edge cases: mixed-case keywords, escapes and a
#: newline inside strings, comments across lines and unterminated ones,
#: numbers that stop at a second dot or a trailing one, words with
#: digits, and two-character symbols next to their halves.
PIECES = st.one_of(
    st.sampled_from(["retrieve", "as", "of", "through", "valid", "from",
                     "when", "overlap", "is", "null"]).flatmap(mixed_case),
    st.sampled_from(['"Merrie"', '"12/10/82"', r'"a\"b"', r'"a\\b"',
                     r'"\n"', '"a\nb"', r'"x\"', r'"\\"', '"', '""',
                     '"é"']),
    st.sampled_from(["# note\n", "#", "/* a */", "/* a\n b */", "/* x",
                     "/*/", "/**/", "*/", "/ *"]),
    st.sampled_from(["1", "1.", "1.5", "1.5.3", "007", "n0012", "_x1",
                     ".5", "f.rank", "12abc"]),
    st.sampled_from(["<=", "<", "=", "!=", "!", ">=", ">", "(", ")", ",",
                     ";", "+", "-", "*", "/", "@", "$"]),
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b"]),
    st.text(alphabet='ab_9 .="\\#/*<>!\n', max_size=4),
)


class TestGenerated:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(PIECES, max_size=12).map("".join))
    def test_same_tokens_or_same_error(self, source):
        assert_same(source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(
        blacklist_categories=("Nd", "No", "Nl", "Cs")), max_size=16))
    def test_any_text_without_non_ascii_digits(self, source):
        # Nd / No / Nl hold the characters the reference's `isdigit`
        # read as a number; ASCII 0-9 are added back by the pieces above.
        assert_same(source)


def quoted_statements():
    """Every string in tests/, examples/ and docs/ that starts like a
    TQuel statement: Python string constants, Markdown lines and
    Markdown inline code."""
    found = set()
    for path in sorted((ROOT / "tests").rglob("*.py")) + \
            sorted((ROOT / "examples").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if STATEMENT.match(node.value):
                    found.add(node.value)
    for path in sorted((ROOT / "docs").rglob("*.md")):
        text = path.read_text(encoding="utf-8")
        for quoted in text.splitlines() + re.findall(r"`([^`\n]+)`", text):
            if STATEMENT.match(quoted):
                found.add(quoted.strip())
    return sorted(found)


class TestQuotedStatements:
    def test_every_quoted_statement_lexes_the_same(self):
        statements = quoted_statements()
        assert len(statements) >= 300  # the corpus has not gone missing
        for source in statements:
            if not any(c.isdigit() and not c.isascii() for c in source):
                assert_same(source)  # else: the fix's own examples


class TestTheOneDifference:
    def test_non_ascii_digits_were_numbers_to_the_reference(self):
        # tests/tquel/test_lexer.py::TestNumbers holds the new behaviour.
        for source, number in (("2²", "2²"), ("٣", "٣")):
            assert [(token.type, token.value)
                    for token in reference.tokenize(source)][:1] == [
                (TokenType.NUMBER, number)]
            assert outcome(tokenize, source) == (
                "error", f"unexpected character {source[-1]!r} "
                         f"(line 1, column {len(source)})", 1, len(source))
