"""Unit tests for the TQuel lexer."""

import pytest

from repro.errors import TQuelSyntaxError
from repro.tquel.lexer import TokenType, tokenize
from repro.tquel.parser import parse


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_keywords_case_insensitive(self):
        assert kinds("RETRIEVE Retrieve retrieve") == [
            (TokenType.KEYWORD, "retrieve")] * 3

    def test_identifiers(self):
        assert kinds("faculty f1 _x") == [
            (TokenType.IDENT, "faculty"),
            (TokenType.IDENT, "f1"),
            (TokenType.IDENT, "_x"),
        ]

    def test_keyword_vs_identifier(self):
        # 'ranged' is an identifier even though it starts with 'range'.
        assert kinds("ranged")[0] == (TokenType.IDENT, "ranged")

    def test_paper_query_tokens(self):
        source = 'retrieve (f.rank) where f.name = "Merrie"'
        values = [t.value for t in tokenize(source)[:-1]]
        assert values == ["retrieve", "(", "f", ".", "rank", ")", "where",
                          "f", ".", "name", "=", "Merrie"]


class TestStrings:
    def test_string_literal(self):
        assert kinds('"Merrie"') == [(TokenType.STRING, "Merrie")]

    def test_date_string(self):
        assert kinds('"12/10/82"') == [(TokenType.STRING, "12/10/82")]

    def test_escapes(self):
        assert kinds(r'"a\"b"') == [(TokenType.STRING, 'a"b')]
        assert kinds(r'"a\\b"') == [(TokenType.STRING, "a\\b")]

    def test_unterminated_string(self):
        with pytest.raises(TQuelSyntaxError, match="unterminated"):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(TQuelSyntaxError):
            tokenize('"line\nbreak"')


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]

    def test_float(self):
        assert kinds("4.25") == [(TokenType.NUMBER, "4.25")]

    def test_dot_not_swallowed(self):
        # 'f.rank' is ident dot ident, not a float.
        assert kinds("f.rank")[1] == (TokenType.SYMBOL, ".")

    def test_digits_are_ascii(self):
        # A superscript two reached int("2²") and raised a bare ValueError.
        with pytest.raises(TQuelSyntaxError,
                           match="unexpected character '²'") as raised:
            parse("retrieve (x = 2²)")
        assert (raised.value.line, raised.value.column) == (1, 16)

    def test_a_non_ascii_digit_is_not_a_number(self):
        # An Arabic-Indic three was silently read as 3.
        with pytest.raises(TQuelSyntaxError,
                           match="unexpected character '٣'") as raised:
            parse("retrieve (x = ٣)")
        assert (raised.value.line, raised.value.column) == (1, 15)

    def test_identifiers_keep_unicode_letters_and_digits(self):
        assert kinds("é٣ x²") == [(TokenType.IDENT, "é٣"),
                                  (TokenType.IDENT, "x²")]


class TestSymbols:
    def test_two_char_symbols(self):
        assert kinds("!= <= >=") == [(TokenType.SYMBOL, "!="),
                                     (TokenType.SYMBOL, "<="),
                                     (TokenType.SYMBOL, ">=")]

    def test_maximal_munch(self):
        assert kinds("<=") == [(TokenType.SYMBOL, "<=")]
        assert kinds("< =") == [(TokenType.SYMBOL, "<"),
                                (TokenType.SYMBOL, "=")]

    def test_unexpected_character(self):
        with pytest.raises(TQuelSyntaxError, match="unexpected"):
            tokenize("@")


class TestCommentsAndPositions:
    def test_hash_comment(self):
        assert kinds("retrieve # comment\n(") == [
            (TokenType.KEYWORD, "retrieve"), (TokenType.SYMBOL, "(")]

    def test_block_comment(self):
        assert kinds("a /* hidden */ b") == [
            (TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(TQuelSyntaxError, match="comment"):
            tokenize("/* oops")

    def test_positions(self):
        tokens = tokenize("range of\n  f")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (1, 7)
        assert (tokens[2].line, tokens[2].column) == (2, 3)

    def test_error_carries_position(self):
        try:
            tokenize("\n\n  @")
        except TQuelSyntaxError as error:
            assert error.line == 3 and error.column == 3
        else:  # pragma: no cover
            pytest.fail("expected an error")

    def test_token_helpers(self):
        token = tokenize("retrieve")[0]
        assert token.is_keyword("retrieve")
        assert not token.is_keyword("range")
        assert not token.is_symbol("(")
