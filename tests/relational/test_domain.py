"""Unit tests for value domains, including user-defined time."""

import pytest

from repro.errors import DomainError
from repro.relational.domain import Domain
from repro.relational.schema import Attribute, Schema
from repro.time import Instant


class TestBuiltins:
    def test_string(self):
        assert Domain.STRING.contains("hello")
        assert not Domain.STRING.contains(42)
        assert Domain.STRING.parse("x") == "x"

    def test_integer(self):
        assert Domain.INTEGER.contains(42)
        assert not Domain.INTEGER.contains(4.2)
        assert not Domain.INTEGER.contains(True)  # bools are not ints here
        assert Domain.INTEGER.parse("42") == 42

    def test_integer_parse_garbage(self):
        with pytest.raises(DomainError):
            Domain.INTEGER.parse("forty-two")

    def test_float(self):
        assert Domain.FLOAT.contains(4.2)
        assert Domain.FLOAT.contains(42)  # ints are acceptable floats
        assert not Domain.FLOAT.contains("4.2")
        assert Domain.FLOAT.parse("4.2") == 4.2

    def test_float_parse_garbage(self):
        with pytest.raises(DomainError):
            Domain.FLOAT.parse("pi")

    def test_boolean(self):
        assert Domain.BOOLEAN.contains(True)
        assert not Domain.BOOLEAN.contains(1)
        assert Domain.BOOLEAN.parse("yes") is True
        assert Domain.BOOLEAN.parse("F") is False

    def test_boolean_parse_garbage(self):
        with pytest.raises(DomainError):
            Domain.BOOLEAN.parse("maybe")

    def test_date(self):
        assert Domain.DATE.contains(Instant.parse("12/15/82"))
        assert not Domain.DATE.contains("12/15/82")
        assert Domain.DATE.parse("12/15/82") == Instant.parse("12/15/82")
        assert Domain.DATE.format(Instant.parse("12/15/82")) == "1982-12-15"


class TestEnumeration:
    def test_membership(self):
        rank = Domain.enumeration("rank", "assistant", "associate", "full")
        assert rank.contains("full")
        assert not rank.contains("emeritus")

    def test_parse_validates(self):
        rank = Domain.enumeration("rank", "assistant", "associate")
        assert rank.parse("assistant") == "assistant"
        with pytest.raises(DomainError, match="rank"):
            rank.parse("full")

    def test_check_raises_with_attribute_name(self):
        rank = Domain.enumeration("rank", "assistant")
        with pytest.raises(DomainError, match="position"):
            rank.check("dean", attribute="position")


class TestUserDefinedTime:
    def test_values_are_instants(self):
        effective = Domain.user_defined_time("effective date")
        assert effective.contains(Instant.parse("09/01/77"))
        assert not effective.contains("09/01/77")

    def test_io_functions(self):
        # §4.5: "all that is needed is an internal representation and input
        # and output functions".
        effective = Domain.user_defined_time("effective date")
        value = effective.parse("09/01/77")
        assert value == Instant.parse("09/01/77")
        assert effective.format(value) == "09/01/77"

    def test_flagged(self):
        assert Domain.user_defined_time().is_user_defined_time
        assert not Domain.DATE.is_user_defined_time

    def test_infinity_parses(self):
        effective = Domain.user_defined_time()
        assert effective.format(effective.parse("forever")) == "∞"


class TestEquality:
    def test_by_name(self):
        assert Domain.STRING == Domain("string", lambda v: True)
        assert Domain.STRING != Domain.INTEGER

    def test_user_defined_time_distinct_from_plain(self):
        assert Domain.user_defined_time("date") != Domain("date", lambda v: True)

    def test_hashable(self):
        assert len({Domain.STRING, Domain.INTEGER, Domain.STRING}) == 2

    def test_an_enumeration_is_its_set_of_values(self):
        first = Domain.enumeration("rank", "a")
        assert first != Domain.enumeration("rank", "b")
        assert len({first, Domain.enumeration("rank", "b")}) == 2
        reordered = Domain.enumeration("rank", "b", "a")
        assert reordered == Domain.enumeration("rank", "a", "b")
        assert hash(reordered) == hash(Domain.enumeration("rank", "a", "b"))
        assert first != Domain("rank", lambda v: True, str, str)

    def test_schemas_over_different_enumerations_differ(self):
        def schema(*ranks):
            return Schema([Attribute("rank", Domain.enumeration("rank",
                                                                *ranks))])
        assert Attribute("r", Domain.enumeration("rank", "a")) != \
            Attribute("r", Domain.enumeration("rank", "b"))
        assert schema("a") != schema("b")
        assert schema("a", "b") == schema("b", "a")

    def test_format_without_formatter(self):
        bare = Domain("bare", lambda v: True)
        assert bare.format(42) == "42"

    def test_parse_without_parser_raises(self):
        bare = Domain("bare", lambda v: True)
        with pytest.raises(DomainError):
            bare.parse("42")
