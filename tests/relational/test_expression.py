"""Unit tests for the expression AST and evaluator."""

import pytest

from repro.errors import ExpressionError
from repro.relational import Attribute, Domain, Schema, Tuple, attr, const
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, IsNull, Not, Or,
)

SCHEMA = Schema([
    Attribute("name", Domain.STRING),
    Attribute("age", Domain.INTEGER),
    Attribute("nick", Domain.STRING, nullable=True),
])

ROW = Tuple(SCHEMA, {"name": "Merrie", "age": 40, "nick": None})


class TestLeaves:
    def test_const(self):
        assert const(42).evaluate(ROW) == 42
        assert const("x").references() == frozenset()

    def test_unqualified_attr(self):
        assert attr("name").evaluate(ROW) == "Merrie"
        assert attr("age").references() == frozenset({(None, "age")})

    def test_qualified_attr(self):
        env = {"f": ROW}
        assert attr("f", "name").evaluate(env) == "Merrie"
        assert attr("f", "name").references() == frozenset({("f", "name")})

    def test_unbound_variable(self):
        with pytest.raises(ExpressionError, match="not bound"):
            attr("g", "name").evaluate({"f": ROW})

    def test_unknown_attribute(self):
        with pytest.raises(ExpressionError, match="salary"):
            attr("salary").evaluate(ROW)


class TestComparison:
    def test_operators(self):
        assert (attr("age") == const(40)).evaluate(ROW)
        assert (attr("age") != const(39)).evaluate(ROW)
        assert (attr("age") < const(41)).evaluate(ROW)
        assert (attr("age") <= const(40)).evaluate(ROW)
        assert (attr("age") > const(39)).evaluate(ROW)
        assert (attr("age") >= const(40)).evaluate(ROW)

    def test_lifting_plain_values(self):
        assert (attr("age") == 40).evaluate(ROW)
        assert (attr("name") == "Merrie").evaluate(ROW)

    def test_null_comparisons_false(self):
        assert not (attr("nick") == "Mo").evaluate(ROW)
        assert not (attr("nick") != "Mo").evaluate(ROW)
        assert not (attr("nick") < "Mo").evaluate(ROW)

    def test_is_null(self):
        assert attr("nick").is_null().evaluate(ROW)
        assert not attr("name").is_null().evaluate(ROW)

    def test_type_mismatch_raises(self):
        with pytest.raises(ExpressionError, match="compare"):
            (attr("age") < "forty").evaluate(ROW)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("~=", const(1), const(2))


class TestBoolean:
    def test_and_or_not(self):
        assert ((attr("age") == 40) & (attr("name") == "Merrie")).evaluate(ROW)
        assert not ((attr("age") == 40) & (attr("name") == "Tom")).evaluate(ROW)
        assert ((attr("age") == 99) | (attr("name") == "Merrie")).evaluate(ROW)
        assert (~(attr("age") == 99)).evaluate(ROW)

    def test_references_union(self):
        expression = (attr("age") == 40) & (attr("f", "name") == "x")
        assert expression.references() == frozenset({(None, "age"), ("f", "name")})


class TestArithmetic:
    def test_operators(self):
        assert (attr("age") + 2).evaluate(ROW) == 42
        assert (attr("age") - 2).evaluate(ROW) == 38
        assert (attr("age") * 2).evaluate(ROW) == 80
        assert (attr("age") / 4).evaluate(ROW) == 10

    def test_string_concat(self):
        assert (attr("name") + "!").evaluate(ROW) == "Merrie!"

    def test_null_propagates(self):
        assert (attr("nick") + "!").evaluate(ROW) is None

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            (attr("age") / 0).evaluate(ROW)

    def test_nested(self):
        assert ((attr("age") + 2) == 42).evaluate(ROW)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            BinaryOp("**", const(2), const(3))


class TestRepr:
    """repr is the canonical structural identity used by parser tests."""

    def test_stable(self):
        a = (attr("f", "age") == 40) & ~(attr("name") == "Tom")
        b = (attr("f", "age") == 40) & ~(attr("name") == "Tom")
        assert repr(a) == repr(b)

    def test_distinguishes(self):
        assert repr(attr("age") == 40) != repr(attr("age") != 40)
        assert repr(And(const(1), const(2))) != repr(Or(const(1), const(2)))
        assert "is null" in repr(IsNull(attr("nick")))


class TestCompile:
    """``compile`` resolves references once and closes over the result;
    values and errors are ``evaluate``'s (the generated-tree property is
    in ``tests/tquel/test_compiled_differential.py``)."""

    def test_references_are_resolved_once_not_per_row(self):
        resolved = []

        def resolve(variable, name):
            resolved.append((variable, name))
            position = SCHEMA.position(name)
            return lambda row: row.values[position]

        expr = ((attr("age") + 2) == 42) & ~attr("nick").is_null()
        compiled = expr.compile(resolve)
        assert resolved == [(None, "age"), (None, "nick")]
        assert [compiled(ROW) for _ in range(3)] == [expr.evaluate(ROW)] * 3
        assert len(resolved) == 2

    def test_null_and_type_semantics_are_shared_with_evaluate(self):
        def resolve(variable, name):
            return lambda row: row[name]

        assert (attr("nick") == "x").compile(resolve)(ROW) is False
        assert (attr("nick") + 1).compile(resolve)(ROW) is None
        with pytest.raises(ExpressionError, match="cannot compare"):
            (attr("name") < 3).compile(resolve)(ROW)
        with pytest.raises(ExpressionError, match="cannot compute"):
            (attr("age") / 0).compile(resolve)(ROW)
