"""Unit tests for the relational constraints."""

import pytest

from repro.errors import ConstraintViolation, UnknownAttributeError
from repro.relational import (
    Attribute, CheckConstraint, Domain, KeyConstraint, NotNullConstraint,
    Relation, Schema, attr,
)


class TestConstraints:
    def test_key_constraint(self):
        schema = Schema.of(name=Domain.STRING, rank=Domain.STRING)
        good = Relation.from_rows(schema, [["A", "x"], ["B", "x"]])
        KeyConstraint(["name"]).check(good)
        bad = Relation.from_rows(schema, [["A", "x"], ["A", "y"]])
        with pytest.raises(ConstraintViolation, match="duplicate key"):
            KeyConstraint(["name"]).check(bad)

    def test_key_constraint_unknown_attribute(self):
        schema = Schema.of(name=Domain.STRING)
        with pytest.raises(UnknownAttributeError):
            KeyConstraint(["id"]).check(Relation.empty(schema))

    def test_not_null_constraint(self):
        schema = Schema([Attribute("x", Domain.STRING, nullable=True)])
        with pytest.raises(ConstraintViolation, match="null"):
            NotNullConstraint(["x"]).check(Relation.from_rows(schema, [[None]]))

    def test_check_constraint(self):
        schema = Schema.of(age=Domain.INTEGER)
        adult = CheckConstraint(attr("age") >= 18, name="adult")
        adult.check(Relation.from_rows(schema, [[21]]))
        with pytest.raises(ConstraintViolation, match="adult"):
            adult.check(Relation.from_rows(schema, [[12]]))
