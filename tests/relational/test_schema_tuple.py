"""Unit tests for schemas and tuples."""

import pytest

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational import Attribute, Domain, Schema, Tuple

RANK = Domain.enumeration("rank", "assistant", "associate", "full")


def faculty_schema() -> Schema:
    return Schema.of(key=["name"], name=Domain.STRING, rank=RANK)


class TestAttribute:
    def test_basic(self):
        attribute = Attribute("name", Domain.STRING)
        assert attribute.name == "name"
        assert not attribute.nullable

    def test_check(self):
        attribute = Attribute("name", Domain.STRING)
        assert attribute.check("Merrie") == "Merrie"
        with pytest.raises(Exception):
            attribute.check(42)

    def test_null_rejected_unless_nullable(self):
        strict = Attribute("name", Domain.STRING)
        with pytest.raises(SchemaError, match="not nullable"):
            strict.check(None)
        loose = Attribute("name", Domain.STRING, nullable=True)
        assert loose.check(None) is None

    def test_renamed(self):
        attribute = Attribute("name", Domain.STRING, nullable=True)
        renamed = attribute.renamed("title")
        assert renamed.name == "title"
        assert renamed.domain == Domain.STRING
        assert renamed.nullable

    def test_names_with_spaces_allowed(self):
        # The paper's column headings ("effective date") are legal.
        assert Attribute("effective date", Domain.DATE).name == "effective date"

    def test_qualified_names_allowed(self):
        assert Attribute("f1.rank", RANK).name == "f1.rank"

    @pytest.mark.parametrize("bad", ["", "1abc", "a-b", "a..b", "."])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(SchemaError):
            Attribute(bad, Domain.STRING)


class TestSchema:
    def test_of(self):
        schema = faculty_schema()
        assert schema.names == ("name", "rank")
        assert schema.key == ("name",)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Attribute("x", Domain.STRING), Attribute("x", Domain.INTEGER)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_key_must_exist(self):
        with pytest.raises(SchemaError, match="key"):
            Schema.of(key=["id"], name=Domain.STRING)

    def test_key_must_be_distinct(self):
        with pytest.raises(SchemaError, match="distinct"):
            Schema([Attribute("a", Domain.STRING)], key=["a", "a"])

    def test_attribute_lookup(self):
        schema = faculty_schema()
        assert schema.attribute("rank").domain == RANK
        with pytest.raises(UnknownAttributeError, match="salary"):
            schema.attribute("salary")

    def test_position_is_declaration_order(self):
        schema = faculty_schema()
        assert [schema.position(name) for name in schema.names] == [0, 1]
        with pytest.raises(UnknownAttributeError,
                           match="no attribute 'salary'; "
                                 "schema has name, rank"):
            schema.position("salary")

    def test_contains_iter_len(self):
        schema = faculty_schema()
        assert "name" in schema and "salary" not in schema
        assert [a.name for a in schema] == ["name", "rank"]
        assert len(schema) == 2

    def test_project(self):
        projected = faculty_schema().project(["rank"])
        assert projected.names == ("rank",)
        assert projected.key == ()  # key dropped: 'name' not kept

    def test_project_keeps_key_when_included(self):
        projected = faculty_schema().project(["name"])
        assert projected.key == ("name",)

    def test_rename(self):
        renamed = faculty_schema().rename({"rank": "position"})
        assert renamed.names == ("name", "position")
        assert renamed.key == ("name",)

    def test_rename_key_attribute(self):
        renamed = faculty_schema().rename({"name": "who"})
        assert renamed.key == ("who",)

    def test_rename_unknown_raises(self):
        with pytest.raises(UnknownAttributeError):
            faculty_schema().rename({"salary": "pay"})

    def test_concat_with_prefixes(self):
        schema = faculty_schema()
        combined = schema.concat(schema, "f1", "f2")
        assert combined.names == ("f1.name", "f1.rank", "f2.name", "f2.rank")

    def test_concat_collision_without_prefixes_raises(self):
        schema = faculty_schema()
        with pytest.raises(SchemaError):
            schema.concat(schema)

    def test_key_of(self):
        schema = faculty_schema()
        assert schema.key_of({"name": "Tom", "rank": "associate"}) == ("Tom",)

    def test_equality_and_hash(self):
        assert faculty_schema() == faculty_schema()
        assert hash(faculty_schema()) == hash(faculty_schema())
        assert faculty_schema() != faculty_schema().rename({"rank": "r"})


class TestTuple:
    def test_basic(self):
        row = Tuple(faculty_schema(), {"name": "Merrie", "rank": "full"})
        assert row["name"] == "Merrie"
        assert row.values == ("Merrie", "full")
        assert dict(row) == {"name": "Merrie", "rank": "full"}

    def test_from_sequence(self):
        row = Tuple.from_sequence(faculty_schema(), ["Tom", "associate"])
        assert row["rank"] == "associate"

    def test_from_sequence_wrong_arity(self):
        with pytest.raises(SchemaError, match="expected 2 values, got 1"):
            Tuple.from_sequence(faculty_schema(), ["Tom"])

    def test_from_sequence_checks_every_value_against_its_attribute(self):
        from repro.errors import DomainError
        with pytest.raises(DomainError, match="attribute rank"):
            Tuple.from_sequence(faculty_schema(), ["Tom", "janitor"])
        with pytest.raises(SchemaError, match="name is not nullable"):
            Tuple.from_sequence(faculty_schema(), [None, "full"])
        row = Tuple.from_sequence(faculty_schema(), ("Tom", "full"))
        assert row == Tuple(faculty_schema(), {"rank": "full", "name": "Tom"})
        assert row.values == ("Tom", "full") and hash(row) == hash(
            Tuple(faculty_schema(), {"name": "Tom", "rank": "full"}))

    def test_missing_value_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            Tuple(faculty_schema(), {"name": "Tom"})

    def test_extra_value_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            Tuple(faculty_schema(), {"name": "Tom", "rank": "full", "age": 40})

    def test_domain_checked(self):
        with pytest.raises(Exception):
            Tuple(faculty_schema(), {"name": "Tom", "rank": "janitor"})

    def test_unknown_attribute_access(self):
        row = Tuple(faculty_schema(), {"name": "Tom", "rank": "full"})
        with pytest.raises(UnknownAttributeError,
                           match="tuple has no attribute 'salary'; "
                                 "schema has name, rank"):
            _ = row["salary"]

    def test_key(self):
        row = Tuple(faculty_schema(), {"name": "Tom", "rank": "full"})
        assert row.key() == ("Tom",)
        composite = Schema.of(key=["b", "a"], a=Domain.INTEGER,
                              b=Domain.STRING, c=Domain.STRING)
        assert Tuple(composite, {"a": 1, "b": "x", "c": "y"}).key() == (
            "x", 1)
        assert Tuple(Schema.of(a=Domain.INTEGER), {"a": 1}).key() == ()

    def test_project(self):
        row = Tuple(faculty_schema(), {"name": "Tom", "rank": "full"})
        assert dict(row.project(["rank"])) == {"rank": "full"}

    def test_replace(self):
        row = Tuple(faculty_schema(), {"name": "Tom", "rank": "associate"})
        promoted = row.replace(rank="full")
        assert promoted["rank"] == "full"
        assert row["rank"] == "associate"  # original untouched

    def test_replace_is_checked(self):
        row = Tuple(faculty_schema(), {"name": "Tom", "rank": "associate"})
        with pytest.raises(Exception):
            row.replace(rank="janitor")

    def test_equality_and_hash(self):
        a = Tuple(faculty_schema(), {"name": "Tom", "rank": "full"})
        b = Tuple(faculty_schema(), {"name": "Tom", "rank": "full"})
        c = Tuple(faculty_schema(), {"name": "Tom", "rank": "associate"})
        assert a == b and a != c
        assert len({a, b, c}) == 2

    def test_mapping_protocol(self):
        row = Tuple(faculty_schema(), {"name": "Tom", "rank": "full"})
        assert list(row) == ["name", "rank"]
        assert len(row) == 2
        assert row.get("name") == "Tom"
