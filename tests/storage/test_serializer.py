"""Unit tests for JSON serialization of values, schemas, and databases."""

import json

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import StorageError
from repro.relational import Attribute, Domain, Schema
from repro.storage import (decode_value, dump_database, dumps_database,
                           encode_value, load_database, loads_database,
                           schema_from_dict, schema_to_dict)
from repro.time import Instant, NEG_INF, POS_INF, Period, SimulatedClock

from tests.conftest import build_faculty, faculty_schema


class TestValues:
    @pytest.mark.parametrize("value", [None, "x", 42, 4.5, True])
    def test_plain_values_pass_through(self, value):
        assert encode_value(value) == value
        assert decode_value(encode_value(value)) == value

    def test_instant_roundtrip(self):
        when = Instant.parse("12/15/82")
        assert decode_value(encode_value(when)) == when

    def test_infinities_roundtrip(self):
        assert decode_value(encode_value(POS_INF)) is POS_INF
        assert decode_value(encode_value(NEG_INF)) is NEG_INF

    def test_period_roundtrip(self):
        period = Period("12/01/82", "forever")
        assert decode_value(encode_value(period)) == period

    def test_granularity_preserved(self):
        from repro.time import Granularity
        when = Instant.parse("1982-12-15 08:30:00", Granularity.SECOND)
        assert decode_value(encode_value(when)) == when

    def test_unserializable_value_rejected(self):
        with pytest.raises(StorageError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode_value({"$mystery": 1})

    def test_json_compatible(self):
        payload = encode_value(Period("12/01/82", "forever"))
        assert json.loads(json.dumps(payload)) == payload


class TestSchemas:
    def test_roundtrip_builtins(self):
        schema = Schema.of(key=["name"], name=Domain.STRING,
                           age=Domain.INTEGER)
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_roundtrip_enumeration(self):
        schema = faculty_schema()
        rebuilt = schema_from_dict(schema_to_dict(schema))
        assert rebuilt == schema
        assert rebuilt.attribute("rank").domain.enum_values == (
            "assistant", "associate", "full")

    def test_a_decoded_enumeration_keeps_its_values_in_equality(self):
        narrower = Schema([Attribute("rank", Domain.enumeration(
            "rank", "assistant"))])
        rebuilt = schema_from_dict(schema_to_dict(narrower))
        assert rebuilt == narrower and hash(rebuilt) == hash(narrower)
        assert rebuilt != schema_from_dict(schema_to_dict(Schema([Attribute(
            "rank", Domain.enumeration("rank", "assistant", "full"))])))

    def test_roundtrip_user_defined_time(self):
        schema = Schema([Attribute("effective date",
                                   Domain.user_defined_time("effective date"))])
        rebuilt = schema_from_dict(schema_to_dict(schema))
        assert rebuilt.attribute("effective date").domain.is_user_defined_time

    def test_roundtrip_nullable(self):
        schema = Schema([Attribute("x", Domain.STRING, nullable=True)])
        assert schema_from_dict(schema_to_dict(schema)).attribute("x").nullable


class TestDatabaseDump:
    @pytest.mark.parametrize("db_class,kwargs", [
        (StaticDatabase, {}),
        (RollbackDatabase, {}),
        (HistoricalDatabase, {}),
        (TemporalDatabase, {}),
    ])
    def test_roundtrip_preserves_all_queries(self, db_class, kwargs):
        database, _ = build_faculty(db_class, **kwargs)
        rebuilt = loads_database(dumps_database(database))
        assert rebuilt.kind is database.kind
        assert rebuilt.relation_names() == database.relation_names()
        assert rebuilt.schema("faculty") == database.schema("faculty")
        # Current snapshot always agrees.
        probe = Instant.parse("02/25/84")
        if database.supports_historical_queries:
            assert rebuilt.history("faculty") == database.history("faculty")
        if database.supports_rollback:
            for when in ("12/10/82", "06/01/83", "03/01/84"):
                assert rebuilt.rollback("faculty", when) == \
                    database.rollback("faculty", when), when

    def test_event_flag_survives(self):
        clock = SimulatedClock("01/01/80")
        database = HistoricalDatabase(clock=clock)
        database.define("promotion", Schema.of(name=Domain.STRING),
                        event=True)
        rebuilt = loads_database(dumps_database(database))
        assert rebuilt.is_event_relation("promotion")

    def test_clock_resumes_after_dump(self):
        database, clock = build_faculty(TemporalDatabase)
        rebuilt = loads_database(dumps_database(database))
        # A new commit must be strictly after the last dumped commit.
        when = rebuilt.insert("faculty", {"name": "New", "rank": "full"},
                              valid_from="06/01/84")
        assert when > Instant.parse("02/25/84")

    def test_version_checked(self):
        database, _ = build_faculty(StaticDatabase)
        data = dump_database(database)
        data["version"] = 99
        with pytest.raises(StorageError, match="version"):
            load_database(data)

    def test_unknown_kind_rejected(self):
        database, _ = build_faculty(StaticDatabase)
        data = dump_database(database)
        data["kind"] = "quantum"
        with pytest.raises(StorageError, match="kind"):
            load_database(data)

    #: What a database storing Figure 3's cube dumped: a ``"states"``
    #: store (every state's tuples under its commit time) and the
    #: ``"representation"`` field that named the cube.
    CUBE_DUMP = {
        "clock_last": [722817], "kind": "static rollback",
        "representation": "states", "version": 2,
        "relations": {"r": {
            "schema": {"attributes": [{"domain": {
                "kind": "builtin", "name": "string"}, "name": "name",
                "nullable": False}], "key": []},
            "store": {
                "kind": "states",
                "schema": {"attributes": [{"domain": {
                    "kind": "builtin", "name": "string"}, "name": "name",
                    "nullable": False}], "key": []},
                "states": [
                    [{"$instant": "1980-01-02", "granularity": "day"},
                     [["a"]]],
                    [{"$instant": "1980-01-03", "granularity": "day"},
                     [["a"], ["b"]]]]}}}}

    def test_a_stored_cube_is_refused(self):
        # One rollback representation: a dump of the cube is a typed
        # refusal naming the relation, never a KeyError or a TypeError.
        with pytest.raises(StorageError, match="relation 'r'.*'states'"):
            load_database(json.loads(json.dumps(self.CUBE_DUMP)))

    def test_a_representation_field_is_not_read(self):
        database, _ = build_faculty(RollbackDatabase)
        data = dump_database(database)
        assert "representation" not in data
        rebuilt = load_database(dict(data, representation="interval"))
        assert dump_database(rebuilt) == data

    def test_dump_is_valid_json(self):
        database, _ = build_faculty(TemporalDatabase)
        json.loads(dumps_database(database, indent=2))
