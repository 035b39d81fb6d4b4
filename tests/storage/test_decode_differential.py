"""A load decodes a column at a time, and means what the row-at-a-time
decode meant.

``serializer.relation_from_dict`` checks each stored row's shape, decodes
only the attribute columns that hold a tagged value, checks every value
against its attribute one column at a time, and builds one period per
distinct stamp from a column whose stamps are all plain chronon pairs.
The row-at-a-time decode it replaced is kept as the oracle
(``tests/storage/decode_oracle.py``).  On every input, well formed or
not, both must give the same rows in the same order, with the same
tuple hashes and period units, or raise the same exception class.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, SchemaError, StorageError
from repro.relational import Attribute, Domain, Relation, Schema, Tuple
from repro.storage.checkpoint import load_payload
from repro.storage.serializer import (encode_value, relation_from_dict,
                                      schema_to_dict)
from repro.time import NEG_INF, POS_INF, Granularity, Instant, Period

from tests.storage import decode_oracle

SCHEMA = Schema([Attribute("name", Domain.STRING),
                 Attribute("n", Domain.INTEGER, nullable=True),
                 Attribute("hired", Domain.DATE)], key=["name"])
UNITS = (Granularity.DAY, Granularity.HOUR, Granularity.MONTH)
#: How many stamps a row of each row-stamped kind carries.
STAMPS = {"historical": 1, "rollback": 1, "temporal": 2}


@st.composite
def stamps(draw):
    """A stamp as a checkpoint writes it: ``[start, end]`` chronons,
    ``null`` for an infinity, a unit other than day appended."""
    unit = draw(st.sampled_from(UNITS))
    start = draw(st.one_of(st.none(), st.integers(0, 30)))
    length = draw(st.one_of(st.none(), st.integers(1, 5)))
    stamp = [start, None if length is None else (start or 0) + length]
    return stamp if unit is Granularity.DAY else stamp + [unit.value]


@st.composite
def values(draw):
    """One tuple's stored values: a DATE is a tagged instant."""
    unit = draw(st.sampled_from(UNITS))
    hired = draw(st.one_of(
        st.integers(600, 800).map(lambda chronon: Instant(chronon, unit)),
        st.sampled_from([NEG_INF, POS_INF])))
    return [draw(st.sampled_from("abcd")),
            draw(st.one_of(st.none(), st.integers(-5, 5))),
            encode_value(hired)]


#: One fault in one row's values (the row's width is 3).
VALUE_FAULTS = {
    "short": lambda row: row[:2],
    "long": lambda row: row + [1],
    "string-in-integer": lambda row: [row[0], "7", row[2]],
    "integer-in-string": lambda row: [7] + row[1:],
    "bool-in-integer": lambda row: [row[0], True, row[2]],
    "float-in-integer": lambda row: [row[0], 1.5, row[2]],
    "null-in-non-nullable": lambda row: [None] + row[1:],
    "untagged-object": lambda row: row[:2] + [{"x": 1}],
    "literal-out-of-the-calendar": lambda row: row[:2] + [
        {"$instant": "1970-13-45", "granularity": "day"}],
    "unknown-granularity": lambda row: row[:2] + [
        {"$instant": "1970-01-01", "granularity": "fortnight"}],
    "values-an-object": lambda row: dict(zip(("name", "n", "hired"), row)),
    "values-a-string": lambda row: "abc",
    "values-null": lambda row: None,
}

#: One fault in one row's stamp.
STAMP_FAULTS = {
    "bool-chronon": lambda stamp: [True, None],
    "false-chronon": lambda stamp: [None, False],
    "float-chronon": lambda stamp: [1.0, None],
    "string-chronon": lambda stamp: ["723000", None],
    "unknown-unit": lambda stamp: [1, 2, "fortnight"],
    "one-chronon": lambda stamp: [1],
    "three-chronons": lambda stamp: [1, 2, 3],
    "empty-period": lambda stamp: [5, 5],
    "reversed-period": lambda stamp: [6, 5],
    "null": lambda stamp: None,
    "object": lambda stamp: {"$period": [None, None]},
}


@st.composite
def stores(draw):
    """A stored relation of any shape, perhaps with one fault."""
    kind = draw(st.sampled_from(["static", *STAMPS]))
    pool = draw(st.lists(stamps(), min_size=1, max_size=4))
    pool.append([None, None])

    def row():
        return [draw(values()), *[draw(st.sampled_from(pool))
                                  for _ in range(STAMPS.get(kind, 0))]]

    rows = draw(st.lists(st.builds(row), max_size=8))
    fault = draw(st.one_of(st.none(), st.sampled_from(
        [*VALUE_FAULTS, *(STAMP_FAULTS if kind in STAMPS else ())])))
    if fault is not None and rows:
        target = rows[draw(st.integers(0, len(rows) - 1))]
        if fault in VALUE_FAULTS:
            target[0] = VALUE_FAULTS[fault](target[0])
        else:
            at = draw(st.integers(1, len(target) - 1))
            target[at] = STAMP_FAULTS[fault](target[at])
    data = {"kind": kind, "schema": schema_to_dict(SCHEMA)}
    if kind == "static":
        data["tuples"] = [values for values, in rows]
    else:
        data["rows"] = rows
    return json.loads(json.dumps(data))


def seen(part):
    """What a decoded row part is, to the last bit a reader can tell."""
    if isinstance(part, Tuple):
        return ("tuple", part.values, hash(part),
                [getattr(value, "granularity", None) for value in part.values])
    if isinstance(part, Period):
        return ("period", part.lo, part.hi, part.unit)
    return part


def outcome(decode, data):
    """The rows *decode* builds from *data*, in order, or its exception's
    class."""
    try:
        store = decode(copy.deepcopy(data), {})
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    if isinstance(store, Relation):
        return [seen(row) for row in store]
    return [(type(row), [seen(part) for part in row]) for row in store.rows]


class TestTheColumnDecodeIsTheRowDecode:
    @given(stores())
    @settings(max_examples=600, deadline=None)
    def test_same_rows_or_same_refusal(self, data):
        assert (outcome(relation_from_dict, data)
                == outcome(decode_oracle.relation_from_dict, data))

    @pytest.mark.parametrize("kind", sorted(STAMPS))
    def test_one_period_per_distinct_stamp(self, kind):
        stamp = [[3, None], [3, 9, "hour"]][kind == "rollback"]
        rows = [[["abcd"[n], n, encode_value(POS_INF)],
                 *[list(stamp)] * STAMPS[kind]] for n in range(4)]
        store = relation_from_dict({"kind": kind, "rows": rows,
                                    "schema": schema_to_dict(SCHEMA)})
        assert len({id(part) for row in store.rows
                    for part in row[1:]}) == 1


class TestValuesThatAreNotAList:
    """Stored values that are not a list used to decode silently: the old
    decode iterated them, so a dict became its keys and a string its
    characters."""

    SCHEMA = Schema.of(a=Domain.STRING, b=Domain.STRING)

    def store(self, kind, rows):
        field = {"static": "tuples"}.get(kind, "rows")
        return {"kind": kind, "schema": schema_to_dict(self.SCHEMA),
                field: rows}

    def test_an_object_is_refused(self):
        with pytest.raises(StorageError):
            relation_from_dict(self.store(
                "rollback", [[{"a": "x", "b": "y"}, [1, None]]]))

    def test_a_string_is_refused(self):
        with pytest.raises(StorageError):
            relation_from_dict(self.store("static", ["xy"]))

    def test_a_list_of_the_wrong_width_is_refused(self):
        with pytest.raises(SchemaError):
            relation_from_dict(self.store("static", [["x"]]))

    @pytest.mark.parametrize("row", [[["x", "y"]], [["x", "y"], [1, None],
                                                    [2, None]],
                                     ["xy", [1, None]]], ids=repr)
    def test_a_row_of_the_wrong_shape_is_refused(self, row):
        with pytest.raises(StorageError):
            relation_from_dict(self.store("rollback", [row]))

    def test_a_checkpoint_holding_one_does_not_load(self):
        payload = {"version": 2, "kind": "static", "clock_last": None,
                   "representation": None, "relations": {"r": {
                       "schema": schema_to_dict(self.SCHEMA),
                       "store": self.store("static", ["xy"])}}}
        with pytest.raises(CheckpointError):
            load_payload("checkpoint-1.ckpt", payload)
