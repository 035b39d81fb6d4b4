"""Property tests: every persistence path is a faithful round trip."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistoricalRelation, TemporalRelation
from repro.core.historical import HistoricalRow
from repro.core.temporal import BitemporalRow
from repro.relational import Attribute, Domain, Relation, Schema, Tuple
from repro.storage import (export_csv, export_historical_csv,
                           export_temporal_csv, import_csv,
                           import_historical_csv, import_temporal_csv)
from repro.storage.serializer import relation_from_dict, store_to_dict
from repro.time import Instant, POS_INF, Period

SCHEMA = Schema([
    Attribute("name", Domain.STRING),
    Attribute("grade", Domain.INTEGER),
    Attribute("nick", Domain.STRING, nullable=True),
])

BASE = Instant.parse("01/01/80").chronon

names = st.sampled_from(["a", "b", "c d", "e,f", 'quo"te'])
grades = st.integers(min_value=-5, max_value=5)
nicks = st.one_of(st.none(), st.sampled_from(["x", "y z", ""]))


@st.composite
def tuples(draw):
    return Tuple(SCHEMA, {"name": draw(names), "grade": draw(grades),
                          "nick": draw(nicks)})


def one_open_each(rows):
    """*rows* as a temporal relation holds them, each fact open once: a
    later open row of a fact already open is left out."""
    opened = set()
    for row in rows:
        if row.tt.end == POS_INF:
            if row[:2] in opened:
                continue
            opened.add(row[:2])
        yield row


@st.composite
def periods(draw):
    start = draw(st.integers(min_value=0, max_value=40))
    if draw(st.booleans()):
        return Period(Instant.from_chronon(BASE + start), POS_INF)
    length = draw(st.integers(min_value=1, max_value=20))
    return Period(Instant.from_chronon(BASE + start),
                  Instant.from_chronon(BASE + start + length))


class TestCsvRoundTrips:
    @given(st.lists(tuples(), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_static_csv(self, rows):
        relation = Relation(SCHEMA, rows)
        buffer = io.StringIO()
        export_csv(relation, buffer)
        buffer.seek(0)
        rebuilt = import_csv(SCHEMA, buffer)
        # Empty-string nicks become nulls on import (CSV cannot tell them
        # apart); everything else round-trips exactly.
        normalized = Relation(SCHEMA, (
            row.replace(nick=None) if row["nick"] == "" else row
            for row in relation))
        assert rebuilt == normalized

    @given(st.lists(st.tuples(tuples(), periods()), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_historical_csv(self, raw):
        relation = HistoricalRelation(
            SCHEMA, (HistoricalRow(data, valid) for data, valid in raw
                     if data["nick"] != ""))
        buffer = io.StringIO()
        export_historical_csv(relation, buffer)
        buffer.seek(0)
        assert import_historical_csv(SCHEMA, buffer) == relation

    @given(st.lists(st.tuples(tuples(), periods(), periods()), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_temporal_csv(self, raw):
        relation = TemporalRelation(SCHEMA, one_open_each(
            BitemporalRow(data, valid, tt)
            for data, valid, tt in raw if data["nick"] != ""))
        buffer = io.StringIO()
        export_temporal_csv(relation, buffer)
        buffer.seek(0)
        assert import_temporal_csv(SCHEMA, buffer) == relation


class TestJsonRoundTrips:
    @given(st.lists(tuples(), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_static_json(self, rows):
        relation = Relation(SCHEMA, rows)
        assert relation_from_dict(store_to_dict(relation)) == relation

    @given(st.lists(st.tuples(tuples(), periods()), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_historical_json(self, raw):
        relation = HistoricalRelation(
            SCHEMA, (HistoricalRow(data, valid) for data, valid in raw))
        assert relation_from_dict(store_to_dict(relation)) == relation

    @given(st.lists(st.tuples(tuples(), periods(), periods()), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_temporal_json(self, raw):
        relation = TemporalRelation(SCHEMA, one_open_each(
            BitemporalRow(data, valid, tt) for data, valid, tt in raw))
        assert relation_from_dict(store_to_dict(relation)) == relation
