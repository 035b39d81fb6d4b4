"""Result rows on the ``s1`` wire: the round-trip law and its failures.

A served result must be the in-process result: the same values and the
same periods (``lo``, ``hi``, ``unit``) on all four database kinds, at
any granularity, with either end unbounded, however many frames the
reply spans.  A row's stamps cross the wire as the chronon pairs a
checkpoint writes; attribute values keep the tagged form, so a DATE
value is an ``$instant`` object.  A reply whose rows do not decode is a
:class:`~repro.errors.ProtocolError`, and the client closes that
connection instead of returning it to the pool.
"""

import asyncio
import datetime
import math
import types
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import ReproClient
from repro.concurrency.retry import RetryPolicy
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import ProtocolError
from repro.relational import Attribute, Domain, Schema, Tuple
from repro.server import open_pipe, protocol
from repro.time import NEG_INF, POS_INF, Granularity, Instant, Period
from repro.tquel import Session

KINDS = (StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase)
UNITS = (Granularity.DAY, Granularity.HOUR, Granularity.MONTH)
SCHEMA = Schema([Attribute("name", Domain.STRING),
                 Attribute("salary", Domain.INTEGER),
                 Attribute("hired", Domain.DATE, nullable=True)],
                key=["name"])


class Stamped(NamedTuple):
    """A result row carrying both stamps."""

    data: Tuple
    valid: Period
    transaction: Period


def served(result: Any, chunk_rows: int):
    """*result* as the client reads it: encoded, framed in chunks of
    *chunk_rows*, each frame parsed and decoded on its own."""
    columns, wire = protocol.rows_to_wire(result)
    rows = []
    for seq, start in enumerate(range(0, len(wire), chunk_rows)):
        line = protocol.rows_reply(1, seq, wire[start:start + chunk_rows],
                                   columns=columns if seq == 0 else None)
        rows.extend(protocol.rows_from_wire(
            protocol.decode_message(line)["rows"]))
    return columns, wire, rows


def same_period(decoded: Period, expected: Period) -> bool:
    return ((decoded.lo, decoded.hi, decoded.unit)
            == (expected.lo, expected.hi, expected.unit)
            and decoded == expected)


def assert_same_rows(decoded, in_process):
    assert len(decoded) == len(in_process)
    for row, original in zip(decoded, in_process):
        data = getattr(original, "data", original)
        assert row["values"] == dict(zip(data.schema.names, data.values))
        for field in ("valid", "transaction"):
            period = getattr(original, field, None)
            assert (field in row) == (period is not None)
            if period is not None:
                assert same_period(row[field], period)


def rows_of(result):
    rows = getattr(result, "rows", None)
    return list(rows if rows is not None else result)


@st.composite
def dates(draw):
    """A DATE value at any of :data:`UNITS`."""
    unit = draw(st.sampled_from(UNITS))
    when = draw(st.datetimes(datetime.datetime(1900, 1, 1),
                             datetime.datetime(2100, 1, 1)))
    return Instant.from_chronon(unit.from_datetime(when), unit)


@st.composite
def facts(draw):
    """Rows for one relation: distinct names, a DATE value at any unit
    (or null), and valid ends at one unit per relation."""
    unit = draw(st.sampled_from(UNITS))
    count = draw(st.integers(0, 7))
    rows = []
    for index in range(count):
        hired = draw(st.one_of(st.none(), dates()))
        start = draw(st.integers(0, 10_000))
        length = draw(st.one_of(st.none(), st.integers(1, 500)))
        rows.append((f"n{index}", draw(st.integers(-10**6, 10**6)), hired,
                     start, length))
    return unit, rows


@st.composite
def periods(draw):
    """A period at any of :data:`UNITS`; either end may be unbounded."""
    unit = draw(st.sampled_from(UNITS))
    start = draw(st.one_of(st.none(), st.integers(0, 10**4)))
    length = draw(st.one_of(st.none(), st.integers(1, 10**3)))
    base = valid_base(unit)
    return Period(
        NEG_INF if start is None else Instant.from_chronon(base + start, unit),
        POS_INF if length is None
        else Instant.from_chronon(base + (start or 0) + length, unit))


def valid_base(unit: Granularity) -> int:
    """The chronon of 1980-01-01 at *unit*: every drawn end is a date."""
    return unit.from_datetime(datetime.datetime(1980, 1, 1))


def load(kind, rows, unit):
    """A *kind* database holding *rows* (see :func:`facts`)."""
    database = kind()
    database.define("faculty", SCHEMA)
    base = valid_base(unit)
    for name, salary, hired, start, length in rows:
        values = {"name": name, "salary": salary, "hired": hired}
        if database.kind.supports_historical_queries:
            end = None if length is None else Instant.from_chronon(
                base + start + length, unit)
            database.insert("faculty", values, valid_to=end,
                            valid_from=Instant.from_chronon(base + start,
                                                            unit))
        else:
            database.insert("faculty", values)
    return Session(database, ranges={"f": "faculty"})


class TestTheLaw:
    @given(st.sampled_from(KINDS), facts(), st.sampled_from([2, 64]))
    @settings(max_examples=120, deadline=None)
    def test_served_rows_equal_the_in_process_rows(self, kind, drawn,
                                                   chunk_rows):
        unit, rows = drawn
        result = load(kind, rows, unit).execute(
            "retrieve (f.name, f.salary, f.hired)")
        columns, wire, decoded = served(result, chunk_rows)
        assert columns == ["name", "salary", "hired"]
        assert_same_rows(decoded, rows_of(result))
        for entry in wire:
            hired = entry["values"]["hired"]
            assert hired is None or "$instant" in hired
            if "valid" in entry:
                assert entry["valid"][2:] == (
                    [] if unit is Granularity.DAY else [unit.value])

    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), periods(),
                              periods()), max_size=9),
           st.sampled_from([2, 64]))
    @settings(max_examples=150, deadline=None)
    def test_both_stamps_at_any_unit_and_either_end_unbounded(
            self, drawn, chunk_rows):
        schema = Schema.of(n=Domain.INTEGER)
        rows = [Stamped(Tuple.from_sequence(schema, [n]), valid, transaction)
                for n, valid, transaction in drawn]
        result = types.SimpleNamespace(schema=schema, rows=rows)
        _, wire, decoded = served(result, chunk_rows)
        assert_same_rows(decoded, rows)
        for entry, row in zip(wire, rows):
            lo, hi = row.transaction.lo, row.transaction.hi
            assert entry["transaction"][:2] == [
                None if lo == -math.inf else lo,
                None if hi == math.inf else hi]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_an_empty_result(self, kind):
        session = load(kind, [("n0", 1, None, 0, None)], Granularity.DAY)
        result = session.execute(
            'retrieve (f.name, f.hired) where f.name = "nobody"')
        assert served(result, 2) == (["name", "hired"], [], [])

    def test_a_date_value_stays_tagged_and_a_stamp_is_chronons(self):
        hired = Instant.parse("1981-03-01", Granularity.MONTH)
        session = load(HistoricalDatabase, [("n0", 1, hired, 24, 3)],
                       Granularity.HOUR)
        (entry,) = protocol.rows_to_wire(
            session.execute("retrieve (f.name, f.hired)"))[1]
        start = valid_base(Granularity.HOUR) + 24
        assert entry == {
            "values": {"name": "n0",
                       "hired": {"$instant": "1981-03",
                                 "granularity": "month"}},
            "valid": [start, start + 3, "hour"]}


GOOD = {"values": {"n": 1, "d": None}, "valid": [723000, None]}
UNDECODABLE = {
    "a row that is not an object": ([1, 2], "not an object"),
    "a row with no values": ({"valid": [1, 5]}, "'values'"),
    "a stamp that is an object": (
        {"values": {"n": 1}, "valid": {"$period": 5}}, "'valid'"),
    "a tagged period stamp": (
        {"values": {"n": 1}, "valid": {"$period": [
            {"$instant": "1982-12-05", "granularity": "day"},
            {"$instant": "inf"}]}}, "'valid'"),
    "a bool chronon": ({"values": {"n": 1}, "valid": [True, 5]}, "'valid'"),
    "a start not before its end": (
        {"values": {"n": 1}, "transaction": [5, 5]}, "'transaction'"),
    "a bad instant literal": (
        {"values": {"d": {"$instant": "1982-13-45", "granularity": "day"}}},
        "'values'"),
    "an unknown tag": ({"values": {"d": {"$money": 5}}}, "'values'"),
}


class TestUndecodableRows:
    """A CRC-valid ``rows`` frame whose rows do not decode: the query
    raises :class:`ProtocolError`, and the connection is closed, not
    checked back into the pool with its ``done`` frame unread."""

    @staticmethod
    def stub(replies, served):
        """A connector to a stub server answering each request with the
        next of *replies* (a ``rows`` payload) and a ``done`` frame."""
        async def serve(server_end):
            while True:
                line = await server_end.readline()
                if not line:
                    return
                request_id = protocol.parse_request(line)["id"]
                rows = replies.pop(0)
                server_end.write(
                    protocol.encode_message({"type": "rows", "id": request_id,
                                             "seq": 0, "rows": rows})
                    + protocol.done_reply(request_id, row_count=len(rows)
                                          if type(rows) is list else 0,
                                          chunks=1))

        async def connector(endpoint):
            client_end, server_end = open_pipe(name=endpoint)
            served.append(asyncio.ensure_future(serve(server_end)))
            return client_end, client_end
        return connector

    @pytest.mark.parametrize("case", UNDECODABLE)
    def test_a_typed_error_and_a_closed_connection(self, case):
        bad_row, field = UNDECODABLE[case]

        async def scenario():
            served = []
            client = ReproClient(
                ["stub"], connector=self.stub([[GOOD, bad_row], [GOOD]],
                                              served),
                retry=RetryPolicy(base_delay=0.001, seed=5))
            with pytest.raises(ProtocolError) as caught:
                await client.query("retrieve (f.n)", budget_ms=5000.0)
            assert "wire row 1" in str(caught.value)
            assert field in str(caught.value)
            assert client._pool == {"stub": []}
            async with asyncio.timeout(2.0):
                await served[0]  # the client hung up on the stub
            # The next query reads its own reply on a fresh connection.
            result = await client.query("retrieve (f.n)", budget_ms=5000.0)
            assert result.rows[0]["values"] == {"n": 1, "d": None}
            assert client.stats["connects"] == 2
            await client.close()
        asyncio.run(scenario())

    def test_rows_that_are_not_a_list(self):
        async def scenario():
            served = []
            client = ReproClient(["stub"],
                                 connector=self.stub([{"n": 1}], served))
            with pytest.raises(ProtocolError, match="not a list"):
                await client.query("retrieve (f.n)", budget_ms=5000.0)
            assert client._pool == {"stub": []}
        asyncio.run(scenario())
