"""The row-text kernel against ``json.dumps``: every store shape, both
separators, every kind of value and stamp.

:func:`repro.storage.serializer.write_texts` writes a batch of stored
rows a column at a time (a column of ``str`` or ``int`` at C speed, a
stamp column from its periods' chronons, one ``%`` per row).  Its texts
must be, byte for byte, what ``json.dumps(..., sort_keys=True,
ensure_ascii=False, separators=...)`` makes of the plain dump of the
same rows, each stamp written from its period's instants: the digest
hashes them, checkpoint and history files are made of them, and a plain
dump is them read back.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.historical import HistoricalRow
from repro.core.rollback import TransactionTimeRow
from repro.core.temporal import BitemporalRow
from repro.relational import Attribute, Domain, Schema, Tuple
from repro.relational.relation import Relation
from repro.storage.serializer import (COMPACT, SPACED, encode_stamp,
                                      encode_value, store_to_dict,
                                      write_texts)
from repro.time import NEG_INF, POS_INF, Granularity, Instant, Period

#: Stamp units: day (written as chronons alone), hour and month (named).
UNITS = (Granularity.DAY, Granularity.HOUR, Granularity.MONTH)


@st.composite
def periods(draw, units=UNITS):
    """A period whose either end may be unbounded (a finite end is a date
    the calendar can write: a period value's ends are formatted)."""
    unit = draw(st.sampled_from(units))
    start = Instant.parse("1980-01-01", unit).chronon + draw(
        st.integers(-500, 500))
    lo = draw(st.sampled_from((-math.inf, start)))
    return Period.from_chronons(lo, start + draw(st.one_of(
        st.just(math.inf), st.integers(1, 500))), unit)


#: Every kind of value an attribute may hold.
STRINGS = st.text(alphabet=st.sampled_from('ab"\\\n\t/é中 \x00 '),
                  max_size=6)
INSTANTS = st.one_of(
    st.sampled_from((NEG_INF, POS_INF)),
    st.builds(lambda unit, offset: Instant.parse("1980-01-01", unit) + offset,
              st.sampled_from(UNITS), st.integers(-500, 500)))
VALUES = st.one_of(STRINGS, st.integers(-2**70, 2**70), st.booleans(),
                   st.floats(), st.none(), INSTANTS, periods())

#: A column is all ``str``, all ``int`` (the kernel's C-speed columns) or
#: of any values at all.
COLUMNS = st.sampled_from((STRINGS, st.integers(-2**70, 2**70), VALUES))


@st.composite
def tuples(draw):
    """Tuples of one schema, 1–4 attributes wide (values unchecked: the
    kernel writes what a store holds, whatever its domain)."""
    columns = draw(st.lists(COLUMNS, min_size=1, max_size=4))
    schema = Schema([Attribute(f"a{index}", Domain.ANY, nullable=True)
                     for index in range(len(columns))])
    return [Tuple.from_checked(schema, tuple(draw(column)
                                             for column in columns))
            for _ in range(draw(st.integers(0, 6)))]


#: Each stored item laid out as a dump holds it: a timestamped row's
#: values, then each stamp from its period's *instants*
#: (:func:`~repro.storage.serializer.encode_stamp`); a static tuple's
#: values.
SHAPES = {
    "rows": lambda row: [row[0].values, *(encode_stamp(period.start,
                                                       period.end)
                                          for period in row[1:])],
    "tuples": lambda row: row.values,
}


def json_texts(items, field, separators):
    """Each item as ``json.dumps`` writes its dump form."""
    return [json.dumps(SHAPES[field](item), default=encode_value,
                       sort_keys=True, ensure_ascii=False,
                       separators=separators) for item in items]


SEPARATORS = st.sampled_from((SPACED, COMPACT))


class TestTheKernelIsJsonDumps:
    @given(tuples(), st.data(), SEPARATORS,
           st.sampled_from((HistoricalRow, TransactionTimeRow,
                            BitemporalRow)))
    @settings(max_examples=300, deadline=None)
    def test_timestamped_rows(self, rows, data, separators, row_type):
        width = len(row_type._fields) - 1
        rows = [row_type(row, *(data.draw(periods()) for _ in range(width)))
                for row in rows]
        assert write_texts(rows, "rows", {}, separators) == json_texts(
            rows, "rows", separators)

    @given(tuples(), SEPARATORS)
    @settings(max_examples=200, deadline=None)
    def test_static_tuples(self, rows, separators):
        assert write_texts(rows, "tuples", {}, separators) == json_texts(
            rows, "tuples", separators)

    @given(tuples())
    @settings(max_examples=100, deadline=None)
    def test_a_plain_dump_is_the_texts_read_back(self, rows):
        relation = Relation(rows[0].schema, rows) if rows else None
        if relation is not None:
            dumped = store_to_dict(relation)["tuples"]
            assert json_texts(relation, "tuples", COMPACT) == [
                json.dumps(item, sort_keys=True, ensure_ascii=False,
                           separators=COMPACT) for item in dumped]

    @given(st.lists(periods(), min_size=1, max_size=8), SEPARATORS)
    @settings(max_examples=200, deadline=None)
    def test_a_stamp_column_of_mixed_units(self, stamps, separators):
        """Day, hour and month stamps in one column, and the unbounded
        ``[-inf, inf)`` whose unit is none."""
        stamps.append(Period.from_chronons(-math.inf, math.inf, None))
        schema = Schema.of(n=Domain.INTEGER)
        rows = [HistoricalRow(Tuple.from_checked(schema, (n,)), period)
                for n, period in enumerate(stamps)]
        assert write_texts(rows, "rows", {}, separators) == json_texts(
            rows, "rows", separators)

    def test_one_memo_formats_each_instant_once(self, monkeypatch):
        day = Instant.from_chronon(730000, Granularity.DAY)
        schema = Schema.of(at=Domain.DATE)
        rows = [Tuple.from_checked(schema, (day,)) for _ in range(5)]
        calls = []
        real = Granularity.format
        monkeypatch.setattr(Granularity, "format",
                            lambda self, chronon: calls.append(1)
                            or real(self, chronon))
        memo = {}
        write_texts(rows, "tuples", memo, SPACED)
        write_texts(rows, "tuples", memo, SPACED)
        assert len(calls) == 1
