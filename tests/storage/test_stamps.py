"""A stamp is chronons: Figure 8's timestamps on disk.

A row's valid and transaction periods are written as ``[start, end]``
chronon integers, ``null`` for a −∞ start or a +∞ end, a granularity
other than day appended by name (docs/DURABILITY.md "Checkpoints and
history files").  So a restart parses no date and builds one ``Period``
per distinct stamp, whatever the depth of history.  A checkpoint whose
frame verifies but whose rows do not decode is skipped, never trusted:
recovery falls back to an older checkpoint or the journal, and the audit
reports it as a ``checkpoint`` finding.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import RollbackDatabase, TemporalDatabase
from repro.core.historical import HistoricalRelation, HistoricalRow
from repro.core.indexing import IntervalTree
from repro.errors import StorageError
from repro.relational import Attribute, Domain, Schema, Tuple
from repro.replication import state_digest
from repro.storage import (CHECKPOINT_TAG, DurabilityManager, audit_directory,
                           frame_record, read_checkpoint_head, serializer)
from repro.storage.serializer import (decode_stamp, encode_stamp,
                                      relation_from_dict, row_texts,
                                      store_to_dict)
from repro.time import NEG_INF, POS_INF, Granularity, Instant, Period

from tests.conftest import faculty_schema
from tests.storage.probes import observations


@st.composite
def periods(draw):
    """A period at any granularity; either end may be unbounded."""
    unit = draw(st.sampled_from(tuple(Granularity)))
    start = draw(st.one_of(st.none(), st.integers(-10**9, 10**9)))
    length = draw(st.one_of(st.none(), st.integers(1, 10**6)))
    return Period(
        NEG_INF if start is None else Instant.from_chronon(start, unit),
        POS_INF if length is None
        else Instant.from_chronon((start or 0) + length, unit))


class TestCodec:
    def test_the_forms(self):
        day = Instant.parse("12/15/82")
        hour = Instant.parse("1982-12-15 08:00", Granularity.HOUR)
        assert encode_stamp(day, POS_INF) == [day.chronon, None]
        assert encode_stamp(NEG_INF, hour) == [None, hour.chronon, "hour"]
        assert encode_stamp(NEG_INF, POS_INF) == [None, None]

    @given(periods())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_at_every_granularity(self, period):
        stamp = encode_stamp(period.start, period.end)
        assert json.loads(json.dumps(stamp)) == stamp
        assert decode_stamp(stamp) == period
        assert decode_stamp(stamp, {}) == period

    @given(periods(), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_one_period_shared_by_many_rows(self, period, count):
        schema = Schema.of(n=Domain.INTEGER)
        relation = HistoricalRelation(schema, [
            HistoricalRow(Tuple.from_sequence(schema, [n]), period)
            for n in range(count)])
        data = json.loads(json.dumps(store_to_dict(relation)))
        loaded = relation_from_dict(data)
        assert loaded == relation
        assert len({id(row.valid) for row in loaded.rows}) == 1

    @pytest.mark.parametrize("stamp", [
        [True, None], [None, False], [1.0, None], [1, 2.5], ["723000", None],
        [1, 2, "fortnight"], [1, 2, 3], [None, None, ["day"]],
        [1, 2, "day", "day"], [1], [], [5, 5], [6, 5],
        {"$period": [None, None]}, 7, None,
    ], ids=repr)
    def test_anything_else_is_refused(self, stamp):
        with pytest.raises(StorageError):
            decode_stamp(stamp, {})

    @pytest.mark.parametrize("twin", [[True, 5], [1.0, 5], [1, 5.0]],
                             ids=repr)
    def test_a_memo_hit_is_no_way_past_the_types(self, twin):
        # ``True`` and ``1.0`` hash and compare as ``1``.
        memo = {}
        decode_stamp([1, 5], memo)
        with pytest.raises(StorageError):
            decode_stamp(twin, memo)


class TestWrittenFromChronons:
    """A stored row's stamps are written from its periods' chronons: the
    same stamp :func:`encode_stamp` makes from the instants, and the same
    text ``json.dumps`` makes of it."""

    @given(st.lists(periods(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_the_same_stamp_and_text(self, stamps):
        schema = Schema.of(n=Domain.INTEGER)
        rows = [HistoricalRow(Tuple.from_sequence(schema, [n]), period)
                for n, period in enumerate(stamps)]
        encoded = store_to_dict(HistoricalRelation(schema, rows))["rows"]
        assert [row[1] for row in encoded] == [
            encode_stamp(period.start, period.end) for period in stamps]
        assert list(row_texts(rows, {})) == [
            json.dumps(row, sort_keys=True, ensure_ascii=False)
            for row in encoded]


# ---------------------------------------------------------------------------
# What a restart costs: no date parsed, one Period per distinct stamp.
# ---------------------------------------------------------------------------

KEYS = 16


def faculty_store(directory, factory, history):
    """K faculty keys, *history* replaces, then a checkpoint (no tail)."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(factory)
    clock = database.manager.clock.source
    clock.set("01/01/81")
    valid = ({"valid_from": "01/01/80"}
             if database.supports_historical_queries else {})
    database.define("faculty", faculty_schema())
    for key in range(KEYS):
        database.insert("faculty", {"name": f"n{key:02d}", "rank": "full"},
                        **valid)
    for step in range(history):
        clock.set(clock.current() + 1)
        database.replace("faculty", {"name": f"n{step % KEYS:02d}"},
                         {"rank": ("assistant", "associate")[step // KEYS % 2]},
                         **valid)
    manager.checkpoint()
    return database


class TestRestartCost:
    @pytest.mark.parametrize("factory", [TemporalDatabase, RollbackDatabase])
    def test_a_restart_parses_no_date(self, tmp_path, monkeypatch, factory):
        for history in (64, 2048):
            directory = str(tmp_path / f"t{history}")
            live = faculty_store(directory, factory, history)
            parsed, built = [], []
            parse, build = Granularity.parse, Period.from_chronons
            monkeypatch.setattr(Granularity, "parse",
                                lambda self, literal: parsed.append(literal)
                                or parse(self, literal))
            # The constructor a stamp decodes through.
            monkeypatch.setattr(Period, "from_chronons", classmethod(
                lambda cls, *args: built.append(1) or build(*args)))
            recovered, report = DurabilityManager(directory).recover(factory)
            monkeypatch.undo()
            stamps = {stamp for row in live.store("faculty").rows
                      for stamp in row[1:]}
            assert report.records_replayed == 0
            assert parsed == []
            assert 0 < len(built) <= len(stamps)
            assert observations(recovered) == observations(live)

    @pytest.mark.parametrize("factory", [TemporalDatabase, RollbackDatabase])
    def test_a_restart_builds_no_date_and_checks_every_value(
            self, tmp_path, monkeypatch, factory):
        # The decode reads stamps as chronons, and values a column at a
        # time: a column with no tagged value is not decoded value by
        # value.  Every stored value is still checked against its
        # attribute, once.
        for history in (64, 2048):
            directory = str(tmp_path / f"t{history}")
            live = faculty_store(directory, factory, history)
            instants = calls(monkeypatch, Instant, "__init__")
            decoded = calls(monkeypatch, serializer, "decode_value")
            checked = calls(monkeypatch, Attribute, "check")
            recovered, report = DurabilityManager(directory).recover(factory)
            monkeypatch.undo()
            rows = live.store("faculty").rows
            assert len(rows) == KEYS + history
            assert report.records_replayed == 0
            assert len(instants) <= 1  # the clock's position
            assert decoded == []
            assert len(checked) == len(rows) * len(faculty_schema().names)
            assert observations(recovered) == observations(live)

    @pytest.mark.parametrize("factory", [TemporalDatabase, RollbackDatabase])
    def test_a_write_reads_no_date_of_a_loaded_period(
            self, tmp_path, monkeypatch, factory):
        directory = str(tmp_path / "dur")
        faculty_store(directory, factory, 2048)
        recovered, _ = DurabilityManager(directory).recover(factory)
        loaded = {id(period) for row in recovered.store("faculty").rows
                  for period in row[1:]}
        clock = recovered.manager.clock.source
        clock.set(clock.current() + 1)
        valid = ({"valid_from": "01/01/80"}
                 if recovered.supports_historical_queries else {})
        read = []
        for name in ("start", "end"):
            real = getattr(Period, name)
            monkeypatch.setattr(Period, name, property(
                lambda self, real=real: read.append(id(self))
                or real.fget(self)))
        recovered.replace("faculty", {"name": "n00"}, {"rank": "full"},
                          **valid)
        monkeypatch.undo()
        assert loaded.isdisjoint(read)
        assert len(recovered.store("faculty").rows) == KEYS + 2048 + 1


def calls(monkeypatch, owner, name):
    """The arguments of every call of ``owner.name`` from now on."""
    made = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: made.append(args)
                        or real(*args, **kwargs))
    return made


# ---------------------------------------------------------------------------
# What reads a stamp: chronons, never an Instant.
# ---------------------------------------------------------------------------

def instant_reads(monkeypatch):
    """Every ``Instant.is_finite`` / ``Instant.chronon`` read from now on."""
    reads = []
    for name in ("is_finite", "chronon"):
        real = getattr(Instant, name)
        monkeypatch.setattr(Instant, name, property(
            lambda self, real=real, name=name: reads.append(name)
            or real.fget(self)))
    return reads


@pytest.fixture(scope="module", params=[TemporalDatabase, RollbackDatabase],
                ids=lambda factory: factory.__name__)
def deep_store(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(request.param.__name__))
    return faculty_store(directory, request.param, 2048)


class TestNoInstantIsRead:
    def test_an_uncached_digest(self, deep_store, monkeypatch):
        reads = instant_reads(monkeypatch)
        state_digest(deep_store, cache=False)
        assert reads == []

    def test_an_interval_tree(self, deep_store, monkeypatch):
        rows = deep_store.store("faculty").rows
        reads = instant_reads(monkeypatch)
        trees = [IntervalTree((row.tt, row) for row in rows)]
        if deep_store.supports_historical_queries:
            trees.append(IntervalTree((row.valid, row.data) for row in rows))
        assert reads == []
        assert all(len(tree) == len(rows) for tree in trees)


# ---------------------------------------------------------------------------
# A checkpoint whose frame verifies but whose rows do not decode.
# ---------------------------------------------------------------------------

HIRED = "1970-01-01"


def staffed(directory):
    """Two checkpoints — the newer one is the one damaged — and a tail."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(TemporalDatabase)
    clock = database.manager.clock.source
    clock.set("01/01/80")
    database.define("staff", Schema.of(key=["name"], name=Domain.STRING,
                                       hired=Domain.DATE,
                                       salary=Domain.INTEGER))
    database.insert("staff", {"name": "Merrie", "salary": 25000,
                              "hired": Instant.parse(HIRED)},
                    valid_from=HIRED)
    older = manager.checkpoint()
    clock.set("01/01/81")
    database.insert("staff", {"name": "Tom", "salary": 23000,
                              "hired": Instant.parse(HIRED)},
                    valid_from=HIRED)
    newer = manager.checkpoint()
    clock.set("01/01/82")
    database.replace("staff", {"name": "Tom"},
                     {"hired": Instant.parse("1971-01-01")},
                     valid_from="01/01/82")
    return database, older, newer


def a_literal_out_of_the_calendar(head):
    """A date literal of the checkpoint's own rows, rewritten."""
    text = json.dumps(head)
    assert f'"{HIRED}"' in text
    return json.loads(text.replace(f'"{HIRED}"', '"1970-13-45"', 1))


def valid_stamp(change):
    """The first open row's valid stamp ``[s, null]``, rewritten."""
    def rewrite(head):
        row = head["database"]["relations"]["staff"]["store"]["rows"][0]
        row[1] = change(row[1][0])
        return head
    return rewrite


def open_values(change):
    """The first open row's values ``[name, hired, salary]``, rewritten."""
    def rewrite(head):
        row = head["database"]["relations"]["staff"]["store"]["rows"][0]
        row[0] = change(row[0])
        return head
    return rewrite


DAMAGE = {
    "literal-out-of-the-calendar": a_literal_out_of_the_calendar,
    "string-salary": open_values(lambda values: values[:2] + [
        str(values[2])]),
    "null-name": open_values(lambda values: [None] + values[1:]),
    "short-row": open_values(lambda values: values[:2]),
    "bool-chronon": valid_stamp(lambda start: [True, None]),
    "float-chronon": valid_stamp(lambda start: [float(start), None]),
    "unknown-unit": valid_stamp(lambda start: [start, None, "fortnight"]),
    "start-not-before-end": valid_stamp(lambda start: [start, start]),
}


class TestUndecodableCheckpoint:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_is_skipped_and_reported(self, tmp_path, damage):
        directory = str(tmp_path / "dur")
        live, older, newer = staffed(directory)
        head = DAMAGE[damage](read_checkpoint_head(newer))
        with open(newer, "w") as handle:
            handle.write(frame_record(head, tag=CHECKPOINT_TAG) + "\n")
        read_checkpoint_head(newer)  # the frame still verifies
        with obs.recording() as instrumentation:
            recovered, report = DurabilityManager(directory).recover(
                TemporalDatabase)
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["recovery.checkpoints_skipped"] == 1
        assert report.checkpoints_skipped == 1
        assert report.checkpoint_index == read_checkpoint_head(
            older)["commit_index"]
        assert observations(recovered, "staff") == observations(live, "staff")
        assert [(finding.kind, finding.file)
                for finding in audit_directory(directory).findings] == [
            ("checkpoint", os.path.basename(newer))]
