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
from repro.errors import StorageError
from repro.relational import Domain, Schema, Tuple
from repro.storage import (CHECKPOINT_TAG, DurabilityManager, audit_directory,
                           frame_record, read_checkpoint_head)
from repro.storage.serializer import (decode_stamp, encode_stamp,
                                      relation_from_dict, store_to_dict)
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
                         {"rank": ("assistant", "associate")[step % 2]},
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
            parse, init = Granularity.parse, Period.__init__
            monkeypatch.setattr(Granularity, "parse",
                                lambda self, literal: parsed.append(literal)
                                or parse(self, literal))
            monkeypatch.setattr(Period, "__init__",
                                lambda self, *args: built.append(1)
                                or init(self, *args))
            recovered, report = DurabilityManager(directory).recover(factory)
            monkeypatch.undo()
            stamps = {stamp for row in live.store("faculty").rows
                      for stamp in row[1:]}
            assert report.records_replayed == 0
            assert parsed == []
            assert 0 < len(built) <= len(stamps)
            assert observations(recovered) == observations(live)


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
                                       hired=Domain.DATE))
    database.insert("staff", {"name": "Merrie",
                              "hired": Instant.parse(HIRED)},
                    valid_from=HIRED)
    older = manager.checkpoint()
    clock.set("01/01/81")
    database.insert("staff", {"name": "Tom", "hired": Instant.parse(HIRED)},
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


DAMAGE = {
    "literal-out-of-the-calendar": a_literal_out_of_the_calendar,
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
