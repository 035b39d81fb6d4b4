"""Unit tests for time-varying aggregation (history_series) and
transaction-time range queries (rollback_range / visible_during)."""

import pytest

from repro.core import (HistoricalDatabase, HistoricalRelation,
                        RollbackDatabase, TemporalDatabase, history_series)
from repro.core.historical import HistoricalRow
from repro.relational import Domain, Schema, Tuple
from repro.relational.aggregate import agg_avg, agg_sum, count
from repro.time import Instant, Period, SimulatedClock

from tests.conftest import build_faculty
from tests.core.snapshot_model import SnapshotModel


class TestHistorySeries:
    def test_faculty_headcount_trend(self, historical_faculty):
        # §4.1's motivating query, in closed form.
        database, _ = historical_faculty
        series = history_series(database.history("faculty"), [count()])
        steps = sorted(((str(row.valid), row.data["count"])
                        for row in series.rows))
        assert steps == [
            ("[1977-09-01, 1982-12-05)", 1),
            ("[1982-12-05, 1983-01-01)", 2),
            ("[1983-01-01, 1984-03-01)", 3),
            ("[1984-03-01, ∞)", 2),
        ]

    def test_agrees_with_timeslice_at_every_probe(self, historical_faculty):
        database, _ = historical_faculty
        history = database.history("faculty")
        series = history_series(history, [count()])
        for probe in ("08/31/77", "09/01/77", "12/05/82", "06/01/83",
                      "03/01/84", "01/01/99"):
            when = Instant.parse(probe)
            expected = history.timeslice(when).cardinality
            slice_rows = series.timeslice(when)
            if slice_rows.is_empty:
                assert expected == 0  # outside the series span
            else:
                assert slice_rows.column("count") == [expected], probe

    def test_grouped_series(self, historical_faculty):
        database, _ = historical_faculty
        series = history_series(database.history("faculty"), [count()],
                                by=["rank"])
        # During [12/05/82, 01/01/83): one full (Merrie), one associate (Tom).
        probe = series.timeslice("12/10/82")
        by_rank = {row["rank"]: row["count"] for row in probe}
        assert by_rank == {"full": 1, "associate": 1}

    def test_numeric_aggregates(self):
        clock = SimulatedClock("01/01/80")
        database = HistoricalDatabase(clock=clock)
        database.define("pay", Schema.of(key=["who"], who=Domain.STRING,
                                         salary=Domain.INTEGER))
        database.insert("pay", {"who": "a", "salary": 100},
                        valid_from="01/01/80")
        database.insert("pay", {"who": "b", "salary": 300},
                        valid_from="01/01/81")
        series = history_series(database.history("pay"),
                                [agg_sum("salary"), agg_avg("salary")])
        assert series.timeslice("06/01/80").to_dicts() == [
            {"sum_salary": 100, "avg_salary": 100.0}]
        assert series.timeslice("06/01/81").to_dicts() == [
            {"sum_salary": 400, "avg_salary": 200.0}]

    def test_gap_reports_zero_count(self):
        clock = SimulatedClock("01/01/80")
        database = HistoricalDatabase(clock=clock)
        database.define("r", Schema.of(x=Domain.STRING))
        database.insert("r", {"x": "a"}, valid_from="01/01/80",
                        valid_to="01/01/81")
        database.insert("r", {"x": "b"}, valid_from="01/01/82",
                        valid_to="01/01/83")
        series = history_series(database.history("r"), [count()])
        assert series.timeslice("06/01/81").column("count") == [0]

    def test_empty_relation(self):
        schema = Schema.of(x=Domain.STRING)
        series = history_series(HistoricalRelation(schema), [count()])
        assert series.is_empty

    def test_result_is_coalesced_and_stepwise(self, historical_faculty):
        database, _ = historical_faculty
        series = history_series(database.history("faculty"), [count()])
        rows = sorted(series.rows, key=lambda row: row.valid)
        for left, right in zip(rows, rows[1:]):
            # Maximal intervals: adjacent rows must differ in value.
            if left.valid.end == right.valid.start:
                assert left.data != right.data

    def test_result_composes_historically(self, historical_faculty):
        # The series is itself a historical relation: further selection and
        # timeslicing work on it.
        database, _ = historical_faculty
        from repro.relational import attr
        series = history_series(database.history("faculty"), [count()])
        busy = series.select(attr("count") >= 3)
        assert [str(row.valid) for row in busy.rows] == [
            "[1983-01-01, 1984-03-01)"]


class TestRollbackRange:
    def test_union_of_states(self, rollback_faculty):
        database, _ = rollback_faculty
        ranged = database.rollback_range("faculty", "12/02/82", "12/20/82")
        assert {(row["name"], row["rank"]) for row in ranged} == {
            ("Merrie", "associate"), ("Merrie", "full"),
            ("Tom", "full"), ("Tom", "associate"),
        }

    def test_single_instant_range_equals_rollback(self, rollback_faculty):
        database, _ = rollback_faculty
        assert database.rollback_range("faculty", "12/10/82", "12/10/82") \
            == database.rollback("faculty", "12/10/82")

    def test_representations_agree(self, rollback_faculty):
        # The union of Figure 3's states over the range, the states built
        # by the snapshot model: the one in force at the range's start
        # and every one committed after it, up to its end.
        interval_db, _ = rollback_faculty
        model, _ = build_faculty(SnapshotModel)
        for bounds in (("12/02/82", "12/20/82"), ("01/01/77", "01/01/85"),
                       ("06/01/83", "06/01/83")):
            start, end = map(Instant.parse, bounds)
            union = set(model.state_at("faculty", start)).union(*(
                state for when, state in model.states("faculty")
                if start < when <= end))
            assert set(interval_db.rollback_range("faculty", *bounds)) == \
                union, bounds

    def test_range_before_history_is_empty(self, rollback_faculty):
        database, _ = rollback_faculty
        assert database.rollback_range("faculty", "01/01/70",
                                       "01/01/71").is_empty

    def test_temporal_range_keeps_both_axes(self, temporal_faculty):
        database, _ = temporal_faculty
        ranged = database.rollback_range("faculty", "12/02/82", "12/20/82")
        tom_rows = [(row.data["rank"], row.tt.start.paper_format())
                    for row in ranged.rows if row.data["name"] == "Tom"]
        assert sorted(tom_rows) == [("associate", "12/07/82"),
                                    ("full", "12/01/82")]

    def test_static_database_rejects_range(self, static_faculty):
        from repro.errors import RollbackNotSupportedError
        database, _ = static_faculty
        with pytest.raises(RollbackNotSupportedError, match="static"):
            database.rollback_range("faculty", "01/01/80", "12/31/82")
