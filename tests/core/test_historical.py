"""Unit tests for historical databases (§4.3, Figures 5-6)."""

import pytest

from repro.core import DatabaseKind, HistoricalDatabase, HistoricalRelation
from repro.core.historical import HistoricalRow
from repro.errors import (ConstraintViolation, GranularityError,
                          RollbackNotSupportedError)
from repro.relational import Domain, Relation, Schema, Tuple, attr
from repro.time import Instant, Period, SimulatedClock
from repro.time.chronon import Granularity

from tests.conftest import faculty_schema


def fresh():
    clock = SimulatedClock("01/01/80")
    database = HistoricalDatabase(clock=clock)
    database.define("faculty", faculty_schema())
    return database, clock


class TestKind:
    def test_kind_and_capabilities(self, historical_faculty):
        database, _ = historical_faculty
        assert database.kind is DatabaseKind.HISTORICAL
        assert not database.supports_rollback
        assert database.supports_historical_queries

    def test_rollback_rejected(self, historical_faculty):
        database, _ = historical_faculty
        with pytest.raises(RollbackNotSupportedError, match="historical"):
            database.rollback("faculty", "12/10/82")


class TestFigure6:
    """The scenario's historical state is exactly Figure 6."""

    def test_rows(self, historical_faculty):
        database, _ = historical_faculty
        rows = {(row.data["name"], row.data["rank"],
                 row.valid.start.paper_format(), row.valid.end.paper_format())
                for row in database.history("faculty").rows}
        assert rows == {
            ("Merrie", "associate", "09/01/77", "12/01/82"),
            ("Merrie", "full", "12/01/82", "∞"),
            ("Tom", "associate", "12/05/82", "∞"),
            ("Mike", "assistant", "01/01/83", "03/01/84"),
        }

    def test_corrections_leave_no_trace(self, historical_faculty):
        # Tom was recorded as full and corrected to associate; the
        # historical database keeps only the corrected belief.
        database, _ = historical_faculty
        history = database.history("faculty")
        tom_rows = [row for row in history.rows if row.data["name"] == "Tom"]
        assert {row.data["rank"] for row in tom_rows} == {"associate"}


class TestTimeslice:
    def test_timeslice_is_static_relation(self, historical_faculty):
        database, _ = historical_faculty
        result = database.timeslice("faculty", "06/01/83")
        assert isinstance(result, Relation)

    def test_historical_answers(self, historical_faculty):
        database, _ = historical_faculty
        # "What was Merrie's rank 2 years ago?" (historical query)
        early = database.timeslice("faculty", "06/01/80")
        assert early.select(attr("name") == "Merrie").column("rank") == [
            "associate"]
        late = database.timeslice("faculty", "06/01/83")
        assert late.select(attr("name") == "Merrie").column("rank") == ["full"]

    def test_timeslice_respects_validity_bounds(self, historical_faculty):
        database, _ = historical_faculty
        # Mike's validity ends 03/01/84 (exclusive).
        assert any(row["name"] == "Mike"
                   for row in database.timeslice("faculty", "02/29/84"))
        assert not any(row["name"] == "Mike"
                       for row in database.timeslice("faculty", "03/01/84"))

    def test_snapshot_is_timeslice_now(self, historical_faculty):
        database, clock = historical_faculty
        assert database.snapshot("faculty") == database.timeslice(
            "faculty", clock.current())

    @pytest.mark.parametrize("month_first", [False, True])
    def test_a_relation_of_mixed_units_refuses_a_timeslice(self, month_first):
        # Inserts accept a period at any unit; a timeslice compares chronon
        # numbers, so rows at two units must raise, not answer.
        database, _ = fresh()
        day = dict(name="Tom", rank="full",
                   valid_from=Instant.parse("1980-02-01"))
        month = dict(name="Mike", rank="associate",
                     valid_from=Instant.parse("1980-02-01", Granularity.MONTH))
        for fact in (month, day) if month_first else (day, month):
            valid_from = fact.pop("valid_from")
            database.insert("faculty", fact, valid_from=valid_from)
        for when in ("1981-01-01",
                     Instant.parse("1981-01-01", Granularity.MONTH)):
            with pytest.raises(GranularityError):
                database.timeslice("faculty", when)
            with pytest.raises(GranularityError):
                database.history("faculty").timeslice(when)


class TestUpdateSemantics:
    def test_insert_requires_valid_from(self):
        database, _ = fresh()
        with pytest.raises(ConstraintViolation, match="valid_from"):
            database.insert("faculty", {"name": "A", "rank": "full"})

    def test_replace_splits_validity(self):
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "assistant"},
                        valid_from="01/01/80")
        database.replace("faculty", {"name": "A"}, {"rank": "associate"},
                         valid_from="01/01/82")
        rows = sorted((row.data["rank"], str(row.valid))
                      for row in database.history("faculty").rows)
        assert rows == [
            ("assistant", "[1980-01-01, 1982-01-01)"),
            ("associate", "[1982-01-01, ∞)"),
        ]

    def test_replace_within_window(self):
        # Replacement over a bounded window leaves before and after intact.
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "assistant"},
                        valid_from="01/01/80")
        database.replace("faculty", {"name": "A"}, {"rank": "full"},
                         valid_from="01/01/81", valid_to="01/01/82")
        slices = {when: database.timeslice("faculty", when).column("rank")
                  for when in ("06/01/80", "06/01/81", "06/01/82")}
        assert slices == {"06/01/80": ["assistant"],
                          "06/01/81": ["full"],
                          "06/01/82": ["assistant"]}

    def test_delete_future_validity(self):
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80")
        database.delete("faculty", {"name": "A"}, valid_from="01/01/83")
        history = database.history("faculty")
        assert [str(row.valid) for row in history.rows] == [
            "[1980-01-01, 1983-01-01)"]

    def test_delete_interior_window_splits(self):
        # Deleting a sabbatical year splits one row into two.
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80")
        database.delete("faculty", {"name": "A"},
                        valid_from="01/01/81", valid_to="01/01/82")
        periods = sorted(str(row.valid)
                         for row in database.history("faculty").rows)
        assert periods == ["[1980-01-01, 1981-01-01)", "[1982-01-01, ∞)"]

    def test_delete_everything_forgets_the_fact(self):
        # Arbitrary modification: a wholly erroneous tuple can be removed
        # without trace (impossible in a rollback database).
        database, _ = fresh()
        database.insert("faculty", {"name": "Err", "rank": "full"},
                        valid_from="01/01/80")
        database.delete("faculty", {"name": "Err"})
        assert database.history("faculty").is_empty

    def test_retroactive_change(self):
        # "Merrie was promoted ... starting last month" — recorded late.
        database, clock = fresh()
        database.insert("faculty", {"name": "M", "rank": "associate"},
                        valid_from="01/01/80")
        clock.set("06/15/80")
        database.replace("faculty", {"name": "M"}, {"rank": "full"},
                         valid_from="05/15/80")
        assert database.timeslice("faculty", "05/20/80").column("rank") == [
            "full"]

    def test_postactive_change(self):
        # "James is joining the faculty next month."
        database, clock = fresh()
        database.insert("faculty", {"name": "James", "rank": "assistant"},
                        valid_from="02/01/80")
        assert database.timeslice("faculty", "01/15/80").is_empty
        assert not database.timeslice("faculty", "02/15/80").is_empty

    def test_sequenced_key_violation(self):
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80")
        with pytest.raises(ConstraintViolation, match="sequenced key"):
            database.insert("faculty", {"name": "A", "rank": "assistant"},
                            valid_from="06/01/80")

    def test_sequenced_key_allows_disjoint_periods(self):
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80", valid_to="01/01/81")
        database.insert("faculty", {"name": "A", "rank": "assistant"},
                        valid_from="01/01/82")
        assert len(database.history("faculty")) == 2

    def test_reasserting_same_fact_is_not_a_violation(self):
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80")
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="06/01/80")
        # Coalesces to a single fact.
        assert len(database.history("faculty").coalesce()) == 1


class TestEventRelations:
    def test_event_insert_takes_valid_at(self):
        database, _ = fresh()
        database.define("promotion", Schema.of(name=Domain.STRING),
                        event=True)
        database.insert("promotion", {"name": "Merrie"},
                        valid_at="12/11/82")
        rows = database.history("promotion").rows
        assert len(rows) == 1 and rows[0].valid.is_instantaneous

    def test_event_insert_rejects_interval(self):
        database, _ = fresh()
        database.define("promotion", Schema.of(name=Domain.STRING),
                        event=True)
        with pytest.raises(ConstraintViolation, match="event relation"):
            database.insert("promotion", {"name": "Merrie"},
                            valid_from="12/11/82")

    def test_is_event_relation(self):
        database, _ = fresh()
        database.define("promotion", Schema.of(name=Domain.STRING), event=True)
        assert database.is_event_relation("promotion")
        assert not database.is_event_relation("faculty")

    def test_valid_at_and_interval_are_exclusive(self):
        database, _ = fresh()
        with pytest.raises(ConstraintViolation, match="not both"):
            database.insert("faculty", {"name": "A", "rank": "full"},
                            valid_from="01/01/80", valid_at="01/01/80")


class TestHistoricalRelationValue:
    def rows(self):
        schema = faculty_schema()
        return HistoricalRelation(schema, [
            HistoricalRow(Tuple(schema, {"name": "A", "rank": "full"}),
                          Period("01/01/80", "01/01/82")),
            HistoricalRow(Tuple(schema, {"name": "A", "rank": "full"}),
                          Period("01/01/82", "01/01/84")),
            HistoricalRow(Tuple(schema, {"name": "B", "rank": "assistant"}),
                          Period("01/01/81", "forever")),
        ])

    def test_coalesce_merges_adjacent_equal_facts(self):
        coalesced = self.rows().coalesce()
        a_rows = [row for row in coalesced.rows if row.data["name"] == "A"]
        assert [str(row.valid) for row in a_rows] == [
            "[1980-01-01, 1984-01-01)"]

    def test_select_project_rename(self):
        relation = self.rows()
        selected = relation.select(attr("name") == "A")
        assert len(selected) == 2
        projected = relation.project(["rank"])
        assert projected.schema.names == ("rank",)
        renamed = relation.rename({"rank": "position"})
        assert renamed.schema.names == ("name", "position")

    def test_project_coalesces_by_default(self):
        projected = self.rows().project(["name"])
        a_rows = [row for row in projected.rows if row.data["name"] == "A"]
        assert len(a_rows) == 1

    def test_during_clips(self):
        clipped = self.rows().during(Period("06/01/81", "06/01/82"))
        assert all(row.valid in Period("06/01/81", "06/01/82")
                   for row in clipped.rows)

    def test_validity_of(self):
        element = self.rows().validity_of(attr("name") == "A")
        assert [str(p) for p in element.periods] == ["[1980-01-01, 1984-01-01)"]

    def test_lifespan(self):
        assert [str(p) for p in self.rows().lifespan().periods] == [
            "[1980-01-01, ∞)"]

    def test_equality_is_snapshot_equivalence(self):
        relation = self.rows()
        assert relation == relation.coalesce()
        assert hash(relation) == hash(relation.coalesce())

    def test_union(self):
        relation = self.rows()
        assert relation.union(relation) == relation

    def test_intersect_same_fact_overlapping_validity(self):
        schema = faculty_schema()
        left = HistoricalRelation(schema, [
            HistoricalRow(Tuple(schema, {"name": "A", "rank": "full"}),
                          Period("01/01/80", "01/01/84"))])
        right = HistoricalRelation(schema, [
            HistoricalRow(Tuple(schema, {"name": "A", "rank": "full"}),
                          Period("01/01/82", "01/01/86"))])
        result = left.intersect(right)
        assert [str(row.valid) for row in result.rows] == [
            "[1982-01-01, 1984-01-01)"]

    def test_intersect_different_facts_empty(self):
        relation = self.rows()
        other = relation.rename({"rank": "rank"})  # same schema, same rows
        different = HistoricalRelation(relation.schema, [
            HistoricalRow(Tuple(relation.schema,
                                {"name": "Z", "rank": "full"}),
                          Period("01/01/80", "forever"))])
        assert relation.intersect(different).is_empty

    def test_difference_splits_validity(self):
        schema = faculty_schema()
        left = HistoricalRelation(schema, [
            HistoricalRow(Tuple(schema, {"name": "A", "rank": "full"}),
                          Period("01/01/80", "01/01/86"))])
        right = HistoricalRelation(schema, [
            HistoricalRow(Tuple(schema, {"name": "A", "rank": "full"}),
                          Period("01/01/82", "01/01/84"))])
        result = left.difference(right)
        assert sorted(str(row.valid) for row in result.rows) == [
            "[1980-01-01, 1982-01-01)", "[1984-01-01, 1986-01-01)"]

    def test_difference_ignores_other_facts(self):
        relation = self.rows()
        unrelated = HistoricalRelation(relation.schema, [
            HistoricalRow(Tuple(relation.schema,
                                {"name": "Z", "rank": "full"}),
                          Period("01/01/80", "forever"))])
        assert relation.difference(unrelated) == relation
