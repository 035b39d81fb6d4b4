"""Unit tests for temporal databases (§4.4, Figures 7-9)."""

import pytest

from repro.core import (DatabaseKind, HistoricalRelation, TemporalDatabase,
                        TemporalRelation)
from repro.errors import ConstraintViolation
from repro.relational import Attribute, Domain, Schema, attr
from repro.time import Instant, Period, SimulatedClock

from tests.conftest import faculty_schema


def fresh():
    clock = SimulatedClock("01/01/80")
    database = TemporalDatabase(clock=clock)
    database.define("faculty", faculty_schema())
    return database, clock


class TestKind:
    def test_kind_and_capabilities(self, temporal_faculty):
        database, _ = temporal_faculty
        assert database.kind is DatabaseKind.TEMPORAL
        assert database.supports_rollback
        assert database.supports_historical_queries


class TestFigure8:
    """The scenario's bitemporal table is exactly Figure 8 (seven rows)."""

    def expected(self):
        return {
            ("Merrie", "associate", "09/01/77", "∞", "08/25/77", "12/15/82"),
            ("Merrie", "associate", "09/01/77", "12/01/82", "12/15/82", "∞"),
            ("Merrie", "full", "12/01/82", "∞", "12/15/82", "∞"),
            ("Tom", "full", "12/05/82", "∞", "12/01/82", "12/07/82"),
            ("Tom", "associate", "12/05/82", "∞", "12/07/82", "∞"),
            ("Mike", "assistant", "01/01/83", "∞", "01/10/83", "02/25/84"),
            ("Mike", "assistant", "01/01/83", "03/01/84", "02/25/84", "∞"),
        }

    def test_rows(self, temporal_faculty):
        database, _ = temporal_faculty
        rows = {(row.data["name"], row.data["rank"],
                 row.valid.start.paper_format(), row.valid.end.paper_format(),
                 row.tt.start.paper_format(), row.tt.end.paper_format())
                for row in database.temporal("faculty").rows}
        assert rows == self.expected()

    def test_row_count_matches_paper(self, temporal_faculty):
        database, _ = temporal_faculty
        assert len(database.temporal("faculty")) == 7


class TestRollback:
    def test_rollback_yields_historical_relation(self, temporal_faculty):
        database, _ = temporal_faculty
        state = database.rollback("faculty", "12/10/82")
        assert isinstance(state, HistoricalRelation)

    def test_rollback_reproduces_past_beliefs(self, temporal_faculty):
        database, _ = temporal_faculty
        # As of 12/10/82 the database believed Merrie had been an associate
        # since 09/01/77, open-ended.
        state = database.rollback("faculty", "12/10/82")
        merrie = [row for row in state.rows if row.data["name"] == "Merrie"]
        assert len(merrie) == 1
        assert merrie[0].data["rank"] == "associate"
        assert merrie[0].valid == Period("09/01/77", "forever")

    def test_rollback_after_correction(self, temporal_faculty):
        database, _ = temporal_faculty
        state = database.rollback("faculty", "12/20/82")
        merrie_now = state.timeslice("12/20/82").select(
            attr("name") == "Merrie")
        assert merrie_now.column("rank") == ["full"]

    def test_current_equals_figure_6(self, temporal_faculty,
                                     historical_faculty):
        # A temporal database's current historical state is exactly what a
        # historical database holds after the same transactions.
        temporal_db, _ = temporal_faculty
        historical_db, _ = historical_faculty
        assert temporal_db.history("faculty") == \
            historical_db.history("faculty")

    def test_bitemporal_timeslice(self, temporal_faculty):
        database, _ = temporal_faculty
        # Valid at 12/06/82, believed as of 12/06/82: Tom was (incorrectly)
        # a full professor.
        state = database.timeslice("faculty", "12/06/82", as_of="12/06/82")
        tom = state.select(attr("name") == "Tom")
        assert tom.column("rank") == ["full"]
        # Same valid instant, believed today: associate.
        corrected = database.timeslice("faculty", "12/06/82")
        assert corrected.select(attr("name") == "Tom").column("rank") == [
            "associate"]

    def test_historical_states_sequence(self, temporal_faculty):
        # "A temporal relation may be thought of as a sequence of
        # historical states" (Figure 7).
        database, _ = temporal_faculty
        states = database.temporal("faculty").states()
        assert len(states) == 6  # one per DML transaction
        times = [time for time, _ in states]
        assert times == sorted(times)
        # Each state is a full historical relation.
        assert all(isinstance(state, HistoricalRelation)
                   for _, state in states)

    def test_rollback_before_first_transaction_is_empty(self,
                                                        temporal_faculty):
        database, _ = temporal_faculty
        assert database.rollback("faculty", "01/01/70").is_empty


class TestAppendOnly:
    """Temporal relations are append-only (§4.4)."""

    def test_corrections_preserve_history(self, temporal_faculty):
        database, _ = temporal_faculty
        # Tom's erroneous 'full' row is still there, closed in transaction
        # time — compare the historical database, which forgot it.
        relation = database.temporal("faculty")
        erroneous = [row for row in relation.rows
                     if row.data["name"] == "Tom"
                     and row.data["rank"] == "full"]
        assert len(erroneous) == 1
        assert erroneous[0].tt == Period("12/01/82", "12/07/82")

    def test_new_transactions_never_change_old_rollbacks(
            self, temporal_faculty):
        database, clock = temporal_faculty
        before = database.rollback("faculty", "12/10/82")
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "assistant"},
                        valid_from="06/01/85")
        assert database.rollback("faculty", "12/10/82") == before

    def test_row_closed_and_reopened_within_one_transaction_vanishes(self):
        database, clock = fresh()
        with database.begin() as txn:
            database.insert("faculty", {"name": "G", "rank": "full"},
                            valid_from="01/01/80", txn=txn)
            database.delete("faculty", {"name": "G"}, txn=txn)
        assert not any(row.data["name"] == "G"
                       for row in database.temporal("faculty").rows)


class TestUpdateSemantics:
    def test_insert_requires_valid_from(self):
        database, _ = fresh()
        with pytest.raises(ConstraintViolation, match="valid_from"):
            database.insert("faculty", {"name": "A", "rank": "full"})

    def test_sequenced_key_checked_on_current_state(self):
        database, _ = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80")
        with pytest.raises(ConstraintViolation, match="sequenced key"):
            database.insert("faculty", {"name": "A", "rank": "assistant"},
                            valid_from="06/01/80")

    def test_delete_is_logical(self):
        database, clock = fresh()
        database.insert("faculty", {"name": "A", "rank": "full"},
                        valid_from="01/01/80")
        clock.set("06/01/80")
        database.delete("faculty", {"name": "A"})
        # Current belief: nothing; past belief intact.
        assert database.history("faculty").is_empty
        assert not database.rollback("faculty", "02/01/80").is_empty

    def test_replace_mirrors_historical_semantics(self):
        database, clock = fresh()
        database.insert("faculty", {"name": "A", "rank": "assistant"},
                        valid_from="01/01/80")
        clock.set("06/01/81")
        database.replace("faculty", {"name": "A"}, {"rank": "associate"},
                         valid_from="01/01/81")
        current = database.history("faculty")
        ranks = sorted((row.data["rank"], str(row.valid))
                       for row in current.rows)
        assert ranks == [("assistant", "[1980-01-01, 1981-01-01)"),
                         ("associate", "[1981-01-01, ∞)")]


class TestEventRelations:
    """Figure 9: a temporal event relation with user-defined time."""

    def test_figure_9_shape(self):
        clock = SimulatedClock("01/01/77")
        database = TemporalDatabase(clock=clock)
        schema = Schema(
            list(faculty_schema())
            + [Attribute("effective date",
                         Domain.user_defined_time("effective date"))])
        database.define("promotion", schema, event=True)
        clock.set("08/25/77")
        database.insert("promotion",
                        {"name": "Merrie", "rank": "associate",
                         "effective date": Instant.parse("09/01/77")},
                        valid_at="08/25/77")
        clock.set("12/15/82")
        database.insert("promotion",
                        {"name": "Merrie", "rank": "full",
                         "effective date": Instant.parse("12/01/82")},
                        valid_at="12/11/82")
        relation = database.temporal("promotion")
        assert len(relation) == 2
        assert all(row.valid.is_instantaneous for row in relation.rows)
        # User-defined time is ordinary data: stored, formatted, never
        # interpreted by any temporal operator.
        full = [row for row in relation.rows if row.data["rank"] == "full"][0]
        assert full.data["effective date"] == Instant.parse("12/01/82")

    def test_commit_times(self, temporal_faculty):
        database, _ = temporal_faculty
        times = database.temporal("faculty").commit_times()
        assert [time.paper_format() for time in times] == [
            "08/25/77", "12/01/82", "12/07/82", "12/15/82", "01/10/83",
            "02/25/84"]
