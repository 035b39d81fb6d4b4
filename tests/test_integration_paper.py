"""Integration: every worked example in the paper, end to end.

Each test reconstructs a figure or query result from the paper's own
transaction narrative (never hand-entered tables) and checks the exact
content the paper prints.
"""

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.relational import Attribute, Domain, Schema
from repro.time import Instant, Period, SimulatedClock
from repro.tquel import Session

from tests.conftest import build_faculty, faculty_schema


class TestSection41Static:
    """§4.1: the static relation and the Quel query."""

    def test_figure_2_content(self, static_faculty):
        database, _ = static_faculty
        assert {(row["name"], row["rank"])
                for row in database.snapshot("faculty")} == {
            ("Merrie", "full"), ("Tom", "associate")}

    def test_quel_query(self, static_faculty):
        database, _ = static_faculty
        session = Session(database)
        session.execute("range of f is faculty")
        result = session.query('retrieve (f.rank) where f.name = "Merrie"')
        assert result.to_dicts() == [{"rank": "full"}]


class TestSection42Rollback:
    """§4.2: the rollback relation, Figure 4, and the as-of query."""

    def test_figure_4_rows_present(self, rollback_faculty):
        database, _ = rollback_faculty
        rows = {(r.data["name"], r.data["rank"], r.tt.start.paper_format(),
                 r.tt.end.paper_format())
                for r in database.store("faculty").rows}
        assert {("Merrie", "associate", "08/25/77", "12/15/82"),
                ("Merrie", "full", "12/15/82", "∞"),
                ("Tom", "associate", "12/07/82", "∞"),
                ("Mike", "assistant", "01/10/83", "02/25/84")} <= rows

    def test_as_of_query(self, rollback_faculty):
        database, _ = rollback_faculty
        session = Session(database)
        session.execute("range of f is faculty")
        result = session.query('retrieve (f.rank) where f.name = "Merrie" '
                               'as of "12/10/82"')
        assert result.to_dicts() == [{"rank": "associate"}]

    def test_figure_3_transaction_narrative(self):
        # Figure 3: three transactions from the null relation — add three
        # tuples; add one; delete one of the first and add another.
        clock = SimulatedClock("01/01/80")
        database = RollbackDatabase(clock=clock)
        schema = Schema.of(name=Domain.STRING)
        database.define("r", schema)
        with database.begin() as txn:
            for name in ("a", "b", "c"):
                database.insert("r", {"name": name}, txn=txn)
        clock.advance(1)
        database.insert("r", {"name": "d"})
        clock.advance(1)
        with database.begin() as txn:
            database.delete("r", {"name": "a"}, txn=txn)
            database.insert("r", {"name": "e"}, txn=txn)
        states = database.store("r").states()
        assert [len(state) for _, state in states] == [3, 4, 4]
        assert database.rollback("r", states[0][0]).cardinality == 3


class TestSection43Historical:
    """§4.3: the historical relation (Figure 6) and the when query."""

    def test_figure_6_content(self, historical_faculty):
        database, _ = historical_faculty
        rows = {(r.data["name"], r.data["rank"],
                 r.valid.start.paper_format(), r.valid.end.paper_format())
                for r in database.history("faculty").rows}
        assert rows == {
            ("Merrie", "associate", "09/01/77", "12/01/82"),
            ("Merrie", "full", "12/01/82", "∞"),
            ("Tom", "associate", "12/05/82", "∞"),
            ("Mike", "assistant", "01/01/83", "03/01/84"),
        }

    def test_when_query_result(self, historical_faculty):
        database, _ = historical_faculty
        session = Session(database)
        session.execute("range of f1 is faculty")
        session.execute("range of f2 is faculty")
        result = session.query(
            'retrieve (f1.rank) where f1.name = "Merrie" and '
            'f2.name = "Tom" when f1 overlap start of f2')
        assert len(result) == 1
        row = result.rows[0]
        assert row.data["rank"] == "full"
        assert (row.valid.start.paper_format(),
                row.valid.end.paper_format()) == ("12/01/82", "∞")

    def test_inconsistency_window_explained(self, historical_faculty,
                                            rollback_faculty):
        # "While both this query and the example given for a static
        # rollback relation seem to query Merrie's rank on 12/05/82, the
        # answers are different" — the DB was inconsistent with reality
        # between 12/01/82 (the promotion) and 12/15/82 (its recording).
        historical_db, _ = historical_faculty
        rollback_db, _ = rollback_faculty
        historical_answer = historical_db.timeslice("faculty", "12/05/82") \
            .select(lambda r: r["name"] == "Merrie").column("rank")
        rollback_answer = rollback_db.rollback("faculty", "12/05/82") \
            .select(lambda r: r["name"] == "Merrie").column("rank")
        assert historical_answer == ["full"]       # reality, as best known
        assert rollback_answer == ["associate"]    # what the DB then said


class TestSection44Temporal:
    """§4.4: Figure 8 and the bitemporal query with both as-of answers."""

    def test_figure_8_exact(self, temporal_faculty):
        database, _ = temporal_faculty
        rows = {(r.data["name"], r.data["rank"],
                 r.valid.start.paper_format(), r.valid.end.paper_format(),
                 r.tt.start.paper_format(), r.tt.end.paper_format())
                for r in database.temporal("faculty").rows}
        assert rows == {
            ("Merrie", "associate", "09/01/77", "∞", "08/25/77", "12/15/82"),
            ("Merrie", "associate", "09/01/77", "12/01/82", "12/15/82", "∞"),
            ("Merrie", "full", "12/01/82", "∞", "12/15/82", "∞"),
            ("Tom", "full", "12/05/82", "∞", "12/01/82", "12/07/82"),
            ("Tom", "associate", "12/05/82", "∞", "12/07/82", "∞"),
            ("Mike", "assistant", "01/01/83", "∞", "01/10/83", "02/25/84"),
            ("Mike", "assistant", "01/01/83", "03/01/84", "02/25/84", "∞"),
        }

    def test_bitemporal_query_both_answers(self, temporal_faculty):
        database, _ = temporal_faculty
        session = Session(database)
        session.execute("range of f1 is faculty")
        session.execute("range of f2 is faculty")
        query = ('retrieve (f1.rank) where f1.name = "Merrie" and '
                 'f2.name = "Tom" when f1 overlap start of f2 as of "{}"')

        early = session.query(query.format("12/10/82"))
        assert len(early) == 1
        row = early.rows[0]
        # The paper's printed result row, all six columns.
        assert row.data["rank"] == "associate"
        assert (row.valid.start.paper_format(),
                row.valid.end.paper_format()) == ("09/01/77", "∞")
        assert (row.tt.start.paper_format(),
                row.tt.end.paper_format()) == ("08/25/77", "12/15/82")

        late = session.query(query.format("12/20/82"))
        assert [r.data["rank"] for r in late.rows] == ["full"]

    def test_figure_7_transaction_narrative(self):
        # Figure 7: four transactions — add three tuples; add one; add one
        # and delete one; delete a previous tuple ("presumably it should
        # not have been there in the first place").
        clock = SimulatedClock("01/01/80")
        database = TemporalDatabase(clock=clock)
        database.define("r", Schema.of(name=Domain.STRING))
        with database.begin() as txn:
            for name in ("a", "b", "c"):
                database.insert("r", {"name": name}, valid_from="01/01/80",
                                txn=txn)
        clock.advance(1)
        database.insert("r", {"name": "d"}, valid_from="01/02/80")
        clock.advance(1)
        with database.begin() as txn:
            database.insert("r", {"name": "e"}, valid_from="01/03/80",
                            txn=txn)
            database.delete("r", {"name": "a"}, valid_from="01/03/80",
                            txn=txn)
        clock.advance(1)
        database.delete("r", {"name": "b"})  # erroneous from the start
        states = database.temporal("r").states()
        assert len(states) == 4
        # After the last transaction, 'b' is gone from the current state
        # entirely (the error corrected), but rollback still shows it.
        assert database.history("r").timeslice("01/01/80").column("name") \
            != []
        assert "b" not in database.history("r").timeslice(
            "01/02/80").column("name")
        assert "b" in database.rollback("r", states[2][0]).timeslice(
            "01/02/80").column("name")


class TestSection45UserDefinedTime:
    """§4.5: the promotion event relation with effective date (Figure 9)."""

    def build_promotion(self):
        clock = SimulatedClock("01/01/77")
        database = TemporalDatabase(clock=clock)
        # Figure 9's rank column also carries "left" (Mike's departure).
        rank = Domain.enumeration("rank", "assistant", "associate", "full",
                                  "left")
        schema = Schema([
            Attribute("name", Domain.STRING),
            Attribute("rank", rank),
            Attribute("effective date",
                      Domain.user_defined_time("effective date")),
        ])
        database.define("promotion", schema, event=True)

        def record(commit, name, rank, effective, valid_at):
            clock.set(commit)
            database.insert(
                "promotion",
                {"name": name, "rank": rank,
                 "effective date": Instant.parse(effective)},
                valid_at=valid_at)

        # The six rows of Figure 9, from its narrative.
        record("08/25/77", "Merrie", "associate", "09/01/77", "08/25/77")
        record("12/01/82", "Tom", "full", "12/05/82", "12/05/82")
        record("12/07/82", "Tom", "associate", "12/05/82", "12/07/82")
        record("12/15/82", "Merrie", "full", "12/01/82", "12/11/82")
        record("01/10/83", "Mike", "assistant", "01/01/83", "01/01/83")
        record("02/25/84", "Mike", "left", "03/01/84", "02/25/84")
        return database

    def test_figure_9_content(self):
        database = self.build_promotion()
        rows = {(r.data["name"], r.data["rank"],
                 r.data["effective date"].paper_format(),
                 r.valid.start.paper_format(), r.tt.start.paper_format())
                for r in database.temporal("promotion").rows}
        assert rows == {
            ("Merrie", "associate", "09/01/77", "08/25/77", "08/25/77"),
            ("Merrie", "full", "12/01/82", "12/11/82", "12/15/82"),
            ("Tom", "full", "12/05/82", "12/05/82", "12/01/82"),
            ("Tom", "associate", "12/05/82", "12/07/82", "12/07/82"),
            ("Mike", "assistant", "01/01/83", "01/01/83", "01/10/83"),
            ("Mike", "left", "03/01/84", "02/25/84", "02/25/84"),
        }

    def test_merries_promotion_signed_four_days_before_recording(self):
        # "Merrie's retroactive promotion to full was signed four days
        # before it was recorded in the database."
        database = self.build_promotion()
        full = next(r for r in database.temporal("promotion").rows
                    if r.data["name"] == "Merrie"
                    and r.data["rank"] == "full")
        assert full.tt.start - full.valid.start == 4

    def test_user_defined_time_is_uninterpreted(self):
        # The effective date plays no role in when/as-of semantics: the
        # rollback of the relation ignores it entirely.
        database = self.build_promotion()
        state = database.rollback("promotion", "12/10/82")
        assert len(state) == 3  # Merrie associate + Tom full + Tom associate

    def test_figure_9_renders_in_event_style(self):
        database = self.build_promotion()
        text = database.temporal("promotion").pretty("promotion", event=True)
        assert "valid (at)" in text
        assert "effective date" in text
        assert "12/11/82" in text


class TestMotivatingQueries:
    """§4.1's four motivating examples, answerable where the taxonomy says."""

    def test_historical_query(self, historical_faculty):
        # "What was Merrie's rank 2 years ago?"
        database, _ = historical_faculty
        result = database.timeslice("faculty", "02/25/82")
        assert result.select(lambda r: r["name"] == "Merrie") \
            .column("rank") == ["associate"]

    def test_trend_analysis(self, historical_faculty):
        # "How did the number of faculty change over the last 5 years?"
        database, _ = historical_faculty
        counts = {year: database.timeslice("faculty", f"06/01/{year}")
                  .cardinality for year in (80, 81, 82, 83, 84)}
        assert counts == {80: 1, 81: 1, 82: 1, 83: 3, 84: 2}

    def test_retroactive_change(self, historical_faculty):
        # "Merrie was promoted ... starting last month" was recorded
        # 12/15/82 but took effect 12/01/82.
        database, _ = historical_faculty
        assert database.timeslice("faculty", "12/02/82").select(
            lambda r: r["name"] == "Merrie").column("rank") == ["full"]

    def test_postactive_change(self, historical_faculty):
        # Merrie entered the database 08/25/77 but joined 09/01/77.
        database, _ = historical_faculty
        assert database.timeslice("faculty", "08/28/77").is_empty
        assert not database.timeslice("faculty", "09/01/77").is_empty
