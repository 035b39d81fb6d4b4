"""Unit tests for Session.explain / Evaluator.explain."""

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import TQuelSemanticError
from repro.tquel import Session

from tests.conftest import build_faculty


def session_for(db_class):
    database, _ = build_faculty(db_class)
    session = Session(database)
    session.execute("range of f is faculty")
    session.execute("range of f1 is faculty")
    session.execute("range of f2 is faculty")
    return session


class TestExplain:
    def test_shows_pushdown_effect(self):
        session = session_for(StaticDatabase)
        # (a non-key conjunct: a pinned key is one probe, see below)
        text = session.explain('retrieve (f.name) where f.rank = "full"')
        assert "f over faculty: 2 candidates -> 1, 1 conjunct(s) pushed" in text
        assert "static result" in text

    def test_join_product_size(self):
        session = session_for(StaticDatabase)
        text = session.explain(
            'retrieve (a = f1.name, b = f2.name) where f1.rank = f2.rank')
        assert "product of 4 combination(s)" in text
        assert "1 residual conjunct(s)" in text

    def test_temporal_clauses_reported(self):
        session = session_for(TemporalDatabase)
        text = session.explain(
            'retrieve (f1.rank) when f1 overlap f2 as of "12/10/82"')
        assert "temporal result" in text
        assert "when" in text
        assert "as of 1982-12-10" in text

    def test_through_reported(self):
        session = session_for(RollbackDatabase)
        text = session.explain(
            'retrieve (f.name) as of "12/02/82" through "12/20/82"')
        assert "through 1982-12-20" in text

    def test_historical_candidates_are_facts(self):
        session = session_for(HistoricalDatabase)
        text = session.explain("retrieve (f.name)")
        # Figure 6 has four fact rows.
        assert "4 candidates" in text
        assert "historical result" in text

    def test_aggregate_result_kind(self):
        session = session_for(StaticDatabase)
        text = session.explain("retrieve (n = count(f.name))")
        assert "static (aggregate) result" in text

    def test_explain_is_side_effect_free(self):
        session = session_for(StaticDatabase)
        before = len(session.database.log)
        session.explain('retrieve (f.rank) where f.name = "Merrie"')
        assert len(session.database.log) == before

    def test_explain_still_enforces_taxonomy(self):
        session = session_for(StaticDatabase)
        with pytest.raises(TQuelSemanticError, match="transaction time"):
            session.explain('retrieve (f.rank) as of "12/10/82"')

    def test_only_retrieve_explained(self):
        session = session_for(StaticDatabase)
        with pytest.raises(Exception):
            session.explain("delete f")
