"""Unit tests for the taxonomy model (Figures 1 and 10-13)."""

import pytest

from repro.core.taxonomy import (
    FIGURE_1, FIGURE_13, DatabaseKind, Models, TimeKind, classify,
    render_figure_1, render_figure_10, render_figure_11, render_figure_12,
    render_figure_13,
)


class TestTimeKinds:
    """Figure 12: attributes of the three kinds of time."""

    def test_transaction_time(self):
        time = TimeKind.TRANSACTION
        assert time.append_only
        assert time.application_independent
        assert time.models is Models.REPRESENTATION

    def test_valid_time(self):
        time = TimeKind.VALID
        assert not time.append_only
        assert time.application_independent
        assert time.models is Models.REALITY

    def test_user_defined_time(self):
        time = TimeKind.USER_DEFINED
        assert not time.append_only
        assert not time.application_independent
        assert time.models is Models.REALITY

    def test_only_transaction_time_is_append_only(self):
        append_only = [t for t in TimeKind if t.append_only]
        assert append_only == [TimeKind.TRANSACTION]


class TestClassify:
    """Figure 10: the 2x2 classification."""

    def test_all_four_cells(self):
        assert classify(False, False) is DatabaseKind.STATIC
        assert classify(True, False) is DatabaseKind.STATIC_ROLLBACK
        assert classify(False, True) is DatabaseKind.HISTORICAL
        assert classify(True, True) is DatabaseKind.TEMPORAL

    def test_classify_round_trips_capabilities(self):
        for kind in DatabaseKind:
            assert classify(kind.supports_rollback,
                            kind.supports_historical_queries) is kind


class TestDatabaseKinds:
    """Figure 11: which kinds of time each database kind incorporates."""

    def test_static_supports_nothing(self):
        assert DatabaseKind.STATIC.time_kinds == frozenset()

    def test_rollback_supports_transaction_only(self):
        assert DatabaseKind.STATIC_ROLLBACK.time_kinds == frozenset(
            {TimeKind.TRANSACTION})

    def test_historical_supports_valid_and_user_defined(self):
        assert DatabaseKind.HISTORICAL.time_kinds == frozenset(
            {TimeKind.VALID, TimeKind.USER_DEFINED})

    def test_temporal_supports_all_three(self):
        assert DatabaseKind.TEMPORAL.time_kinds == frozenset(TimeKind)

    def test_append_only_iff_rollback(self):
        for kind in DatabaseKind:
            assert kind.append_only == kind.supports_rollback


class TestFigure1:
    def test_thirteen_rows(self):
        assert len(FIGURE_1) == 13

    def test_unsupported_entries_marked(self):
        unsupported = [t for t in FIGURE_1 if not t.supported]
        assert {t.terminology for t in unsupported} == {"Event", "Logical"}

    def test_snodgrass_valid_time_row(self):
        row = next(t for t in FIGURE_1 if t.terminology == "Valid Time")
        assert row.append_only is False
        assert row.application_independent is True
        assert row.models is Models.REALITY

    def test_qualified_entries_carry_footnotes(self):
        physical = next(t for t in FIGURE_1 if t.terminology == "Physical")
        assert physical.append_only == "corrections only"


class TestFigure13:
    def test_seventeen_systems(self):
        assert len(FIGURE_13) == 17

    def test_tquel_supports_all_three(self):
        tquel = next(s for s in FIGURE_13 if s.system == "TQuel")
        assert tquel.time_kinds == frozenset(TimeKind)
        assert tquel.database_kind is DatabaseKind.TEMPORAL

    def test_trm_is_temporal(self):
        trm = next(s for s in FIGURE_13 if s.system == "TRM")
        assert trm.database_kind is DatabaseKind.TEMPORAL

    def test_gemstone_is_rollback(self):
        gemstone = next(s for s in FIGURE_13 if s.system == "GemStone")
        assert gemstone.database_kind is DatabaseKind.STATIC_ROLLBACK

    def test_clifford_warren_is_historical(self):
        ils = next(s for s in FIGURE_13 if s.system == "IL_s")
        assert ils.database_kind is DatabaseKind.HISTORICAL

    def test_user_defined_only_systems_are_static(self):
        # QBE, MicroINGRES, INGRES, ENFORM support only user-defined time,
        # which the DBMS does not interpret: they remain static databases.
        for name in ("QBE", "MicroINGRES", "INGRES", "ENFORM"):
            system = next(s for s in FIGURE_13 if s.system == name)
            assert system.database_kind is DatabaseKind.STATIC


class TestRenderers:
    def test_figure_10_layout(self):
        text = render_figure_10()
        assert "static rollback" in text
        assert "temporal" in text
        assert "Historical Queries" in text

    def test_figure_11_marks(self):
        text = render_figure_11()
        assert "Temporal" in text and "V" in text

    def test_figure_12_rows(self):
        text = render_figure_12()
        assert "Transaction" in text and "Representation" in text
        assert "User-Defined" in text

    def test_figure_1_renders_all_references(self):
        text = render_figure_1()
        assert "Ben-Zvi 1982" in text
        assert "(corrections only)" in text

    def test_figure_13_renders_all_systems(self):
        text = render_figure_13()
        for system in FIGURE_13:
            assert system.system in text


class TestFigure11AtRuntime:
    """Figure 11 as a table: every call bound to a capability answers on
    the kinds that have it and raises the typed category error, naming
    the kind, on the others — on one class reading the kind's two flags."""

    TIME = {"valid": lambda kind: kind.supports_historical_queries,
            "tt": lambda kind: kind.supports_rollback,
            "both": lambda kind: (kind.supports_historical_queries
                                  and kind.supports_rollback),
            "no valid": lambda kind: not kind.supports_historical_queries}

    CALLS = {
        "valid_from=": ("valid", lambda db: db.insert(
            "faculty", {"name": "Ann", "rank": "full"},
            valid_from="01/01/84")),
        "valid_at=": ("valid", lambda db: db.delete(
            "faculty", {"name": "Tom"}, valid_at="01/01/84")),
        "history": ("valid", lambda db: db.history("faculty")),
        "timeslice": ("valid", lambda db: db.timeslice("faculty",
                                                        "01/01/83")),
        "temporal": ("both", lambda db: db.temporal("faculty")),
        "rollback": ("tt", lambda db: db.rollback("faculty", "01/01/83")),
        "rollback_range": ("tt", lambda db: db.rollback_range(
            "faculty", "01/01/83", "01/01/84")),
        "delete_where": ("no valid", lambda db: db.delete_where(
            "faculty", lambda row: row["name"] == "Tom")),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("kind", list(DatabaseKind),
                             ids=[kind.value for kind in DatabaseKind])
    def test_a_call_answers_or_raises_the_category_error(self, kind, call):
        from repro.core import DATABASE_CLASSES
        from repro.errors import (HistoricalNotSupportedError,
                                  RollbackNotSupportedError,
                                  TemporalSupportError)
        from tests.conftest import build_faculty

        database, _ = build_faculty(DATABASE_CLASSES[kind])
        needs, make_call = self.CALLS[call]
        if self.TIME[needs](kind):
            make_call(database)  # answers
            return
        expected = (TemporalSupportError if needs == "no valid"
                    else RollbackNotSupportedError if needs == "tt"
                    or kind.supports_historical_queries
                    else HistoricalNotSupportedError)
        with pytest.raises(expected, match=f"a {kind} database"):
            make_call(database)

    @pytest.mark.parametrize("kind", list(DatabaseKind),
                             ids=[kind.value for kind in DatabaseKind])
    def test_a_kind_class_names_its_kind_and_nothing_else(self, kind):
        from repro.core import DATABASE_CLASSES, Database

        cls = DATABASE_CLASSES[kind]
        assert cls.__bases__ == (Database,) and cls.kind is kind
        assert set(vars(cls)) <= {"__module__", "__qualname__", "__doc__",
                                  "kind"}
