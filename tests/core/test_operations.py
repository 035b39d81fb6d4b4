"""Unit tests for cross-kind temporal operations."""

import pytest

from repro.core import (HistoricalRelation, changed_instants,
                        snapshot_equivalent, temporal_timeslice_matrix,
                        when_join)
from repro.core.historical import HistoricalRow
from repro.relational import Domain, Schema, Tuple
from repro.time import Instant, Period

from tests.conftest import build_faculty, faculty_schema
from repro.core import RollbackDatabase, TemporalDatabase


def hrel(rows):
    schema = faculty_schema()
    return HistoricalRelation(schema, [
        HistoricalRow(Tuple(schema, {"name": name, "rank": rank}),
                      Period(start, end))
        for name, rank, start, end in rows
    ])


class TestWhenJoin:
    LEFT = hrel([("A", "full", "01/01/80", "01/01/84"),
                 ("B", "assistant", "01/01/82", "forever")])
    RIGHT = hrel([("C", "associate", "01/01/83", "01/01/85")])

    def test_overlap_join_intersects_validity(self):
        joined = when_join(self.LEFT, self.RIGHT,
                           when=lambda a, b: a.overlaps(b))
        assert len(joined) == 2
        periods = sorted(str(row.valid) for row in joined.rows)
        assert periods == ["[1983-01-01, 1984-01-01)",
                           "[1983-01-01, 1985-01-01)"]

    def test_precede_join(self):
        joined = when_join(self.LEFT, self.RIGHT,
                           when=lambda a, b: a.precedes(b),
                           validity="left")
        # Only A [80,84) does not precede C [83,85); B is open-ended.
        assert len(joined) == 0
        reversed_join = when_join(self.RIGHT, self.LEFT,
                                  when=lambda a, b: b.precedes(a),
                                  validity="left")
        assert len(reversed_join) == 0

    def test_where_filter(self):
        joined = when_join(self.LEFT, self.RIGHT,
                           when=lambda a, b: a.overlaps(b),
                           where=lambda l, r: l["rank"] == "full")
        assert len(joined) == 1

    def test_validity_rules(self):
        for rule, expected in (("left", "[1980-01-01, 1984-01-01)"),
                               ("right", "[1983-01-01, 1985-01-01)"),
                               ("extend", "[1980-01-01, 1985-01-01)")):
            joined = when_join(
                self.LEFT, self.RIGHT,
                when=lambda a, b: a.overlaps(b),
                where=lambda l, r: l["name"] == "A",
                validity=rule)
            assert [str(row.valid) for row in joined.rows] == [expected], rule

    def test_unknown_validity_rule(self):
        with pytest.raises(ValueError):
            when_join(self.LEFT, self.RIGHT, when=lambda a, b: True,
                      validity="bogus")

    def test_prefixed_schema(self):
        joined = when_join(self.LEFT, self.RIGHT,
                           when=lambda a, b: a.overlaps(b),
                           prefix_left="f1", prefix_right="f2")
        assert joined.schema.names == ("f1.name", "f1.rank",
                                       "f2.name", "f2.rank")


class TestEquivalences:
    def test_snapshot_equivalent_exact_vs_probed(self):
        relation = hrel([("A", "full", "01/01/80", "01/01/82"),
                         ("A", "full", "01/01/82", "01/01/84")])
        coalesced = relation.coalesce()
        assert snapshot_equivalent(relation, coalesced)
        probes = changed_instants(relation)
        assert snapshot_equivalent(relation, coalesced, probes=probes)

    def test_snapshot_inequivalence_detected(self):
        a = hrel([("A", "full", "01/01/80", "01/01/82")])
        b = hrel([("A", "full", "01/01/80", "01/01/83")])
        assert not snapshot_equivalent(a, b)
        assert not snapshot_equivalent(a, b, probes=changed_instants(b))

    def test_changed_instants_bracket_boundaries(self):
        relation = hrel([("A", "full", "01/01/80", "01/01/82")])
        probes = changed_instants(relation)
        start = Instant.parse("01/01/80")
        end = Instant.parse("01/01/82")
        assert start in probes and start - 1 in probes
        assert end in probes and end - 1 in probes


class TestDiffStates:
    def test_rollback_database_diff(self):
        from repro.core import diff_states
        database, _ = build_faculty(RollbackDatabase)
        appeared, disappeared = diff_states(database, "faculty",
                                            "12/06/82", "12/20/82")
        assert {(r["name"], r["rank"]) for r in appeared} == {
            ("Tom", "associate"), ("Merrie", "full")}
        assert {(r["name"], r["rank"]) for r in disappeared} == {
            ("Tom", "full"), ("Merrie", "associate")}

    def test_temporal_database_diff_shows_beliefs(self):
        from repro.core import diff_states
        database, _ = build_faculty(TemporalDatabase)
        appeared, disappeared = diff_states(database, "faculty",
                                            "12/10/82", "12/20/82")
        # The retroactive promotion: one belief abandoned, two adopted.
        assert {(r.data["rank"], str(r.valid)) for r in disappeared.rows} \
            == {("associate", "[1977-09-01, ∞)")}
        assert {(r.data["rank"], str(r.valid)) for r in appeared.rows} == {
            ("associate", "[1977-09-01, 1982-12-01)"),
            ("full", "[1982-12-01, ∞)")}

    def test_identical_instants_diff_empty(self):
        from repro.core import diff_states
        database, _ = build_faculty(RollbackDatabase)
        appeared, disappeared = diff_states(database, "faculty",
                                            "12/10/82", "12/10/82")
        assert appeared.is_empty and disappeared.is_empty

    def test_rejected_without_transaction_time(self):
        from repro.core import HistoricalDatabase, diff_states
        from repro.errors import RollbackNotSupportedError
        database, _ = build_faculty(HistoricalDatabase)
        with pytest.raises(RollbackNotSupportedError):
            diff_states(database, "faculty", "12/10/82", "12/20/82")


class TestTimesliceMatrix:
    def test_matrix_over_paper_scenario(self):
        database, _ = build_faculty(TemporalDatabase)
        relation = database.temporal("faculty")
        valid_probes = [Instant.parse("12/06/82")]
        txn_probes = [Instant.parse("12/06/82"), Instant.parse("12/20/82")]
        matrix = temporal_timeslice_matrix(relation, valid_probes, txn_probes)
        # Believed on 12/06: Tom full.  Believed on 12/20: Tom associate,
        # Merrie full (retroactive promotion recorded 12/15).
        early = matrix[(valid_probes[0], txn_probes[0])]
        late = matrix[(valid_probes[0], txn_probes[1])]
        ranks_early = {row["name"]: row["rank"] for row in early}
        ranks_late = {row["name"]: row["rank"] for row in late}
        assert ranks_early == {"Merrie": "associate", "Tom": "full"}
        assert ranks_late == {"Merrie": "full", "Tom": "associate"}
