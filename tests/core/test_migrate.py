"""Unit tests for migration between database kinds."""

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase, migrate)
from repro.errors import TemporalSupportError
from repro.relational import Domain, Schema
from repro.time import Instant, SimulatedClock
from repro.workload import FacultyWorkload, apply_workload

from tests.conftest import build_faculty, faculty_schema


class TestUpgrades:
    def test_static_to_rollback(self, static_faculty):
        source, _ = static_faculty
        target = migrate(source, RollbackDatabase)
        assert target.kind.supports_rollback
        assert target.snapshot("faculty") == source.snapshot("faculty")
        # History starts at the migration: nothing before it.
        assert target.rollback("faculty", "01/01/80").is_empty

    def test_static_to_historical(self, static_faculty):
        source, _ = static_faculty
        target = migrate(source, HistoricalDatabase)
        migration_instant = target.history("faculty").rows[0].valid.start
        assert target.timeslice("faculty", migration_instant) == \
            source.snapshot("faculty")
        assert all(row.valid.end.is_pos_inf
                   for row in target.history("faculty").rows)

    def test_static_to_temporal(self, static_faculty):
        source, _ = static_faculty
        target = migrate(source, TemporalDatabase)
        assert target.snapshot("faculty") == source.snapshot("faculty")

    def test_historical_to_temporal_preserves_history(self,
                                                      historical_faculty):
        source, _ = historical_faculty
        target = migrate(source, TemporalDatabase)
        assert target.history("faculty") == source.history("faculty")
        # Valid-time answers carry over exactly.
        for probe in ("06/01/80", "12/06/82", "06/01/83"):
            assert target.timeslice("faculty", probe) == \
                source.timeslice("faculty", probe), probe

    def test_rollback_to_temporal_preserves_rollbacks(self,
                                                      rollback_faculty):
        source, _ = rollback_faculty
        target = migrate(source, TemporalDatabase)
        # Diagonal property: the source's rollback(t) equals the migrated
        # database's state-as-of-t sliced at t.
        for probe in ("08/25/77", "12/05/82", "12/10/82", "12/16/82",
                      "06/01/83", "03/01/84"):
            when = Instant.parse(probe)
            assert target.rollback("faculty", when).timeslice(when) == \
                source.rollback("faculty", when), probe

    def test_rollback_to_temporal_at_workload_scale(self):
        source = RollbackDatabase(clock=SimulatedClock("01/01/79"))
        apply_workload(source, FacultyWorkload(people=8, seed=31))
        target = migrate(source, TemporalDatabase)
        base = Instant.parse("01/01/80").chronon
        for offset in range(0, 1200, 113):
            when = Instant.from_chronon(base + offset)
            assert target.rollback("faculty", when).timeslice(when) == \
                source.rollback("faculty", when), when

    def test_migrated_database_accepts_new_commits(self, static_faculty):
        source, _ = static_faculty
        target = migrate(source, TemporalDatabase)
        last = target.manager.clock.last
        when = target.insert("faculty", {"name": "New", "rank": "assistant"},
                             valid_from=target.now())
        assert when > last

    def test_event_flags_carry_over(self):
        clock = SimulatedClock("01/01/80")
        source = HistoricalDatabase(clock=clock)
        source.define("pings", Schema.of(x=Domain.STRING), event=True)
        source.insert("pings", {"x": "hello"}, valid_at="01/02/80")
        target = migrate(source, TemporalDatabase)
        assert target.is_event_relation("pings")
        assert target.history("pings").rows[0].valid.is_instantaneous


class TestDowngrades:
    def test_lossy_migration_requires_opt_in(self, temporal_faculty):
        source, _ = temporal_faculty
        with pytest.raises(TemporalSupportError, match="allow_loss"):
            migrate(source, StaticDatabase)
        with pytest.raises(TemporalSupportError):
            migrate(source, HistoricalDatabase)

    def test_temporal_to_historical_keeps_current_history(
            self, temporal_faculty):
        source, _ = temporal_faculty
        target = migrate(source, HistoricalDatabase, allow_loss=True)
        assert target.history("faculty") == source.history("faculty")
        # The transaction axis is gone, as warned.
        assert not target.supports_rollback

    def test_any_to_static_keeps_snapshot(self, temporal_faculty):
        source, _ = temporal_faculty
        target = migrate(source, StaticDatabase, allow_loss=True)
        assert target.snapshot("faculty") == source.snapshot("faculty")

    def test_rollback_to_static_loses_history(self, rollback_faculty):
        source, _ = rollback_faculty
        target = migrate(source, StaticDatabase, allow_loss=True)
        assert target.snapshot("faculty") == source.snapshot("faculty")
        assert not target.supports_rollback

    def test_non_lossy_never_needs_opt_in(self, static_faculty):
        source, _ = static_faculty
        migrate(source, RollbackDatabase)
        migrate(source, HistoricalDatabase)
        migrate(source, TemporalDatabase)
        migrate(source, StaticDatabase)  # static→static is trivially lossless
