"""Unit tests for vacuuming (the controlled forget-the-past extension)."""

import pytest

from repro.core import RollbackDatabase, TemporalDatabase, vacuum_store
from repro.errors import AppendOnlyViolation
from repro.time import Instant

from tests.conftest import build_faculty

CUTOFF = "01/01/83"


class TestVacuumRollback:
    def test_recent_rollbacks_unchanged(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        vacuumed = vacuum_store(store, CUTOFF)
        for probe in ("01/01/83", "06/01/83", "03/01/84", "01/01/85"):
            assert vacuumed.rollback(probe) == store.rollback(probe), probe

    def test_old_rollbacks_see_null_relation(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        vacuumed = vacuum_store(store, CUTOFF)
        assert vacuumed.rollback("12/10/82").is_empty
        # At the cutoff itself, the answer is intact.
        assert vacuumed.rollback(CUTOFF) == store.rollback(CUTOFF)

    def test_storage_shrinks(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        vacuumed = vacuum_store(store, "01/01/84")
        assert vacuumed.storage_cells() < store.storage_cells()

    def test_future_cutoff_rejected(self, rollback_faculty):
        database, _ = rollback_faculty
        with pytest.raises(AppendOnlyViolation, match="never the present"):
            vacuum_store(database.store("faculty"), "01/01/99")

    def test_infinite_cutoff_rejected(self, rollback_faculty):
        database, _ = rollback_faculty
        with pytest.raises(AppendOnlyViolation, match="finite"):
            vacuum_store(database.store("faculty"), "forever")


class TestVacuumStates:
    """Vacuuming seen through Figure 3's sequence of states: the states
    before the cutoff go, the one in force at it is kept from it on."""

    def test_equivalent_after_cutoff(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        vacuumed = vacuum_store(store, CUTOFF)
        kept = [(when, state) for when, state in store.states()
                if when > Instant.parse(CUTOFF)]
        assert vacuumed.states() == [
            (Instant.parse(CUTOFF), store.rollback(CUTOFF)), *kept]

    def test_state_count_shrinks(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        assert len(vacuum_store(store, CUTOFF).states()) < len(store.states())

    def test_old_rollback_sees_null_relation(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        vacuumed = vacuum_store(store, CUTOFF)
        assert vacuumed.states()[0][0] == Instant.parse(CUTOFF)
        assert vacuumed.rollback("12/10/82").is_empty
        assert vacuumed.rollback(CUTOFF) == store.rollback(CUTOFF)


class TestVacuumTemporal:
    def test_recent_rollbacks_unchanged(self, temporal_faculty):
        database, _ = temporal_faculty
        relation = database.temporal("faculty")
        vacuumed = vacuum_store(relation, CUTOFF)
        for probe in ("06/01/83", "03/01/84", "01/01/85"):
            assert vacuumed.rollback(probe) == relation.rollback(probe), probe

    def test_valid_time_untouched(self, temporal_faculty):
        database, _ = temporal_faculty
        relation = database.temporal("faculty")
        vacuumed = vacuum_store(relation, CUTOFF)
        # The current historical state (reality) is identical.
        assert vacuumed.current() == relation.current()

    def test_row_count_shrinks(self, temporal_faculty):
        database, _ = temporal_faculty
        relation = database.temporal("faculty")
        vacuumed = vacuum_store(relation, "01/01/84")
        assert len(vacuumed) < len(relation)

    def test_future_cutoff_rejected(self, temporal_faculty):
        database, _ = temporal_faculty
        with pytest.raises(AppendOnlyViolation):
            vacuum_store(database.temporal("faculty"), "01/01/99")
