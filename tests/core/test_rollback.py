"""Unit tests for static rollback databases (§4.2, Figures 3-4)."""

import contextlib

import pytest

from repro.core import DatabaseKind, RollbackDatabase, RollbackRelation
from repro.errors import HistoricalNotSupportedError
from repro.relational import Relation
from repro.time import Instant, POS_INF, SimulatedClock

from tests.conftest import build_faculty, faculty_schema
from tests.core.snapshot_model import SnapshotModel


class TestKind:
    def test_kind_and_capabilities(self, rollback_faculty):
        database, _ = rollback_faculty
        assert database.kind is DatabaseKind.STATIC_ROLLBACK
        assert database.supports_rollback
        assert not database.supports_historical_queries

    def test_timeslice_rejected(self, rollback_faculty):
        database, _ = rollback_faculty
        with pytest.raises(HistoricalNotSupportedError, match="rollback"):
            database.timeslice("faculty", "12/10/82")

    def test_bad_representation_rejected(self):
        # One representation (Figure 4's stamps): no option selects another.
        with pytest.raises(TypeError):
            RollbackDatabase(clock=SimulatedClock("01/01/80"),
                             representation="cube")


class TestRollbackQueries:
    """§4.2: rollback yields the static relation as of a past moment."""

    def test_result_is_pure_static_relation(self, rollback_faculty):
        database, _ = rollback_faculty
        result = database.rollback("faculty", "12/10/82")
        assert isinstance(result, Relation)

    def test_paper_query(self, rollback_faculty):
        # Merrie's rank as of 12/10/82 is associate (the promotion was
        # recorded 12/15/82).
        database, _ = rollback_faculty
        state = database.rollback("faculty", "12/10/82")
        merrie = state.select(lambda row: row["name"] == "Merrie")
        assert merrie.column("rank") == ["associate"]

    def test_rollback_before_any_transaction_is_null_relation(
            self, rollback_faculty):
        database, _ = rollback_faculty
        assert database.rollback("faculty", "01/01/70").is_empty

    def test_rollback_sees_then_current_errors(self, rollback_faculty):
        # As of 12/05/82 the database believed Tom was a full professor;
        # rollback faithfully reproduces the incorrect state.
        database, _ = rollback_faculty
        state = database.rollback("faculty", "12/05/82")
        tom = state.select(lambda row: row["name"] == "Tom")
        assert tom.column("rank") == ["full"]

    def test_rollback_at_exact_commit_time_includes_commit(
            self, rollback_faculty):
        database, _ = rollback_faculty
        state = database.rollback("faculty", "12/15/82")
        merrie = state.select(lambda row: row["name"] == "Merrie")
        assert merrie.column("rank") == ["full"]

    def test_snapshot_is_latest_state(self, rollback_faculty):
        database, _ = rollback_faculty
        snapshot = {tuple(sorted(row.items()))
                    for row in database.snapshot("faculty").to_dicts()}
        assert snapshot == {
            (("name", "Merrie"), ("rank", "full")),
            (("name", "Tom"), ("rank", "associate")),
        }

    def test_rollback_now_equals_snapshot(self, rollback_faculty):
        database, clock = rollback_faculty
        assert database.rollback("faculty", clock.current()) == \
            database.snapshot("faculty")


class TestBothRepresentationsAgree:
    PROBES = ["01/01/77", "08/25/77", "08/26/77", "12/01/82", "12/06/82",
              "12/07/82", "12/10/82", "12/15/82", "12/16/82", "01/10/83",
              "02/24/84", "02/25/84", "01/01/85"]

    def test_every_probe_agrees(self, rollback_faculty):
        # Figure 4's stamps and Figure 3's cube, the cube built by the
        # snapshot model (a static database's state after every commit).
        interval_db, _ = rollback_faculty
        cube, _ = build_faculty(SnapshotModel)
        for probe in self.PROBES:
            assert (interval_db.rollback("faculty", probe)
                    == cube.state_at("faculty", probe)), probe


class TestIntervalStore:
    def test_figure_4_shape(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        assert isinstance(store, RollbackRelation)
        rows = {(row.data["name"], row.data["rank"],
                 row.tt.start.paper_format(), row.tt.end.paper_format())
                for row in store.rows}
        # The four rows of Figure 4 are all present.
        assert ("Merrie", "associate", "08/25/77", "12/15/82") in rows
        assert ("Merrie", "full", "12/15/82", "∞") in rows
        assert ("Tom", "associate", "12/07/82", "∞") in rows
        assert ("Mike", "assistant", "01/10/83", "02/25/84") in rows

    def test_current_rows_have_open_transaction_end(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        open_rows = [row for row in store.rows if row.tt.end.is_pos_inf]
        assert {row.data["name"] for row in open_rows} == {"Merrie", "Tom"}

    def test_insert_then_delete_in_one_transaction_leaves_no_row(self):
        clock = SimulatedClock("01/01/80")
        database = RollbackDatabase(clock=clock)
        database.define("faculty", faculty_schema())
        with database.begin() as txn:
            database.insert("faculty", {"name": "Ghost", "rank": "full"},
                            txn=txn)
            database.delete("faculty", {"name": "Ghost"}, txn=txn)
        store = database.store("faculty")
        assert not any(row.data["name"] == "Ghost" for row in store.rows)


class TestStatesStore:
    """Figure 3's sequence of states, read from Figure 4's stamps."""

    def test_one_state_per_transaction(self, rollback_faculty):
        database, _ = rollback_faculty
        # Six DML transactions drove the scenario.
        assert len(database.store("faculty").states()) == 6

    def test_states_are_cumulative_snapshots(self, rollback_faculty):
        database, _ = rollback_faculty
        states = database.store("faculty").states()
        cardinalities = [len(state) for _, state in states]
        assert cardinalities == [1, 2, 2, 2, 3, 2]

    def test_multiple_ops_one_transaction_one_state(self):
        clock = SimulatedClock("01/01/80")
        database = RollbackDatabase(clock=clock)
        database.define("faculty", faculty_schema())
        with database.begin() as txn:
            database.insert("faculty", {"name": "A", "rank": "full"}, txn=txn)
            database.insert("faculty", {"name": "B", "rank": "full"}, txn=txn)
        assert len(database.store("faculty").states()) == 1

    def test_a_transaction_that_changes_nothing_adds_no_state(self):
        # A duplicate insert and a delete that matches nothing commit, and
        # a cube stored per transaction would append a state for each;
        # the stamps record no change, so the view has one state per
        # change — the model's states less those two.
        database, clock = build_faculty(RollbackDatabase)
        model, model_clock = build_faculty(SnapshotModel)
        for db, at in ((database, clock), (model, model_clock)):
            at.set("06/01/84")
            db.insert("faculty", {"name": "Tom", "rank": "associate"})
            at.set("07/01/84")
            db.delete("faculty", {"name": "Nobody"})
        states = database.store("faculty").states()
        assert len(states) == 6
        assert len(model.states("faculty")) == 9  # with the define's
        assert states == model.changes("faculty")
        assert database.rollback("faculty", "07/01/84") == model.state_at(
            "faculty", "07/01/84")


class TestAppendOnly:
    """'Once a transaction has completed, the static relations ... may not
    be altered.'"""

    def test_past_states_unchanged_by_new_transactions(self, rollback_faculty):
        database, clock = rollback_faculty
        before = database.rollback("faculty", "12/10/82")
        clock.set("06/01/84")
        database.insert("faculty", {"name": "New", "rank": "assistant"})
        after = database.rollback("faculty", "12/10/82")
        assert before == after

    def test_delete_cannot_forget(self, rollback_faculty):
        # Mike was deleted from the current state, yet remains visible in
        # the past: "errors can sometimes be overridden ... but they cannot
        # be forgotten".
        database, _ = rollback_faculty
        assert not any(row["name"] == "Mike"
                       for row in database.snapshot("faculty"))
        past = database.rollback("faculty", "06/01/83")
        assert any(row["name"] == "Mike" for row in past)

    def test_rollback_results_are_immutable_values(self, rollback_faculty):
        database, _ = rollback_faculty
        state = database.rollback("faculty", "12/10/82")
        grown = state.insert_values(name="X", rank="full")
        # Deriving a new relation does not touch the store.
        assert database.rollback("faculty", "12/10/82") != grown


class TestStorageAccounting:
    def test_states_duplicate_storage_exceeds_interval(self):
        # The paper's claim: the cube representation is "impractical, due
        # to excessive duplication".  ``cube_cells`` is what the cube of
        # the model's states, one per change, would store.
        store = build_faculty(RollbackDatabase)[0].store("faculty")
        model, _ = build_faculty(SnapshotModel)
        arity = len(faculty_schema())
        assert store.cube_cells() == sum(
            len(state) * arity for _, state in model.changes("faculty"))
        assert store.cube_cells() > store.storage_cells()


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "one-at-a-time"])
@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "keyless"])
@pytest.mark.parametrize("kind", ["rollback", "temporal"])
def test_a_tuple_deleted_and_inserted_again_keeps_its_row(kind, keyed, fold):
    # The transaction leaves the state as it was, so it stamps nothing:
    # the row the delete closed is open again, the very same row — on the
    # working copy a transaction folds into and on a copy per operation.
    from tests.core.test_batch_fold_differential import (BASE, KINDS, build,
                                                         commit, one_at_a_time)
    database = build(KINDS[kind], keyed, [("insert", "a", 0, 0, None)])
    (row,) = database.store("r").rows
    database.manager.clock.source.set(BASE + 10)
    with contextlib.nullcontext() if fold else one_at_a_time():
        commit(database, [("delete", "a", 0, None, None),
                          ("insert", "a", 0, 0, None)])
    store = database.store("r")
    assert store.rows == (row,) and store.rows[0] is row
    assert [when for when, _ in store.states()] == [row.tt.start]
