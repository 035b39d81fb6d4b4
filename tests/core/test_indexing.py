"""Unit + property tests for the temporal indexes (interval trees)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (DatabaseIndexCache, HistoricalIndex, IntervalTree,
                        RollbackDatabase, TemporalDatabase,
                        TransactionTimeIndex)
from repro.relational import Domain, Schema, Tuple
from repro.storage import DurabilityManager
from repro.time import Instant, NEG_INF, POS_INF, Period, SimulatedClock
from repro.tquel import Session
from repro.workload import FacultyWorkload, apply_workload

from tests.conftest import build_faculty, faculty_schema
from tests.storage.test_stamps import faculty_store
from tests.core.interval_tree_reference import reference_build, shape

BASE = Instant.parse("01/01/80").chronon


def period(lo, hi):
    return Period(Instant.from_chronon(BASE + lo) if lo is not None else NEG_INF,
                  Instant.from_chronon(BASE + hi) if hi is not None else POS_INF)


class TestIntervalTree:
    def test_basic_stabbing(self):
        tree = IntervalTree([(period(0, 10), "a"), (period(5, 15), "b"),
                             (period(20, 30), "c")])
        assert sorted(tree.stab(Instant.from_chronon(BASE + 7))) == ["a", "b"]
        assert tree.stab(Instant.from_chronon(BASE + 17)) == []
        assert tree.stab(Instant.from_chronon(BASE + 25)) == ["c"]

    def test_half_open_boundaries(self):
        tree = IntervalTree([(period(0, 10), "a")])
        assert tree.stab(Instant.from_chronon(BASE + 0)) == ["a"]
        assert tree.stab(Instant.from_chronon(BASE + 9)) == ["a"]
        assert tree.stab(Instant.from_chronon(BASE + 10)) == []

    def test_unbounded_intervals(self):
        tree = IntervalTree([(period(None, 5), "past"),
                             (period(5, None), "future"),
                             (Period.always(), "always")])
        assert sorted(tree.stab(Instant.from_chronon(BASE + 3))) == [
            "always", "past"]
        assert sorted(tree.stab(Instant.from_chronon(BASE + 1000))) == [
            "always", "future"]

    def test_empty_tree(self):
        tree = IntervalTree([])
        assert tree.stab(Instant.from_chronon(BASE)) == []
        assert len(tree) == 0

    def test_identical_intervals(self):
        tree = IntervalTree([(period(0, 10), i) for i in range(5)])
        assert sorted(tree.stab(Instant.from_chronon(BASE + 5))) == [
            0, 1, 2, 3, 4]

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 25)),
                    max_size=40),
           st.integers(-5, 90))
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, raw, probe_offset):
        items = [(period(lo, lo + length), index)
                 for index, (lo, length) in enumerate(raw)]
        tree = IntervalTree(items)
        probe = Instant.from_chronon(BASE + probe_offset)
        expected = sorted(index for p, index in items if p.contains(probe))
        assert sorted(tree.stab(probe)) == expected

    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(0, 40)),
        st.one_of(st.none(), st.integers(41, 80))), max_size=25),
        st.integers(-10, 100))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_scan_with_unbounded(self, raw, probe_offset):
        items = [(period(lo, hi), index)
                 for index, (lo, hi) in enumerate(raw)]
        tree = IntervalTree(items)
        probe = Instant.from_chronon(BASE + probe_offset)
        expected = sorted(index for p, index in items if p.contains(probe))
        assert sorted(tree.stab(probe)) == expected


class TestBuildMatchesReference:
    """The build sorts each node's endpoints once; the tree it makes is
    the reference build's, node for node (tests/core/
    interval_tree_reference.py), so every answer comes in the same order.
    """

    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(0, 40)),
        st.one_of(st.none(), st.integers(1, 30))), max_size=60),
        st.lists(st.integers(0, 59), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_same_centres_and_orders(self, raw, repeats):
        items = [(period(lo, None if length is None else (lo or 0) + length),
                  index) for index, (lo, length) in enumerate(raw)]
        # Duplicates: the same interval and payload, again.
        items += [items[at] for at in repeats if at < len(items)]
        tree = IntervalTree(items)
        assert shape(tree._root) == shape(reference_build(tree._base))

    def test_lazy_counts_still_respect_multiplicity(self):
        tree = IntervalTree([(period(0, 10), "a")] * 2)
        assert tree._base_counts is None  # a build hashes no row
        assert tree.discard(period(0, 10), "a")
        assert tree.discard(period(0, 10), "a")
        assert not tree.discard(period(0, 10), "a")
        assert tree.stab(Instant.from_chronon(BASE + 5)) == []


class TestOverlapping:
    def test_basic(self):
        tree = IntervalTree([(period(0, 10), "a"), (period(5, 15), "b"),
                             (period(20, 30), "c")])
        assert sorted(tree.overlapping(period(8, 22))) == ["a", "b", "c"]
        assert tree.overlapping(period(16, 19)) == []

    def test_meeting_does_not_overlap(self):
        tree = IntervalTree([(period(0, 10), "a")])
        assert tree.overlapping(period(10, 20)) == []
        assert tree.overlapping(period(9, 20)) == ["a"]

    def test_unbounded_query(self):
        tree = IntervalTree([(period(0, 10), "a"), (period(50, 60), "b")])
        assert sorted(tree.overlapping(Period.always())) == ["a", "b"]

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 25)),
                    max_size=30),
           st.integers(-5, 80), st.integers(1, 30))
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, raw, query_lo, query_len):
        items = [(period(lo, lo + length), index)
                 for index, (lo, length) in enumerate(raw)]
        tree = IntervalTree(items)
        query = period(query_lo, query_lo + query_len)
        expected = sorted(index for p, index in items if p.overlaps(query))
        assert sorted(tree.overlapping(query)) == expected


class TestRelationIndexes:
    def test_historical_index_matches_timeslice(self, historical_faculty):
        database, _ = historical_faculty
        history = database.history("faculty")
        index = HistoricalIndex(history)
        for probe in ("08/31/77", "09/01/77", "12/06/82", "06/01/83",
                      "03/01/84"):
            assert index.timeslice(probe) == history.timeslice(probe), probe

    def test_historical_index_of_a_plain_value_rebuilds(self,
                                                        historical_faculty):
        # A plain HistoricalRelation has no lineage: nothing to patch from.
        database, _ = historical_faculty
        history = database.history("faculty")
        index = HistoricalIndex(history)
        assert index.update(history.select(lambda row: True)) is None
        assert index.update(database.store("faculty")) is None

    def test_rollback_index_matches_rollback(self, rollback_faculty):
        database, _ = rollback_faculty
        store = database.store("faculty")
        index = TransactionTimeIndex(store)
        for probe in ("01/01/77", "08/25/77", "12/10/82", "06/01/83",
                      "01/01/85"):
            assert index.rollback(probe) == store.rollback(probe), probe

    def test_bitemporal_index_matches_both_axes(self, temporal_faculty):
        database, _ = temporal_faculty
        relation = database.temporal("faculty")
        index = TransactionTimeIndex(relation)
        for as_of in ("12/06/82", "12/10/82", "12/20/82", "06/01/84"):
            assert index.rollback(as_of) == relation.rollback(as_of), as_of
            for valid_at in ("12/06/82", "06/01/83"):
                assert index.timeslice(valid_at, as_of) == \
                    relation.timeslice(valid_at, as_of), (valid_at, as_of)

    def test_at_workload_scale(self):
        database = TemporalDatabase(clock=SimulatedClock("01/01/79"))
        apply_workload(database, FacultyWorkload(people=15, seed=3))
        relation = database.temporal("faculty")
        index = TransactionTimeIndex(relation)
        probes = [Instant.from_chronon(BASE + offset)
                  for offset in range(0, 1500, 97)]
        for probe in probes:
            assert index.rollback(probe) == relation.rollback(probe)


class TestDatabaseIndexCache:
    def test_serves_current_answers(self, temporal_faculty):
        database, _ = temporal_faculty
        cache = DatabaseIndexCache(database)
        assert cache.bitemporal("faculty").rollback("12/10/82") == \
            database.rollback("faculty", "12/10/82")

    def test_reuses_until_commit(self, temporal_faculty):
        database, _ = temporal_faculty
        cache = DatabaseIndexCache(database)
        first = cache.bitemporal("faculty")
        second = cache.bitemporal("faculty")
        assert first is second

    def test_invalidates_on_commit(self, temporal_faculty):
        database, clock = temporal_faculty
        cache = DatabaseIndexCache(database)
        stale = cache.bitemporal("faculty")
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "assistant"},
                        valid_from="06/01/85")
        fresh = cache.bitemporal("faculty")
        assert fresh is not stale
        # And the fresh index sees the new fact.
        assert any(row.data["name"] == "New"
                   for row in fresh.rollback("06/01/85").rows)

    def test_rollback_and_historical_flavours(self, rollback_faculty,
                                              historical_faculty):
        rollback_db, _ = rollback_faculty
        cache = DatabaseIndexCache(rollback_db)
        assert cache.rollback("faculty").rollback("12/10/82") == \
            rollback_db.rollback("faculty", "12/10/82")
        historical_db, _ = historical_faculty
        cache2 = DatabaseIndexCache(historical_db)
        assert cache2.historical("faculty").timeslice("06/01/83") == \
            historical_db.timeslice("faculty", "06/01/83")


class TestIntervalTreeOverlay:
    """Edits land in the delta overlay and fold in at the rebuild threshold."""

    def test_insert_visible_without_rebuild(self):
        tree = IntervalTree([(period(0, 10), "a")])
        tree.insert(period(5, 15), "b")
        assert tree.pending_edits == 1
        assert tree.size == 2
        assert sorted(tree.stab(Instant.from_chronon(BASE + 7))) == ["a", "b"]
        assert tree.overlapping(period(12, 20)) == ["b"]

    def test_discard_respects_duplicate_multiplicity(self):
        tree = IntervalTree([(period(0, 10), "a"), (period(0, 10), "a")])
        probe = Instant.from_chronon(BASE + 5)
        assert tree.discard(period(0, 10), "a")
        assert tree.stab(probe) == ["a"]
        assert tree.discard(period(0, 10), "a")
        assert tree.stab(probe) == []
        assert not tree.discard(period(0, 10), "a")

    def test_discard_from_overlay(self):
        tree = IntervalTree([])
        tree.insert(period(0, 10), "a")
        assert tree.discard(period(0, 10), "a")
        assert tree.size == 0
        assert tree.stab(Instant.from_chronon(BASE + 5)) == []

    def test_threshold_rebuild_folds_edits(self):
        tree = IntervalTree([(period(i, i + 1), i) for i in range(4)])
        edits = IntervalTree.REBUILD_MIN + 8
        for j in range(edits):
            tree.insert(period(j, j + 2), 100 + j)
        # The threshold fired at least once, folding edits into the base.
        assert tree.pending_edits < edits
        assert tree.size == 4 + edits
        probe = Instant.from_chronon(BASE + 2)
        expected = [2, 101, 102]  # [2,3), [1,3) and [2,4) contain +2
        assert sorted(tree.stab(probe)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(0, 20), st.integers(1, 10),
                              st.integers(0, 3)),
                    max_size=40))
    def test_edit_sequence_matches_list_model(self, ops):
        tree = IntervalTree([])
        model = []
        for is_insert, lo, width, payload in ops:
            item = (period(lo, lo + width), payload)
            if is_insert or item not in model:
                tree.insert(*item)
                model.append(item)
            else:
                assert tree.discard(*item)
                model.remove(item)
        assert tree.size == len(model)
        for point in range(0, 32, 3):
            probe = Instant.from_chronon(BASE + point)
            expected = sorted(payload for prd, payload in model
                              if prd.contains(probe))
            assert sorted(tree.stab(probe)) == expected


class TestIncrementalCacheMaintenance:
    def test_unrelated_commit_keeps_cache_warm(self, temporal_faculty):
        # The acceptance criterion: a commit against relation B must not
        # invalidate (or rebuild) relation A's cached index.
        database, clock = temporal_faculty
        database.define("other", Schema.of(name=Domain.STRING))
        cache = database.index_cache
        warm = cache.bitemporal("faculty")
        hits = cache.hits
        misses = cache.misses
        clock.set("06/01/85")
        database.insert("other", {"name": "noise"}, valid_from="06/01/85")
        again = cache.bitemporal("faculty")
        assert again is warm
        assert cache.hits == hits + 1
        assert cache.misses == misses

    def test_default_query_path_uses_cache(self, temporal_faculty):
        database, _ = temporal_faculty
        first = database.rollback("faculty", "12/10/82")
        cache = database.index_cache
        misses = cache.misses
        second = database.rollback("faculty", "12/10/82")
        assert second == first
        assert cache.misses == misses
        assert cache.hits >= 1

    def test_commit_patches_index_incrementally(self, temporal_faculty):
        database, clock = temporal_faculty
        cache = database.index_cache
        stale = cache.bitemporal("faculty")
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "assistant"},
                        valid_from="06/01/85")
        patched = cache.incremental_updates
        fresh = cache.bitemporal("faculty")
        assert cache.incremental_updates == patched + 1
        assert fresh is not stale
        relation = database.temporal("faculty")
        assert fresh.rollback("06/01/85") == relation.rollback("06/01/85")
        assert fresh.rollback("12/10/82") == relation.rollback("12/10/82")

    def test_index_disabled_still_answers(self, temporal_faculty):
        indexed, _ = temporal_faculty
        plain = TemporalDatabase(clock=SimulatedClock("01/01/79"))
        apply_workload(plain, FacultyWorkload(people=6, seed=1))
        bare = plain.store("faculty")  # the store's own scan: no tree
        assert plain.rollback("faculty", "12/10/82") == \
            bare.rollback("12/10/82")


# ---------------------------------------------------------------------------
# Transaction time is append-only, so its index is too: count guards
# ---------------------------------------------------------------------------

class TestTransactionTimeUpkeep:
    @pytest.mark.parametrize("factory", [TemporalDatabase, RollbackDatabase])
    def test_commits_patch_the_index_by_inserts_only(self, monkeypatch,
                                                     factory):
        clock = SimulatedClock(Instant.from_chronon(BASE))
        database = factory(clock=clock)
        database.define("faculty", faculty_schema())
        valid = ({"valid_from": Instant.from_chronon(BASE)}
                 if database.supports_historical_queries else {})
        for key in range(16):
            database.insert("faculty", {"name": f"n{key:02d}",
                                        "rank": "full"}, **valid)
        database.rollback("faculty", Instant.from_chronon(BASE))  # built
        discards, periods, upkeep = [], [], []
        discard, build = IntervalTree.discard, Period.__init__
        update = TransactionTimeIndex.update
        monkeypatch.setattr(IntervalTree, "discard", lambda self, *args:
                            discards.append(1) or discard(self, *args))

        def counted_build(self, *args, **kwargs):
            if upkeep:
                periods.append(1)
            build(self, *args, **kwargs)

        def counted_update(self, relation):
            upkeep.append(1)
            try:
                return update(self, relation)
            finally:
                upkeep.pop()

        monkeypatch.setattr(Period, "__init__", counted_build)
        monkeypatch.setattr(TransactionTimeIndex, "update", counted_update)
        patches = database.index_cache.incremental_updates
        for step in range(200):
            clock.set(Instant.from_chronon(BASE + 1 + step))
            database.replace("faculty", {"name": f"n{step % 16:02d}"},
                             {"rank": ("assistant", "associate")[step % 2]},
                             **valid)
            database.rollback("faculty",
                              Instant.from_chronon(BASE + step // 2))
        monkeypatch.undo()
        assert database.index_cache.incremental_updates == patches + 200
        assert discards == [] and periods == []

    @pytest.mark.parametrize("factory", [TemporalDatabase, RollbackDatabase])
    def test_a_keyed_read_after_a_restart_walks_one_key(self, tmp_path,
                                                        monkeypatch, factory):
        directory = str(tmp_path)
        live = faculty_store(directory, factory, 2048)
        recovered, _ = DurabilityManager(directory).recover(factory)
        query = 'retrieve (f.rank) where f.name = "n03" as of "06/01/82"'
        trees, keys = [], []
        tree, key = IntervalTree.__init__, Tuple.key
        monkeypatch.setattr(IntervalTree, "__init__", lambda self, items:
                            trees.append(1) or tree(self, items))
        monkeypatch.setattr(Tuple, "key", lambda self:
                            keys.append(1) or key(self))
        session = Session(recovered)
        session.execute("range of f is faculty")
        answer = session.query(query)
        candidates = session.explain_plan(query)["variables"]["f"][
            "candidates"]
        monkeypatch.undo()
        assert trees == [] and keys == []
        versions = [row for row in live.store("faculty").rows
                    if row.data["name"] == "n03"]
        assert 1 <= candidates <= len(versions)
        naive = Session(recovered, plan="naive")
        naive.execute("range of f is faculty")
        assert answer == naive.query(query)

    def test_a_patch_runs_under_the_cache_lock(self, monkeypatch,
                                               temporal_faculty):
        # Versions share the tree and chains, and reads run on several
        # threads: two readers patching one stale version would insert
        # the same closed rows twice.
        database, clock = temporal_faculty
        cache = database.index_cache
        cache.bitemporal("faculty").visible("12/10/82")  # tree built
        held, update = [], TransactionTimeIndex.update
        monkeypatch.setattr(TransactionTimeIndex, "update",
                            lambda self, relation: held.append(
                                cache._lock.locked()) or update(self, relation))
        clock.set("06/01/85")
        database.replace("faculty", {"name": "Tom"}, {"rank": "full"},
                         valid_from="06/01/85")
        index = cache.bitemporal("faculty")
        assert held == [True]
        assert index._tree.size == len(index.relation.closed_since())
