"""Unit + property tests for the transaction-time index (interval trees)."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (DatabaseIndexCache, IntervalTree, RollbackDatabase,
                        TemporalDatabase, TransactionTimeIndex)
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
        assert shape(tree._parts[0]) == shape(reference_build(tree._base))


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
                assert index.rollback(as_of).timeslice(valid_at) == \
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
        assert cache.transaction_time("faculty").rollback("12/10/82") == \
            database.rollback("faculty", "12/10/82")

    def test_reuses_until_commit(self, temporal_faculty):
        database, _ = temporal_faculty
        cache = DatabaseIndexCache(database)
        first = cache.transaction_time("faculty")
        second = cache.transaction_time("faculty")
        assert first is second

    def test_invalidates_on_commit(self, temporal_faculty):
        database, clock = temporal_faculty
        cache = DatabaseIndexCache(database)
        stale = cache.transaction_time("faculty")
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "assistant"},
                        valid_from="06/01/85")
        fresh = cache.transaction_time("faculty")
        assert fresh is not stale
        # And the fresh index sees the new fact.
        assert any(row.data["name"] == "New"
                   for row in fresh.rollback("06/01/85").rows)

    def test_rollback_and_historical_flavours(self, rollback_faculty,
                                              historical_faculty):
        rollback_db, _ = rollback_faculty
        cache = DatabaseIndexCache(rollback_db)
        assert cache.transaction_time("faculty").rollback("12/10/82") == \
            rollback_db.rollback("faculty", "12/10/82")
        # Valid time is modified arbitrarily: it has no index, and a
        # timeslice is one scan of the current state.
        historical_db, _ = historical_faculty
        history = historical_db.history("faculty")
        for probe in ("08/31/77", "09/01/77", "12/06/82", "06/01/83"):
            assert historical_db.timeslice("faculty", probe) == \
                history.timeslice(probe), probe
        assert historical_db.index_cache.misses == 0


class TestIntervalTreeOverlay:
    """Inserts land in the overlay and fold in at the rebuild threshold."""

    def test_insert_visible_without_rebuild(self):
        tree = IntervalTree([(period(0, 10), "a")])
        tree.insert(period(5, 15), "b")
        assert tree.pending_edits == 1
        assert tree.size == 2
        assert sorted(tree.stab(Instant.from_chronon(BASE + 7))) == ["a", "b"]
        assert tree.overlapping(period(12, 20)) == ["b"]

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
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 10),
                              st.integers(0, 3)), max_size=12),
           st.lists(st.tuples(st.integers(0, 20), st.integers(1, 10),
                              st.integers(0, 3)), max_size=80))
    def test_edit_sequence_matches_list_model(self, built, inserted):
        # Inserts only (duplicates included), across several folds.
        model = [(period(lo, lo + width), payload)
                 for lo, width, payload in built]
        tree = IntervalTree(model)
        for lo, width, payload in inserted:
            item = (period(lo, lo + width), payload)
            tree.insert(*item)
            model.append(item)
            assert tree.size == len(model)
        for point in range(0, 32, 3):
            probe = Instant.from_chronon(BASE + point)
            expected = sorted(payload for prd, payload in model
                              if prd.contains(probe))
            assert sorted(tree.stab(probe)) == expected
        query = period(5, 12)
        assert sorted(tree.overlapping(query)) == sorted(
            payload for prd, payload in model if prd.overlaps(query))

    def test_a_stab_spanning_a_fold_keeps_its_overlay(self):
        # A stab reads the tree and its overlay while another thread's
        # insert folds the overlay into a new tree: it must answer from
        # one pair, not from the old tree and the new (empty) overlay.
        hook = []

        class End(float):
            """A period end whose comparisons, once armed, run the hook."""

            def __gt__(self, other):
                while hook:
                    hook.pop()()
                return float.__gt__(self, other)

            def __le__(self, other):
                while hook:
                    hook.pop()()
                return float.__le__(self, other)

        class Hooked:  # what the tree reads of a period
            lo, hi, unit = BASE + 50, End(BASE + 60), period(0, 1).unit

        tree = IntervalTree([(period(i, i + 100), ("base", i))
                             for i in range(4)] + [(Hooked, "hooked")])
        for j in range(IntervalTree.REBUILD_MIN):
            tree.insert(period(j, j + 100), ("extra", j))
        assert tree.pending_edits == IntervalTree.REBUILD_MIN  # one more folds

        def fold():
            thread = threading.Thread(target=tree.insert,
                                      args=(period(0, 100), "late"))
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()

        hook.append(fold)
        found = tree.stab(Instant.from_chronon(BASE + 55))
        assert not hook and tree.pending_edits == 0  # it folded mid-stab
        expected = {("base", i) for i in range(4)} | {"hooked"}
        expected |= {("extra", j) for j in range(IntervalTree.REBUILD_MIN)}
        assert expected <= set(found)


class TestIncrementalCacheMaintenance:
    def test_unrelated_commit_keeps_cache_warm(self, temporal_faculty):
        # The acceptance criterion: a commit against relation B must not
        # invalidate (or rebuild) relation A's cached index.
        database, clock = temporal_faculty
        database.define("other", Schema.of(name=Domain.STRING))
        cache = database.index_cache
        warm = cache.transaction_time("faculty")
        hits = cache.hits
        misses = cache.misses
        clock.set("06/01/85")
        database.insert("other", {"name": "noise"}, valid_from="06/01/85")
        again = cache.transaction_time("faculty")
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
        stale = cache.transaction_time("faculty")
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "assistant"},
                        valid_from="06/01/85")
        patched = cache.incremental_updates
        fresh = cache.transaction_time("faculty")
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
        periods, upkeep = [], []
        build, update = Period.__init__, TransactionTimeIndex.update

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
        assert periods == []

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
        cache.transaction_time("faculty").visible("12/10/82")  # tree built
        held, update = [], TransactionTimeIndex.update
        monkeypatch.setattr(TransactionTimeIndex, "update",
                            lambda self, relation: held.append(
                                cache._lock.locked()) or update(self, relation))
        clock.set("06/01/85")
        database.replace("faculty", {"name": "Tom"}, {"rank": "full"},
                         valid_from="06/01/85")
        index = cache.transaction_time("faculty")
        assert held == [True]
        assert index._closed.tree.size == len(index.relation.closed_since())

    @pytest.mark.parametrize("factory", [TemporalDatabase, RollbackDatabase])
    def test_a_stale_wrapper_answers_for_its_own_version(self, factory):
        # Versions share the closed rows' tree and chains: once a later
        # read patches them, a wrapper taken before a commit must not see
        # the row that commit closed beside its own open twin.
        clock = SimulatedClock(Instant.from_chronon(BASE))
        database = factory(clock=clock)
        database.define("faculty", faculty_schema())
        valid = ({"valid_from": Instant.from_chronon(BASE)}
                 if database.supports_historical_queries else {})
        for key in range(40):
            database.insert("faculty", {"name": f"n{key:02d}",
                                        "rank": "full"}, **valid)
        pin = database.manager.clock.last
        stale = database._indexed("faculty")
        assert len(stale.visible(pin)) == 40  # the tree is built
        assert stale.under_key({"name": "n07"}, pin)  # and the chains
        store = stale.relation
        clock.set(Instant.from_chronon(BASE + 100))
        database.replace("faculty", {"name": "n07"}, {"rank": "assistant"},
                         **valid)
        assert len(database.rollback("faculty", pin)) == 40  # patches
        assert stale._closed.tree.size == 1  # shared, patched
        assert Counter(stale.visible(pin)) == Counter(store.visible(pin))
        assert stale.rollback(pin) == store.rollback(pin)
        assert len(stale.rollback(pin)) == 40
        whole = Period(Instant.from_chronon(BASE), POS_INF)
        assert (Counter(stale.overlapping(whole))
                == Counter(store.overlapping(whole)))
        assert (Counter(stale.under_key({"name": "n07"}, pin))
                == Counter(row for row in store.visible(pin)
                           if row.data["name"] == "n07"))

    def test_racing_readers_and_patches_answer_for_their_versions(self):
        # Readers take the cache's wrapper and stab it on several threads
        # while commits close rows and other reads patch (and fold) the
        # shared tree: every answer is its own version's state at the pin.
        clock = SimulatedClock(Instant.from_chronon(BASE))
        database = TemporalDatabase(clock=clock)
        database.define("faculty", faculty_schema())
        valid = {"valid_from": Instant.from_chronon(BASE)}
        for key in range(40):
            database.insert("faculty", {"name": f"n{key:02d}",
                                        "rank": "full"}, **valid)
        pin = database.manager.clock.last
        expected = database.rollback("faculty", pin)
        wrong, stop = [], threading.Event()

        def reader():
            while not stop.is_set():
                index = database._indexed("faculty")  # held across patches
                for _ in range(10):
                    answer = index.rollback(pin)
                    if len(answer) != 40 or answer != expected:
                        wrong.append(len(answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in readers:
                thread.start()
            for step in range(120):
                clock.set(Instant.from_chronon(BASE + 100 + step))
                database.replace("faculty", {"name": f"n{step % 40:02d}"},
                                 {"rank": ("assistant", "full")[step % 2]},
                                 **valid)
                if len(database.rollback("faculty", pin)) != 40:  # patches
                    wrong.append("writer")
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert wrong == []
        assert database.index_cache.incremental_updates > 0
