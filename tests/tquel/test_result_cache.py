"""The as-of result cache: flavors, invalidation, and the staleness bar.

The contract (docs/QUERY_PLANNING.md): an entry is **immutable** only
when the pinned instant is at or before the relation's last commit and
every cached row's transaction period is closed; everything else is
**epoch-bound** and dies with the next commit to its relation.  The
load-bearing test is `test_commit_never_serves_stale_result` — a commit
to an open store must be visible to the very next query, cached or not.
"""

import pytest

from repro.core import TemporalDatabase
from repro.core.resultcache import ResultCache
from repro.tquel import Session

from tests.conftest import build_faculty


def faculty_session(**db_kwargs):
    database, clock = build_faculty(TemporalDatabase, **db_kwargs)
    session = Session(database)
    session.execute("range of f is faculty")
    return session, database, clock


class TestFlavors:
    def test_closed_pin_is_cached_immutably(self):
        # Every row Merrie contributes as of 12/10/82 was later closed,
        # and the pin is before the last commit: cache forever.  (Not
        # `f.name = "Merrie"`: a keyed read walks the key's versions and
        # never reaches the cache.)
        session, database, _ = faculty_session()
        query = 'retrieve (f.rank) where f.name != "Tom" as of "12/10/82"'
        session.query(query)
        described = database.result_cache.describe()
        assert described == {**described, "immutable_entries": 1,
                             "epoch_entries": 0}
        session.query(query)
        assert database.result_cache.hits == 1

    def test_open_candidate_forces_epoch_entry(self):
        # Tom's rank=associate row is still open (tt [12/07/82, inf)):
        # a later commit would rewrite its period, so even a past pin
        # cannot be immutable.
        session, database, _ = faculty_session()
        session.query('retrieve (f.rank) where f.name != "Merrie" '
                      'as of "12/10/82"')
        described = database.result_cache.describe()
        assert described["immutable_entries"] == 0
        assert described["epoch_entries"] == 1

    def test_default_state_query_is_epoch_bound(self):
        session, database, _ = faculty_session()
        session.query("retrieve (f.name, f.rank)")
        assert database.result_cache.describe()["epoch_entries"] == 1

    def test_now_dependent_when_stays_correct_across_clock_advance(self):
        # The cache may reuse the candidate *stream* (epoch-bound), but
        # a now-dependent `when` is never baked into a cached entry —
        # advancing the clock with NO commit must still change the
        # answer.  Mike's validity ends 03/01/84.
        session, database, clock = faculty_session()
        query = "retrieve (f.name) when f overlap now"
        before = {row.data["name"] for row in session.query(query).rows}
        assert "Mike" in before
        clock.set("06/01/84")
        after = {row.data["name"] for row in session.query(query).rows}
        assert "Mike" not in after
        assert after == before - {"Mike"}


class TestInvalidation:
    def test_commit_never_serves_stale_result(self):
        session, database, clock = faculty_session()
        query = "retrieve (f.name, f.rank)"
        before = {tuple(row.data.values) for row in session.query(query).rows}
        assert session.query(query) is not None  # warm: entry now cached
        clock.set("03/01/84")
        database.insert("faculty", {"name": "Jane", "rank": "assistant"},
                        valid_from="03/01/84")
        after = {tuple(row.data.values) for row in session.query(query).rows}
        assert after == before | {("Jane", "assistant")}
        assert database.result_cache.invalidations >= 1

    def test_commit_keeps_immutable_entries_live(self):
        session, database, clock = faculty_session()
        query = 'retrieve (f.rank) where f.name != "Tom" as of "12/10/82"'
        first = session.query(query)
        clock.set("03/01/84")
        database.insert("faculty", {"name": "Jane", "rank": "assistant"},
                        valid_from="03/01/84")
        hits_before = database.result_cache.hits
        again = session.query(query)
        assert database.result_cache.hits == hits_before + 1
        assert [r.data["rank"] for r in again.rows] == \
            [r.data["rank"] for r in first.rows]

    def test_commit_to_other_relation_does_not_invalidate(self):
        session, database, clock = faculty_session()
        session.execute("create course (title = string) key (title)")
        session.query("retrieve (f.name, f.rank)")
        clock.set("03/01/84")
        database.insert("course", {"title": "Databases"},
                        valid_from="03/01/84")
        hits_before = database.result_cache.hits
        session.query("retrieve (f.name, f.rank)")
        assert database.result_cache.hits == hits_before + 1
        assert database.result_cache.invalidations == 0

    def test_ddl_purges_even_immutable_entries(self):
        session, database, _ = faculty_session()
        session.query('retrieve (f.rank) where f.name != "Tom" '
                      'as of "12/10/82"')
        assert database.result_cache.describe()["immutable_entries"] == 1
        database.drop("faculty")
        assert len(database.result_cache) == 0

    def test_forced_plans_bypass_the_cache(self):
        for mode in ("naive", "index", "columnar"):
            database, _ = build_faculty(TemporalDatabase)
            session = Session(database, plan=mode)
            session.execute("range of f is faculty")
            session.query('retrieve (f.rank) where f.name = "Merrie" '
                          'as of "12/10/82"')
            assert len(database.result_cache) == 0, mode


class TestLRU:
    def test_capacity_evicts_least_recently_used(self):
        database, _ = build_faculty(TemporalDatabase)
        cache = ResultCache(database, capacity=2)
        cache.put("faculty", "a", "p", 1, immutable=True)
        cache.put("faculty", "b", "p", 2, immutable=True)
        assert cache.get("faculty", "a", "p") == 1  # refresh a
        cache.put("faculty", "c", "p", 3, immutable=True)
        assert cache.evictions == 1
        assert cache.get("faculty", "b", "p") is None  # b was LRU
        assert cache.get("faculty", "a", "p") == 1
        assert cache.get("faculty", "c", "p") == 3

    def test_capacity_must_be_positive(self):
        database, _ = build_faculty(TemporalDatabase)
        with pytest.raises(ValueError):
            ResultCache(database, capacity=0)

    def test_purge_counts_invalidations(self):
        database, _ = build_faculty(TemporalDatabase)
        cache = ResultCache(database, capacity=8)
        cache.put("faculty", "a", "p", 1, immutable=True)
        cache.put("other", "a", "p", 2, immutable=True)
        assert cache.purge("faculty") == 1
        assert cache.invalidations == 1
        assert cache.get("other", "a", "p") == 2
