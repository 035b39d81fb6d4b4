"""Per-shard footprints: the false sharing the shard layer removes.

There is one session layer; everything shard-shaped here is the sharded
store answering the layer's seam (docs/CONCURRENCY.md).
"""

import threading

import pytest

from repro.concurrency import ConcurrentSession, SessionLayer
from repro.core import StaticDatabase, TemporalDatabase
from repro.errors import ConflictError, ShardConfigError
from repro.relational import Domain, Schema
from repro.sharding import ShardedDatabase
from repro.time import SimulatedClock

BASE = "01/01/80"


@pytest.fixture
def store():
    db = ShardedDatabase(StaticDatabase, shards=4,
                         clock=SimulatedClock(BASE))
    db.define("counters",
              Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER))
    for i in range(16):
        db.insert("counters", {"k": f"k{i}", "v": 0})
    return db


def keys_by_shard(store):
    """One resident key per shard id."""
    placed = {}
    for i in range(16):
        key = f"k{i}"
        placed.setdefault(store.shard_of_key("counters", {"k": key}), key)
    assert len(placed) == store.shards
    return placed


def footprint_shards(session):
    """Every shard id named by the session's ``relation@shard`` keys."""
    return sorted({int(key.rpartition("@")[2]) for key in session.footprint})


class TestFootprints:
    def test_sessions_returns_the_one_layer(self, store):
        layer = store.sessions()
        assert type(layer) is SessionLayer
        assert type(layer.begin()) is ConcurrentSession

    def test_keyed_write_touches_one_shard(self, store):
        layer = store.sessions()
        with layer.begin() as session:
            session.replace("counters", {"k": "k0"}, {"v": 1})
            assert footprint_shards(session) == [
                store.shard_of_key("counters", {"k": "k0"})]

    def test_get_touches_only_the_owning_shard(self, store):
        layer = store.sessions()
        session = layer.begin()
        rows = session.get("counters", {"k": "k3"})
        assert [row["v"] for row in rows] == [0]
        assert footprint_shards(session) == [
            store.shard_of_key("counters", {"k": "k3"})]
        session.abort()

    def test_get_requires_the_full_key(self, store):
        layer = store.sessions()
        session = layer.begin()
        with pytest.raises(ShardConfigError):
            session.get("counters", {"v": 0})
        session.abort()

    def test_whole_relation_read_touches_every_shard(self, store):
        layer = store.sessions()
        session = layer.begin()
        session.read("counters")
        assert footprint_shards(session) == list(range(store.shards))
        session.abort()

    def test_unroutable_delete_broadcasts(self, store):
        layer = store.sessions()
        with layer.begin() as session:
            session.delete("counters", {"v": 0})
            assert footprint_shards(session) == list(range(store.shards))
        assert store.snapshot("counters").cardinality == 0


class TestConflicts:
    def test_different_shards_do_not_conflict(self, store):
        placed = keys_by_shard(store)
        layer = store.sessions()
        first, second = layer.begin(), layer.begin()
        first.replace("counters", {"k": placed[0]}, {"v": 1})
        second.replace("counters", {"k": placed[1]}, {"v": 2})
        first.commit()
        second.commit()  # no ConflictError: disjoint pipelines
        rows = {r["k"]: r["v"] for r in store.snapshot("counters")}
        assert rows[placed[0]] == 1 and rows[placed[1]] == 2

    def test_same_shard_still_conflicts(self, store):
        layer = store.sessions()
        first, second = layer.begin(), layer.begin()
        first.replace("counters", {"k": "k5"}, {"v": 1})
        second.replace("counters", {"k": "k5"}, {"v": 2})
        first.commit()
        with pytest.raises(ConflictError):
            second.commit()

    def test_conflict_names_the_stale_shard(self, store):
        sid = store.shard_of_key("counters", {"k": "k5"})
        layer = store.sessions()
        first, second = layer.begin(), layer.begin()
        first.replace("counters", {"k": "k5"}, {"v": 1})
        second.replace("counters", {"k": "k5"}, {"v": 2})
        first.commit()
        with pytest.raises(ConflictError) as caught:
            second.commit()
        assert list(caught.value.relations) == [f"counters@{sid}"]

    def test_whole_relation_reader_conflicts_with_any_write(self, store):
        layer = store.sessions()
        reader, writer = layer.begin(), layer.begin()
        reader.read("counters")
        writer.replace("counters", {"k": "k1"}, {"v": 9})
        writer.commit()
        reader.replace("counters", {"k": "k2"}, {"v": 1})
        with pytest.raises(ConflictError):
            reader.commit()


class TestFootprintLocks:
    """The coordinator locks the footprint's shards and no others."""

    @staticmethod
    def record_acquires(store, monkeypatch):
        taken = []
        acquire = store.coordinator._acquire

        def spy(shard_ids):
            taken.append(sorted(shard_ids))
            return acquire(shard_ids)

        monkeypatch.setattr(store.coordinator, "_acquire", spy)
        return taken

    def test_keyed_commit_locks_only_its_shard(self, store, monkeypatch):
        sid = store.shard_of_key("counters", {"k": "k5"})
        taken = self.record_acquires(store, monkeypatch)
        with store.sessions().begin() as session:
            session.get("counters", {"k": "k5"})
            session.replace("counters", {"k": "k5"}, {"v": 1})
        assert taken == [[sid]]

    def test_read_only_certify_locks_only_its_shards(self, store,
                                                     monkeypatch):
        placed = keys_by_shard(store)
        session = store.sessions().begin()
        session.get("counters", {"k": placed[1]})
        session.get("counters", {"k": placed[2]})
        taken = self.record_acquires(store, monkeypatch)
        session.commit()
        assert taken == [[1, 2]]

    def test_commit_proceeds_while_another_shard_is_locked(self, store):
        placed = keys_by_shard(store)
        other = store.shard_databases[1].manager.serialization_lock
        locked, release = threading.Event(), threading.Event()

        def hold():
            with other:
                locked.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert locked.wait(timeout=30)
        try:
            done = threading.Event()

            def commit():
                with store.sessions().begin() as session:
                    session.replace("counters", {"k": placed[0]}, {"v": 7})
                done.set()

            writer = threading.Thread(target=commit, daemon=True)
            writer.start()
            assert done.wait(timeout=30)  # never queued behind shard 1
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()


class TestCommitTokens:
    def test_commit_token_is_the_vector(self, store):
        layer = store.sessions()
        with layer.begin() as session:
            session.replace("counters", {"k": "k0"}, {"v": 1})
        assert session.commit_token == store.log.vector()
        assert len(session.commit_token) == store.shards

    def test_read_only_session_certifies_without_committing(self, store):
        layer = store.sessions()
        before = store.log.vector()
        session = layer.begin()
        session.get("counters", {"k": "k0"})
        assert session.commit() is None
        assert store.log.vector() == before
        assert session.commit_token == before

    def test_cross_shard_session_commits_atomically(self, store):
        placed = keys_by_shard(store)
        layer = store.sessions()
        with layer.begin() as session:
            session.replace("counters", {"k": placed[0]}, {"v": 10})
            session.replace("counters", {"k": placed[3]}, {"v": 30})
        after = store.log.vector()
        rows = {r["k"]: r["v"] for r in store.snapshot("counters")}
        assert rows[placed[0]] == 10 and rows[placed[3]] == 30
        assert session.commit_time is not None
        # both involved shards logged the batch
        assert after[0] >= 1 and after[3] >= 1


class TestLayerRun:
    def test_run_retries_same_shard_contention(self, store):
        layer = store.sessions()

        def bump(session):
            rows = session.get("counters", {"k": "k7"})
            session.replace("counters", {"k": "k7"},
                            {"v": rows[0]["v"] + 1})

        for _ in range(5):
            layer.run(bump)
        rows = {r["k"]: r["v"] for r in store.snapshot("counters")}
        assert rows["k7"] == 5

    def test_temporal_kind_sessions_work(self):
        db = ShardedDatabase(TemporalDatabase, shards=3,
                             clock=SimulatedClock(BASE))
        db.define("counters",
                  Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER))
        layer = db.sessions()
        with layer.begin() as session:
            session.insert("counters", {"k": "a", "v": 1}, valid_from=BASE)
        assert len(db.history("counters")) == 1
