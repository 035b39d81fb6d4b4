"""Property test: sealed history never changes what recovery rebuilds.

A random stream of everything that moves a store's closed partition, or
replaces its lineage, runs against a durable database — DML, checkpoints,
restarts, drop + redefine, snapshot adoption, vacuuming — and after every
step three ways of arriving at the state must agree by digest: the live
database, ``recover()`` (newest checkpoint + the history files it names +
the journal tail) and, while the journal still describes the state,
``recover(use_checkpoint=False)``.  Every checkpoint published must read
back (``read_checkpoint``) as the whole ``dump_database`` shape, and its
manifest must name every closed row of the live store exactly once.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RollbackDatabase, TemporalDatabase, vacuum_store
from repro.core.transaction_time import TransactionTimeStore
from repro.relational import Domain, Schema
from repro.replication import state_digest
from repro.storage import (DurabilityManager, audit_directory, dump_database,
                           load_database, read_checkpoint)

RELATIONS = ("r", "s")
KEYS = ("a", "b", "c")

FACTORIES = {
    "rollback-interval": RollbackDatabase,
    "temporal": TemporalDatabase,
}

steps = st.lists(st.one_of(
    st.tuples(st.just("dml"), st.sampled_from(RELATIONS),
              st.sampled_from(KEYS), st.integers(0, 9)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restart")),
    st.tuples(st.just("redefine"), st.sampled_from(RELATIONS)),
    st.tuples(st.just("adopt")),
    st.tuples(st.just("vacuum")),
), min_size=1, max_size=10)


def schema():
    return Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER)


class Durable:
    """One durable database under test, and the three-way comparison."""

    def __init__(self, factory, directory):
        self.factory = factory
        self.directory = directory
        self.manager = DurabilityManager(directory)
        self.database, _ = self.manager.recover(factory)
        #: False once the state stopped being what the journal describes.
        self.replayable = True
        for name in RELATIONS:
            self.tick()
            self.database.define(name, schema())

    def tick(self):
        clock = self.database.manager.clock.source
        clock.set(clock.current() + 1)

    def dml(self, name, key, value):
        """Insert, replace or (value 0) delete — whichever *key* allows."""
        self.tick()
        database = self.database
        valid = ({"valid_from": database.manager.clock.source.current()}
                 if database.kind.supports_historical_queries else {})
        present = any(row["k"] == key for row in database.snapshot(name))
        if not present:
            database.insert(name, {"k": key, "v": value}, **valid)
        elif value == 0:
            database.delete(name, {"k": key}, **valid)
        else:
            database.replace(name, {"k": key}, {"v": value}, **valid)

    def redefine(self, name):
        self.tick()
        self.database.drop(name)
        self.tick()
        self.database.define(name, schema())

    def restart(self):
        self.manager = DurabilityManager(self.directory)
        self.database, _ = self.manager.recover(self.factory)

    def adopt(self, vacuum):
        """Make a reloaded copy of the state — vacuumed to its middle
        commit when asked — the directory's new baseline."""
        # Adoption rotates the journal at the record count, so at least
        # one record must sit in the segment being left behind.
        self.dml("r", "a", 5)
        snapshot = load_database(dump_database(self.database))
        if vacuum:
            for name in RELATIONS:
                store = snapshot.store(name)
                times = store.commit_times()
                if times:
                    snapshot._store[name] = vacuum_store(
                        store, times[len(times) // 2])
            self.replayable = False
        path = self.manager.adopt_snapshot(
            snapshot, self.manager.record_count, self.manager.chain_head)
        self.database = snapshot
        return path

    def check(self, published=None):
        live = state_digest(self.database, cache=False)
        recovered, _ = DurabilityManager(self.directory).recover(self.factory)
        assert state_digest(recovered, cache=False) == live
        if self.replayable:
            replayed, report = DurabilityManager(self.directory).recover(
                self.factory, use_checkpoint=False)
            assert report.full_replay
            assert state_digest(replayed, cache=False) == live
        assert audit_directory(self.directory).clean
        if published is None:
            return
        entry = read_checkpoint(published)
        assert state_digest(load_database(entry["database"]),
                            cache=False) == live
        for name in RELATIONS:
            store = self.database.store(name)
            if isinstance(store, TransactionTimeStore):
                named = sum(item[2].get(name, 0) for item in entry["history"])
                assert named == len(store.closed_since())


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@given(stream=steps)
@settings(max_examples=80, deadline=None)
def test_every_path_to_the_state_agrees(kind, stream):
    directory = tempfile.mkdtemp(prefix="repro-history-")
    try:
        durable = Durable(FACTORIES[kind], directory)
        durable.check()
        for step in stream:
            published = None
            if step[0] == "dml":
                durable.dml(*step[1:])
            elif step[0] == "checkpoint":
                published = durable.manager.checkpoint()
            elif step[0] == "restart":
                durable.restart()
            elif step[0] == "redefine":
                durable.redefine(step[1])
            else:
                published = durable.adopt(vacuum=step[0] == "vacuum")
            durable.check(published)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
