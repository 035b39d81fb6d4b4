"""The store seam: one session layer, three stores, the same behaviour.

``SessionLayer`` / ``ConcurrentSession`` are written once against four
questions every store answers (docs/CONCURRENCY.md, "The store seam").
A plain ``Database``, a 1-shard and a 3-shard ``ShardedDatabase`` differ
only in *policy* — how fine a footprint key is, which locks a commit
takes, what a commit token looks like — so the same seeded closure
sequence must leave the same logical state behind on all three.
"""

import random

import pytest

from repro.concurrency import RetryPolicy, SessionLayer
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import ConflictError
from repro.relational import Domain, Schema
from repro.sharding import ShardedDatabase
from repro.time import SimulatedClock

BASE = "01/01/80"
KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase]
STORES = {
    "plain": lambda kind: kind(clock=SimulatedClock(BASE)),
    "sharded-1": lambda kind: ShardedDatabase(kind, shards=1,
                                              clock=SimulatedClock(BASE)),
    "sharded-3": lambda kind: ShardedDatabase(kind, shards=3,
                                              clock=SimulatedClock(BASE)),
}
KEYS = [f"k{i}" for i in range(8)]


def counters(store):
    store.define("counters",
                 Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER))
    bounds = ({"valid_from": BASE}
              if store.kind.supports_historical_queries else {})
    with store.begin() as txn:
        for key in KEYS:
            store.insert("counters", {"k": key, "v": 0}, txn=txn, **bounds)
    return store


def drive(store, seed, steps=40):
    """A seeded mix of every session entry point; returns the tallies."""
    layer = store.sessions(retry=RetryPolicy(seed=seed))
    assert type(layer) is SessionLayer
    rng = random.Random(seed)
    tally = {"writes": 0, "reads": 0}

    def increment(key):
        def closure(session):
            row = session.get("counters", {"k": key})[0]
            session.replace("counters", {"k": key}, {"v": row["v"] + 1})
        return closure

    def transfer(key_a, key_b):
        def closure(session):
            a = session.get("counters", {"k": key_a})[0]
            b = session.get("counters", {"k": key_b})[0]
            session.replace("counters", {"k": key_a}, {"v": a["v"] + 1})
            session.replace("counters", {"k": key_b}, {"v": b["v"] - 1})
        return closure

    def scan_and_bump(key):
        def closure(session):
            total = sum(row["v"] for row in session.read("counters"))
            session.replace("counters", {"k": key}, {"v": total})
        return closure

    def zero_everything(session):
        session.replace("counters", {}, {"v": 0})  # broadcast write

    def audit(session):
        return sorted(row["k"] for row in session.read("counters"))

    for _ in range(steps):
        dice = rng.random()
        if dice < 0.45:
            closure = increment(rng.choice(KEYS))
        elif dice < 0.70:
            closure = transfer(*rng.sample(KEYS, 2))
        elif dice < 0.85:
            closure = scan_and_bump(rng.choice(KEYS))
        elif dice < 0.90:
            closure = zero_everything
        else:
            closure = audit
        box = {}

        def wrapped(session, _closure=closure, _box=box):
            _box["session"] = session
            return _closure(session)

        layer.run(wrapped)
        committed = box["session"].commit_time is not None
        tally["writes" if committed else "reads"] += 1
    return tally


def state(store):
    return sorted((row["k"], row["v"]) for row in store.snapshot("counters"))


@pytest.mark.parametrize("kind", KINDS, ids=lambda cls: cls.__name__)
class TestSeamEquivalence:
    def test_same_closures_same_state_and_commit_counts(self, kind):
        results = {}
        for label, make in STORES.items():
            store = counters(make(kind))
            results[label] = (drive(store, seed=17), state(store))
        assert results["plain"] == results["sharded-1"]
        assert results["plain"] == results["sharded-3"]
        tally, _ = results["plain"]
        assert tally["writes"] > 0 and tally["reads"] > 0

    @pytest.mark.parametrize("label", STORES, ids=list(STORES))
    def test_same_key_race_has_one_winner_everywhere(self, kind, label):
        store = counters(STORES[label](kind))
        layer = store.sessions()
        first, second = layer.begin(), layer.begin()
        for session, value in ((first, 1), (second, 2)):
            session.get("counters", {"k": "k5"})
            session.replace("counters", {"k": "k5"}, {"v": value})
        assert first.commit() is not None
        with pytest.raises(ConflictError) as caught:
            second.commit()
        assert caught.value.retryable
        assert dict(state(store))["k5"] == 1  # first committer won


class TestSeamAnswers:
    """The four questions, asked of each store directly."""

    @pytest.mark.parametrize("label", STORES, ids=list(STORES))
    def test_every_store_answers_the_four_questions(self, label):
        store = counters(STORES[label](StaticDatabase))
        with store.sessions().begin() as session:
            session.replace("counters", {"k": "k1"}, {"v": 9})
            (operation,) = session.operations
        # (1) footprint keys: a keyed access is never wider than the
        # whole-relation read of the same relation.
        whole = set(store.read_footprint("counters"))
        keyed = set(store.read_footprint("counters", {"k": "k1"}))
        assert keyed and keyed <= whole
        assert set(store.write_footprint(operation)) == keyed
        # (2) versions: the commit above moved exactly the keyed keys.
        fresh = counters(STORES[label](StaticDatabase))
        for key in whole:
            moved = (store.footprint_version(key)
                     - fresh.footprint_version(key))
            assert moved == (1 if key in keyed else 0)
        # (3) validate-and-commit / certify run the check they are given.
        ran = []
        store.certify(tuple(keyed), lambda: ran.append("certify"))
        store.commit([operation], tuple(keyed),
                     lambda: ran.append("commit"))
        assert ran == ["certify", "commit"]
        # (4) the token is what the session was handed; the class is a
        # write class of the SLO vocabulary.
        assert store.commit_token() != session.commit_token  # one more now
        assert store.op_class([operation]) == "single_shard_write"

    def test_granularity_is_the_stores_answer_not_the_sessions(self):
        plain = counters(STORES["plain"](StaticDatabase))
        sharded = counters(STORES["sharded-3"](StaticDatabase))
        assert plain.read_footprint("counters", {"k": "k1"}) == ("counters",)
        shard = sharded.shard_of_key("counters", {"k": "k1"})
        assert sharded.read_footprint("counters", {"k": "k1"}) == (
            f"counters@{shard}",)
        assert sharded.read_footprint("counters") == tuple(
            f"counters@{sid}" for sid in range(3))
        assert isinstance(plain.commit_token(), int)
        assert sharded.commit_token() == sharded.log.vector()
