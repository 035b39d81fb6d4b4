"""A state read against the store's own walk, and what it costs.

``snapshot``, ``timeslice`` and ``rollback`` answer from the kinds'
indexes: a :class:`~repro.relational.relation.Relation` built in one
C-level pass over the rows (``dict.fromkeys`` dedupes, one identity test
checks the schemas, the frozenset waits for its first use), and a
temporal rollback built from the rows in force as they are
(``state_in_force``: a database's store holds each element at most once
at any transaction instant).  The walks that dedupe —
``TransactionTimeStore.rollback``, ``HistoricalRelation.timeslice`` —
are the executable specification.

Generated histories on all four kinds and 3-shard stores mix value-equal facts with overlapping validity,
retroactive and postactive valid-time changes, an element deleted and
re-inserted, checkpoints and restarts that recover a checkpoint plus a
journal tail.  Every read must hold the walk's tuples once each, be
``==`` to it with the same ``hash``, and answer ``in`` for each of them.
The constructor itself is held to the loop it replaced: the same tuples
in the same order, the same ``SchemaError``.
"""

import sys
import tempfile
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.core.historical import HistoricalRelation
from repro.errors import (ConstraintViolation, HistoricalNotSupportedError,
                          RollbackNotSupportedError, SchemaError)
from repro.relational import Domain, Relation, Schema, Tuple
from repro.relational import relation as relation_module
from repro.sharding import ShardedDatabase, ShardedDurabilityManager
from repro.storage.recovery import DurabilityManager
from repro.time import Instant, SimulatedClock
from repro.time.instant import NEG_INF, POS_INF

BASE = Instant.parse("01/01/80")
#: The first commit's day, after every valid time a history writes
#: before it (so ``valid from`` days below it are retroactive).
START = 50
KEYS = ["k0", "k1", "k2"]
VALUES = [1, 2]
SCHEMA = Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER)
#: Valid-time probes: before, inside and after the generated periods.
PROBES = [BASE + day for day in (0, 7, 20, 39, 61, 95)]

KINDS = {
    "static": StaticDatabase,
    "rollback": RollbackDatabase,
    "historical": HistoricalDatabase,
    "temporal": TemporalDatabase,
}
CONFIGS = [(kind, shards) for kind in KINDS for shards in (None, 3)]

DAY = st.integers(0, 80)
OPS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(KEYS),
              st.sampled_from(VALUES), DAY, st.integers(0, 30)),
    # One fact twice, its periods overlapping: both rows are stored.
    st.tuples(st.just("overlap"), st.sampled_from(KEYS),
              st.sampled_from(VALUES), DAY),
    st.tuples(st.just("replace"), st.sampled_from(KEYS),
              st.sampled_from(VALUES), DAY),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), DAY))
STEPS = st.lists(st.one_of(
    st.lists(OPS, min_size=1, max_size=3),
    # Delete a key, then insert the very element again a commit later.
    st.tuples(st.just("bounce"), st.sampled_from(KEYS),
              st.sampled_from(VALUES)),
    st.just("checkpoint"), st.just("restart")), min_size=1, max_size=9)


# ---------------------------------------------------------------------------
# Driving a durable database through a history
# ---------------------------------------------------------------------------

class Durable:
    """A durable plain or sharded database of one kind in *directory*."""

    def __init__(self, kind, shards, directory):
        self.factory, self.shards, self.directory = KINDS[kind], shards, directory
        self.day = START
        self.restart()

    def restart(self):
        """Recover from the directory: the latest checkpoint, then the tail."""
        if self.shards:
            self.manager = ShardedDurabilityManager(self.directory,
                                                    shards=self.shards)
        else:
            self.manager = DurabilityManager(self.directory)
        self.db, _ = self.manager.recover(self.factory)

    @property
    def parts(self):
        """The databases holding the stores: the shards, or the database."""
        return self.db.shard_databases if self.shards else [self.db]

    def commit(self, ops):
        """Run *ops* as one transaction at the next day; a refused batch
        (a sequenced or plain key violation) leaves nothing behind."""
        self.day += 1
        for part in self.parts:
            part.manager.clock.source.set(BASE + self.day)
        historical = self.db.supports_historical_queries
        try:
            with self.db.begin() as txn:
                for op in ops:
                    run(self.db, op, historical, txn)
        except ConstraintViolation:
            pass

    def step(self, step):
        if step == "checkpoint":
            self.manager.checkpoint()
        elif step == "restart":
            self.restart()
        elif step[0] == "bounce":
            self.commit([("delete", step[1], 0)])
            self.commit([("insert", step[1], step[2], 0, 0)])
        else:
            self.commit(step)


def run(db, op, historical, txn):
    """One generated operation, buffered in *txn*."""
    def valid(day, span=0):
        if not historical:
            return {}
        return ({"valid_from": BASE + day} if not span else
                {"valid_from": BASE + day, "valid_to": BASE + day + span})
    name = op[0]
    if name == "insert":
        db.insert("r", {"k": op[1], "v": op[2]}, txn=txn, **valid(op[3], op[4]))
    elif name == "overlap":
        db.insert("r", {"k": op[1], "v": op[2]}, txn=txn, **valid(op[3], 20))
        db.insert("r", {"k": op[1], "v": op[2]}, txn=txn,
                  **valid(op[3] + 10, 20))
    elif name == "replace":
        db.replace("r", {"k": op[1]}, {"v": op[2]}, txn=txn, **valid(op[3]))
    else:
        db.delete("r", {"k": op[1]}, txn=txn, **valid(op[2]))


def history(kind, shards, steps, directory):
    durable = Durable(kind, shards, directory)
    durable.db.define("r", SCHEMA)
    for step in steps:
        durable.step(step)
    return durable


# ---------------------------------------------------------------------------
# The walks
# ---------------------------------------------------------------------------

def walkable(store):
    """A store without transaction time walks as its current state."""
    return store if hasattr(store, "rollback") else store.current()


def rows_of(value):
    return value.rows if isinstance(value, HistoricalRelation) else value.tuples


def merged(parts):
    """Per-shard walks as one value (shards never share a row)."""
    first = parts[0]
    return type(first)(first.schema, [row for part in parts
                                      for row in rows_of(part)])


def latest(store):
    """The last instant the store changed (its current state's pin; a
    recovered database's log holds only the commits replayed after its
    checkpoint)."""
    times = store.commit_times()
    return times[-1] if times else NEG_INF


def walk_timeslice(store, valid_at, pin=None):
    if isinstance(store, HistoricalRelation):
        return store.timeslice(valid_at)
    return store.timeslice(valid_at, latest(store) if pin is None else pin)


def walk_snapshot(store, now):
    if isinstance(store, Relation):
        return store
    if hasattr(store, "timeslice"):
        return walk_timeslice(store, now)
    return store.rollback(latest(store))


def same(answer, walk):
    """*answer* holds *walk*'s rows, once each, as an equal value."""
    assert type(answer) is type(walk)
    assert Counter(rows_of(answer)) == Counter(set(rows_of(walk)))
    assert answer == walk and hash(answer) == hash(walk)
    if isinstance(walk, Relation):
        assert all(row in answer for row in walk)
        assert Tuple(SCHEMA, {"k": "absent", "v": 0}) not in answer


@pytest.mark.parametrize("kind,shards", CONFIGS,
                         ids=[f"{kind}{'-x3' if shards else ''}"
                              for kind, shards in CONFIGS])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
# A checkpoint, a journal tail after it, then a restart recovering both.
@example(steps=[[("insert", "k0", 1, 0, 0)], "checkpoint",
                [("overlap", "k1", 2, 5)], ("bounce", "k0", 1), "restart"])
# After a restart each shard's clock resumes at its own last commit: the
# shard holding k1 reads day 53, the facade's now is day 54, where k1's
# validity has ended.  A sharded snapshot slices every shard at the latter.
@example(steps=[[("insert", "k0", 1, 0, 0)], [("insert", "k0", 1, 0, 0)],
                [("insert", "k1", 1, 24, 30)], [("insert", "k0", 1, 0, 0)],
                "restart"])
def test_reads_equal_the_store_walk(kind, shards, steps):
    with tempfile.TemporaryDirectory() as directory:
        durable = history(kind, shards, steps, directory)
        db, parts = durable.db, durable.parts
        stores = [walkable(part.store("r")) for part in parts]
        now = db.now()
        same(db.snapshot("r"),
             merged([walk_snapshot(store, now) for store in stores]))
        if db.supports_historical_queries:
            for valid_at in PROBES:
                same(db.timeslice("r", valid_at),
                     merged([walk_timeslice(store, valid_at)
                             for store in stores]))
        if not db.supports_rollback:
            return
        pins = sorted({time for store in stores
                       for time in store.commit_times()})
        for pin in [NEG_INF] + pins + [POS_INF]:
            same(db.rollback("r", pin),
                 merged([store.rollback(pin) for store in stores]))
            if db.supports_historical_queries:
                for valid_at in PROBES:
                    same(db.timeslice("r", valid_at, as_of=pin),
                         merged([walk_timeslice(store, valid_at, pin)
                                 for store in stores]))


# ---------------------------------------------------------------------------
# The constructor against the loop it replaced
# ---------------------------------------------------------------------------

def reference(schema, rows):
    """The per-row loop ``Relation.__init__`` ran before: each row's
    names checked, deduped by ``setdefault``."""
    deduped = {}
    for row in rows:
        if row.schema.names != schema.names:
            raise SchemaError(
                f"tuple attributes {row.schema.names} do not match "
                f"relation schema {schema.names}")
        deduped.setdefault(row, None)
    return tuple(deduped)


#: The same names on another schema object; other names.
TWIN = Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER)
OTHER = Schema.of(k=Domain.STRING, w=Domain.INTEGER)
ROWS = st.lists(st.tuples(st.sampled_from([SCHEMA, SCHEMA, TWIN, OTHER]),
                          st.sampled_from(KEYS), st.sampled_from(VALUES)),
                max_size=12)


@settings(max_examples=200, deadline=None)
@given(spec=ROWS)
def test_constructor_equals_the_loop_it_replaced(spec):
    rows = [Tuple.from_sequence(schema, (key, value))
            for schema, key, value in spec]
    try:
        expected = reference(SCHEMA, rows)
    except SchemaError as error:
        with pytest.raises(SchemaError) as raised:
            Relation(SCHEMA, iter(rows))
        assert str(raised.value) == str(error)
        return
    built = Relation(SCHEMA, iter(rows))
    assert built.tuples == expected
    assert built == Relation(SCHEMA, reversed(expected))
    assert hash(built) == hash(Relation(SCHEMA, reversed(expected)))
    assert all(row in built for row in rows)


def test_racing_readers_share_one_equal_set():
    """The set is built without a lock: readers racing to build it each
    get a correct answer, and the set kept is the tuples'."""
    rows = [Tuple(SCHEMA, {"k": f"k{key}", "v": 1}) for key in range(64)]
    absent = Tuple(SCHEMA, {"k": "absent", "v": 1})
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            relation = Relation(SCHEMA, rows)
            answers = []

            def probe():
                answers.append(all(row in relation for row in rows)
                               and absent not in relation)

            threads = [threading.Thread(target=probe) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert answers == [True] * 8
            assert relation == Relation(SCHEMA, reversed(rows))
    finally:
        sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# What a state read costs
# ---------------------------------------------------------------------------

K = 256


@pytest.fixture
def keyed():
    """A temporal database of K keys, each replaced once a commit later."""
    clock = SimulatedClock(BASE + START)
    database = TemporalDatabase(clock=clock)
    database.define("r", SCHEMA)
    with database.begin() as txn:
        for key in range(K):
            database.insert("r", {"k": f"k{key}", "v": 1}, txn=txn,
                            valid_from=BASE)
    pin = txn.commit_time
    clock.set(BASE + START + 1)
    with database.begin() as txn:
        for key in range(0, K, 2):
            database.replace("r", {"k": f"k{key}"}, {"v": 2}, txn=txn,
                             valid_from=BASE + 10)
    # Build the indexes now: the reads below are the warm ones.
    database.snapshot("r")
    database.rollback("r", pin)
    return database, pin


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Tuple.__hash__``, ``Schema.names`` and the relation
    module's ``frozenset``, from the moment the fixture is used."""
    seen = Counter()
    real_hash, real_names = Tuple.__hash__, Schema.names

    def counted_hash(row):
        seen["hash"] += 1
        return real_hash(row)

    def counted_names(schema):
        seen["names"] += 1
        return real_names.fget(schema)

    def counted_frozenset(*args):
        seen["frozenset"] += 1
        return frozenset(*args)

    monkeypatch.setattr(Tuple, "__hash__", counted_hash)
    monkeypatch.setattr(Schema, "names", property(counted_names))
    monkeypatch.setattr(relation_module, "frozenset", counted_frozenset,
                        raising=False)
    return seen


class TestStateReadCost:
    def test_rollback_hashes_nothing_and_reads_no_names(self, keyed, counts):
        database, pin = keyed
        state = database.rollback("r", pin)
        assert len(state) == K
        assert counts["hash"] == 0
        assert counts["names"] == 0

    def test_snapshot_hashes_each_returned_tuple_at_most_once(self, keyed,
                                                              counts):
        database, _ = keyed
        state = database.snapshot("r")
        assert len(state) == K
        assert counts["hash"] <= K
        assert counts["names"] == 0
        assert counts["frozenset"] == 0

    def test_the_set_is_built_by_the_first_membership_test(self, keyed,
                                                            counts):
        database, _ = keyed
        state = database.snapshot("r")
        assert counts["frozenset"] == 0
        row = state.tuples[0]
        assert row in state and row in state
        assert counts["frozenset"] == 1

    def test_timeslice_as_of_hashes_each_returned_tuple_at_most_once(
            self, keyed, counts):
        database, pin = keyed
        state = database.timeslice("r", BASE + 20, as_of=pin)
        assert len(state) == K
        assert counts["hash"] <= K
        assert counts["names"] == 0


# ---------------------------------------------------------------------------
# One timeslice signature, typed refusals
# ---------------------------------------------------------------------------

TIMESLICE_AS_OF = {
    StaticDatabase: HistoricalNotSupportedError,
    RollbackDatabase: HistoricalNotSupportedError,
    HistoricalDatabase: RollbackNotSupportedError,
    TemporalDatabase: None,
}


@pytest.mark.parametrize("sharded", [False, True], ids=["plain", "x3"])
@pytest.mark.parametrize("kind", list(TIMESLICE_AS_OF),
                         ids=lambda kind: kind.__name__)
def test_timeslice_as_of_is_refused_by_type(kind, sharded):
    clock = SimulatedClock(BASE + START)
    db = (ShardedDatabase(kind, shards=3, clock=clock) if sharded
          else kind(clock=clock))
    db.define("r", SCHEMA)
    historical = db.supports_historical_queries
    db.insert("r", {"k": "k0", "v": 1},
              **({"valid_from": BASE} if historical else {}))
    pin = BASE + START + 10  # after the insert's commit
    refusal = TIMESLICE_AS_OF[kind]
    if refusal is None:
        assert len(db.timeslice("r", BASE + 1, as_of=pin)) == 1
        assert len(db.timeslice("r", BASE + 1)) == 1
        return
    with pytest.raises(refusal):
        db.timeslice("r", BASE + 1, as_of=pin)
    if historical:
        assert len(db.timeslice("r", BASE + 1)) == 1
    else:
        with pytest.raises(HistoricalNotSupportedError):
            db.timeslice("r", BASE + 1)


# ---------------------------------------------------------------------------
# Database.get: one probe of the key, equal to the scan it replaced
# ---------------------------------------------------------------------------

#: name -> schema: one key attribute, a two-attribute key, no key.
GET_SCHEMAS = {
    "single": SCHEMA,
    "composite": Schema.of(key=["k", "v"], k=Domain.STRING,
                           v=Domain.INTEGER),
    "keyless": Schema.of(k=Domain.STRING, v=Domain.INTEGER),
}


def scanned(db, name, key):
    """What ``get`` answered before it probed: the snapshot, filtered."""
    return [row for row in db.snapshot(name)
            if all(row[attribute] == value for attribute, value in key.items())]


@pytest.mark.parametrize("kind,shards", CONFIGS,
                         ids=[f"{kind}{'-x3' if shards else ''}"
                              for kind, shards in CONFIGS])
def test_get_equals_the_scan(kind, shards):
    clock = SimulatedClock(BASE)
    db = (ShardedDatabase(KINDS[kind], shards=shards, clock=clock) if shards
          else KINDS[kind](clock=clock))
    valid = db.supports_historical_queries
    for name, schema in GET_SCHEMAS.items():
        db.define(name, schema)
    for day, (action, key, value, since, until) in enumerate([
            ("insert", "k0", 1, 0, None), ("insert", "k1", 1, 0, 5),
            ("insert", "k2", 2, 0, None), ("replace", "k0", 2, 10, None),
            ("insert", "k1", 2, 200, None), ("delete", "k2", None, 0, None),
            ("insert", "k3", 1, 0, None)]):
        clock.set(BASE + 50 + day)
        times = ({"valid_from": BASE + since,
                  **({"valid_to": BASE + until} if until else {})}
                 if valid else {})
        for name in GET_SCHEMAS:
            if action == "insert" and since == 200 and not valid:
                continue  # (a postactive fact: valid time only)
            if action == "insert":
                db.insert(name, {"k": key, "v": value}, **times)
            elif action == "replace" and name == "composite":
                # (a key never changes in place on a sharded store)
                db.delete(name, {"k": key}, **times)
                db.insert(name, {"k": key, "v": value},
                          **({"valid_from": BASE + since} if valid else {}))
            elif action == "replace":
                db.replace(name, {"k": key}, {"v": value}, **times)
            else:
                db.delete(name, {"k": key})
    probes = [("single", {"k": key}) for key in ("k0", "k1", "k2", "k3", "zz")]
    probes += [("composite", {"k": key, "v": value})
               for key in ("k0", "k1", "k3") for value in (1, 2)]
    if not shards:  # a sharded get must pin the key
        probes += [("composite", {"k": "k0"}), ("keyless", {"k": "k0"}),
                   ("keyless", {"k": "k3", "v": 1}), ("single", {"v": 2})]
    for name, key in probes:
        assert (sorted(db.get(name, key), key=repr)
                == sorted(scanned(db, name, key), key=repr)), (name, key)
    assert db.get("single", {"k": "k0"})  # the probes found something
