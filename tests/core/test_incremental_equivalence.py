"""The delta commit path against the naive executable specification.

A commit on every kind carries an element delta — computed over the rows
the operation's match can touch, recorded by the one
:meth:`StateStore.advance` (on the transaction-time kinds, on the
lineage-shared closed log the index is patched from) and checked on the
touched keys only; the whole-state oracle (``whole_state_oracle``: the
whole new state per operation, :func:`naive_advance` on the
transaction-time kinds, the whole-state constraint check) keeps the
original whole-relation diff.  These tests drive seeded random workloads
through the databases and replay them through the oracle — all four
kinds, data tuples and facts with their valid period — asserting the two
paths produce identical stores, rollbacks, timeslices and commit verdicts
— over every shape of match, multi-operation batches that touch a key
twice, every kind of constraint, the created-and-superseded-within-one-
transaction edge and the abort path (a failed commit must leave the
installed value's view of the shared log untouched).
"""

import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import (BoundedValidity, ContiguousHistory,
                        HistoricalDatabase, HistoricalRelation,
                        NoFutureValidity, RollbackDatabase, RollbackRelation,
                        StaticDatabase, TemporalDatabase, TemporalRelation,
                        TemporalConstraint, TransactionTimeIndex,
                        TransactionTimeStore, ValidityDuration)
from repro.core.historical import check_historical_constraints
from repro.errors import (CheckpointError, ConstraintViolation,
                          GranularityError, StorageError)
from repro.relational import (Attribute, CheckConstraint, Constraint, Domain,
                              NotNullConstraint, Relation, Schema, Tuple,
                              attr)
from repro.time import Granularity, Instant, Period, SimulatedClock
from repro.txn.transaction import Operation

from tests.core.whole_state_oracle import (apply_historical_operation,
                                           apply_static_operation,
                                           check_state, naive_advance)
from tests.core.snapshot_model import SnapshotModel

BASE = Instant.parse("01/01/80")
KEYS = ["k%d" % i for i in range(6)]
VALUES = ["red", "green", "blue"]


def _schema():
    # No schema key: the sequenced-key constraint would reject most random
    # histories; constraint interaction is tested separately below.
    return Schema.of(k=Domain.STRING, v=Domain.STRING)


def _random_temporal_op(database, rng, now_offset):
    """Issue one random insert/delete/replace with a random valid period."""
    lo = rng.randrange(0, 600)
    hi = lo + rng.randrange(1, 400)
    kind = rng.random()
    if kind < 0.5:
        database.insert("r", {"k": rng.choice(KEYS), "v": rng.choice(VALUES)},
                        valid_from=BASE + lo, valid_to=BASE + hi)
    elif kind < 0.75:
        database.delete("r", {"k": rng.choice(KEYS)},
                        valid_from=BASE + lo, valid_to=BASE + hi)
    else:
        database.replace("r", {"k": rng.choice(KEYS)},
                         {"v": rng.choice(VALUES)},
                         valid_from=BASE + lo, valid_to=BASE + hi)


def _drive_temporal(seed, steps=40):
    clock = SimulatedClock(BASE)
    database = TemporalDatabase(clock=clock)
    database.define("r", _schema())
    rng = random.Random(seed)
    now = 1000
    for step in range(steps):
        now += rng.randrange(1, 4)
        clock.set(BASE + now)
        _random_temporal_op(database, rng, step)
    return database


def _naive_step(store, op, commit_time):
    """One operation through the oracle: the whole new state, then the
    whole-relation advance (either element type)."""
    apply = (apply_historical_operation if isinstance(store, TemporalRelation)
             else apply_static_operation)
    return naive_advance(store, apply(store.current(), op), commit_time)


def _empty_oracle(database, name="r"):
    """The oracle's value before the first operation: a transaction-time
    store for the naive advance, else the whole state value."""
    schema = database.schema(name)
    if database.supports_rollback:
        return (TemporalRelation if database.supports_historical_queries
                else RollbackRelation)(schema)
    return (HistoricalRelation(schema) if database.supports_historical_queries
            else Relation.empty(schema))


def _oracle_step(value, op, commit_time):
    """One operation through the oracle (any kind's value)."""
    if isinstance(value, TransactionTimeStore):
        return _naive_step(value, op, commit_time)
    if isinstance(value, HistoricalRelation):
        return apply_historical_operation(value, op)
    return apply_static_operation(value, op)


def _replay_naive(database, name="r"):
    """Rebuild the store (a transaction-time kind's) or the state (the
    others') from the commit log through the oracle."""
    store = _empty_oracle(database, name)
    for record in database.log:
        for op in record.operations:
            if op.relation != name or op.action in ("define", "drop"):
                continue
            store = _oracle_step(store, op, record.commit_time)
    return store


def _rows(state):
    return state.rows if isinstance(state, HistoricalRelation) else state.tuples


def _assert_is_oracle(store, oracle):
    """*store* holds what the oracle does: the very rows of a
    transaction-time store; the state of the others."""
    if isinstance(oracle, TransactionTimeStore):
        assert store == oracle
        return
    assert set(_rows(store.current())) == set(_rows(oracle))
    assert len(_rows(store.current())) == len(_rows(oracle))


#: The element types of the one store, on every kind: (database,
#: valid-time bounds).
ELEMENTS = {"tuple": (RollbackDatabase, {}),
            "fact": (TemporalDatabase, {"valid_from": BASE}),
            "static": (StaticDatabase, {}),
            "historical": (HistoricalDatabase, {"valid_from": BASE})}


def _check_created_and_superseded_within_one_transaction(element):
    # An element inserted and deleted inside the same transaction never
    # existed in any committed state: no row may record it (the
    # tt.start == commit_time withdrawal in advance).
    make, bounds = ELEMENTS[element]
    clock = SimulatedClock(BASE)
    database = make(clock=clock)
    database.define("r", _schema())
    database.insert("r", {"k": "k0", "v": "red"}, **bounds)
    clock.set(BASE + 10)
    with database.begin() as txn:
        database.insert("r", {"k": "ghost", "v": "blue"}, txn=txn, **bounds)
        database.delete("r", {"k": "ghost"}, txn=txn)
        database.replace("r", {"k": "k0"}, {"v": "green"}, txn=txn)
    incremental = database.store("r")
    _assert_is_oracle(incremental, _replay_naive(database))
    assert not any(getattr(row, "data", row)["k"] == "ghost"
                   for row in incremental.rows)
    if not database.supports_rollback:
        return
    # The phantom also never shows up on the transaction-time axis.
    state = database.rollback("r", BASE + 10)
    assert "ghost" not in {getattr(row, "data", row)["k"] for row in state}


def _check_aborted_commit_leaves_installed_value_intact(element):
    # Staging shares the closed segment with the installed value; an
    # abort after some operations applied must not leak closed rows
    # into it, and the next successful commit must still agree with
    # the naive replay (the copy-on-divergence path).
    make, bounds = ELEMENTS[element]
    clock = SimulatedClock(BASE)
    database = make(clock=clock)
    database.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                   v=Domain.STRING))
    database.insert("r", {"k": "k0", "v": "red"}, **bounds)
    before = database.store("r")
    before_rows = frozenset(before.rows)
    clock.set(BASE + 10)
    with pytest.raises(ConstraintViolation):
        with database.begin() as txn:
            # Closes k0's row in the staged value (mutating the shared
            # closed log past the installed prefix)...
            database.replace("r", {"k": "k0"}, {"v": "green"}, txn=txn)
            # ...then violates the key, aborting the batch.
            database.insert("r", {"k": "k0", "v": "blue"}, txn=txn, **bounds)
    assert database.store("r") is before
    assert frozenset(database.store("r").rows) == before_rows
    assert database.relation_version("r") == 2  # define + first insert
    # A later commit diverges onto a private copy and stays correct.
    clock.set(BASE + 20)
    database.replace("r", {"k": "k0"}, {"v": "green"})
    _assert_is_oracle(database.store("r"), _replay_naive(database))


def _check_duplicate_open_rows_are_refused(element):
    # A transaction-time store holds each element open at most once (its
    # open map): a value holding one open twice — here entered at two
    # transaction times — is refused where it is built, and a dump holding
    # one does not load, naming the relation.
    from repro.storage.checkpoint import load_payload
    from repro.storage.serializer import (dump_database, load_database,
                                          relation_from_dict, store_to_dict)
    make, bounds = ELEMENTS[element]
    clock = SimulatedClock(BASE)
    database = make(clock=clock)
    database.define("r", _schema())
    database.insert("r", {"k": "k0", "v": "red"}, **bounds)
    database.insert("r", {"k": "k1", "v": "red"}, **bounds)
    canonical = database.store("r")
    twin = next(iter(canonical.rows))
    twin = twin._replace(tt=Period(twin.tt.start + 1, twin.tt.end))
    with pytest.raises(ConstraintViolation, match="open twice"):
        type(canonical)(canonical.schema, canonical.rows + (twin,))
    stored = store_to_dict(type(canonical)(canonical.schema, [twin]))
    dumped = dump_database(database)
    dumped["relations"]["r"]["store"]["rows"] += stored["rows"]
    with pytest.raises(StorageError, match="open twice"):
        relation_from_dict(dumped["relations"]["r"]["store"])
    with pytest.raises(StorageError, match="relation 'r'.*open twice"):
        load_database(dumped)
    with pytest.raises(CheckpointError, match="relation 'r'.*open twice"):
        load_payload("checkpoint-1.ckpt", dumped)
    assert database.store("r") is canonical


class TestTemporalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1985])
    def test_rows_match_naive_replay(self, seed):
        database = _drive_temporal(seed)
        assert database.temporal("r") == _replay_naive(database)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_rollbacks_and_timeslices_match(self, seed):
        database = _drive_temporal(seed)
        naive = _replay_naive(database)
        commits = [record.commit_time for record in database.log]
        for as_of in commits:
            assert database.rollback("r", as_of) == naive.rollback(as_of)
            for valid_offset in (0, 150, 450, 900):
                assert (database.timeslice("r", BASE + valid_offset, as_of)
                        == naive.timeslice(BASE + valid_offset, as_of))

    @pytest.mark.parametrize("seed", [5, 23])
    def test_indexed_and_unindexed_paths_agree(self, seed):
        # The database answers behind its interval trees; the store's
        # own scan of every row ever written is the unindexed path.
        indexed = _drive_temporal(seed)
        plain = indexed.store("r")
        commits = [record.commit_time for record in indexed.log]
        now = indexed.now()
        assert indexed.snapshot("r") == plain.timeslice(now, now)
        for as_of in commits[:: max(1, len(commits) // 7)]:
            assert indexed.rollback("r", as_of) == plain.rollback(as_of)
            assert (indexed.timeslice("r", BASE + 200, as_of)
                    == plain.timeslice(BASE + 200, as_of))
        ranged_a = indexed.rollback_range("r", commits[1], commits[-2])
        ranged_b = plain.overlapping(
            Period.from_inclusive(commits[1], commits[-2]))
        assert frozenset(ranged_a.rows) == frozenset(ranged_b)

    def test_created_and_superseded_within_one_transaction(self):
        _check_created_and_superseded_within_one_transaction("fact")

    def test_aborted_commit_leaves_installed_value_intact(self):
        _check_aborted_commit_leaves_installed_value_intact("fact")

    def test_duplicate_open_rows_are_refused(self):
        _check_duplicate_open_rows_are_refused("fact")

    @pytest.mark.parametrize("abort", ["failed commit", "rehearse"])
    def test_aborted_commit_leaves_the_shared_log_intact(self, abort):
        # The closed log is shared by reference: a batch that dies (or a
        # rehearse) has already appended the rows it closed past the
        # installed version's length.  The next commit must diverge onto
        # a private copy, or an index patched from the log would
        # resurrect the rows of a transaction that never happened.
        clock = SimulatedClock(BASE)
        database = TemporalDatabase(clock=clock)
        database.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                       v=Domain.STRING),
                        constraints=[NoFutureValidity()])
        database.insert("r", {"k": "k0", "v": "red"}, valid_from=BASE)
        database.timeslice("r", BASE), database.rollback("r", BASE)  # warm
        before = database.temporal("r")
        log = list(before._closed_log)
        clock.set(BASE + 10)
        doomed = [
            Operation("replace", "r", {"match": {"k": "k0"},
                                       "updates": {"v": "green"}}),
            Operation("insert", "r", {"values": {"k": "ghost", "v": "blue"},
                                      "valid_from": BASE + 5000}),
        ]
        # The rehearsal's verdict is the commit's: the same staging runs
        # under both, constraint check included.
        with pytest.raises(ConstraintViolation):
            if abort == "rehearse":
                database.rehearse(doomed, BASE + 10)
            else:
                database._manager.run(doomed)
        assert database.temporal("r") is before
        assert len(before._closed_log) > before._closed_len  # the hazard
        assert before._closed_log[:before._closed_len] == log
        clock.set(BASE + 20)
        database.insert("r", {"k": "k1", "v": "blue"}, valid_from=BASE)
        after = database.temporal("r")
        assert after == _replay_naive(database)
        assert after._closed_log[:before._closed_len] == log
        assert after._closed_log is not before._closed_log  # diverged
        # The index was patched from the log; it saw no ghost.
        cache = database.index_cache
        assert cache.misses == 1 and cache.incremental_updates == 0
        for pin in (BASE + 10, BASE + 20):
            assert database.rollback("r", pin) == after.rollback(pin)
            assert (database.timeslice("r", BASE, as_of=pin)
                    == after.timeslice(BASE, pin))
        assert cache.misses == 1 and cache.incremental_updates == 1

    def test_ddl_rolls_back_on_constraint_failure(self):
        # define + failing DML in one batch: the schema bookkeeping must
        # be restored wholesale (the DDL is rolled back too).
        clock = SimulatedClock(BASE)
        database = TemporalDatabase(clock=clock)
        schema = _schema()
        operations = [
            Operation("define", "doomed",
                      {"schema": schema,
                       "constraints": (NoFutureValidity(),),
                       "event": False}),
            Operation("insert", "doomed",
                      {"values": {"k": "k0", "v": "red"},
                       "valid_from": BASE + 5000}),
        ]
        with pytest.raises(ConstraintViolation):
            database._manager.run(operations)
        assert "doomed" not in database
        assert database.relation_version("doomed") == 0
        # The name is free again and works normally afterwards.
        database.define("doomed", schema)
        database.insert("doomed", {"k": "k0", "v": "red"}, valid_from=BASE)
        assert len(database.snapshot("doomed")) == 1


def _drive_rollback(seed, kind=RollbackDatabase, steps=35):
    clock = SimulatedClock(BASE)
    database = kind(clock=clock)
    database.define("r", _schema())
    rng = random.Random(seed)
    now = 1000
    for step in range(steps):
        now += rng.randrange(1, 4)
        clock.set(BASE + now)
        kind = rng.random()
        if kind < 0.55:
            database.insert("r", {"k": rng.choice(KEYS),
                                  "v": rng.choice(VALUES)})
        elif kind < 0.8:
            database.delete("r", {"k": rng.choice(KEYS)})
        else:
            database.replace("r", {"k": rng.choice(KEYS)},
                             {"v": rng.choice(VALUES)})
    return database


class TestRollbackEquivalence:
    @pytest.mark.parametrize("seed", [0, 9, 77])
    def test_interval_matches_state_cube(self, seed):
        # The cube is the snapshot model's: a static database's state
        # after every commit.
        interval = _drive_rollback(seed)
        cube = _drive_rollback(seed, SnapshotModel)
        commits = [record.commit_time for record in interval.log]
        assert commits == [record.commit_time for record in cube.log]
        for as_of in commits:
            assert interval.rollback("r", as_of) == cube.state_at("r", as_of)
        assert interval.snapshot("r") == cube.snapshot("r")

    @pytest.mark.parametrize("seed", [2, 13])
    def test_interval_matches_naive_replay(self, seed):
        interval = _drive_rollback(seed)
        model = _drive_rollback(seed, SnapshotModel)
        # Replay the model's state after every commit through the naive
        # advance: the incremental store must be the very same value.
        store = RollbackRelation(interval.schema("r"))
        for commit, state in model.states("r"):
            store = naive_advance(store, state, commit)
        assert interval.store("r") == store
        for record in interval.log:
            as_of = record.commit_time
            assert (interval.store("r").rollback(as_of)
                    == store.rollback(as_of))

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1985])
    def test_rows_match_naive_replay(self, seed):
        # The temporal seeds, the other element type, the same advance.
        database = _drive_rollback(seed, steps=40)
        assert database.store("r") == _replay_naive(database)

    def test_created_and_superseded_within_one_transaction(self):
        _check_created_and_superseded_within_one_transaction("tuple")

    def test_aborted_commit_leaves_installed_value_intact(self):
        _check_aborted_commit_leaves_installed_value_intact("tuple")

    def test_duplicate_open_rows_are_refused(self):
        _check_duplicate_open_rows_are_refused("tuple")

    @pytest.mark.parametrize("path", ["delta", "naive"])
    def test_closing_at_another_granularity_is_refused(self, path):
        # A closed row's period is built from chronons; the commit time's
        # unit is still checked against the row's.
        row = Tuple.from_sequence(_schema(), ["k0", "red"])
        store = RollbackRelation(_schema()).advance((), [row], BASE)
        hour = Instant.from_chronon(BASE.chronon * 24 + 30, Granularity.HOUR)
        with pytest.raises(GranularityError):
            if path == "delta":
                store.advance([row], (), hour)
            else:
                naive_advance(store, (), hour)

    def test_stores_compare_by_value(self):
        # Equality comes from the shared store: two stores holding the
        # same rows are equal (and hash alike), whatever their lineage —
        # a serializer round trip of a rollback store equals its source.
        from repro.storage.serializer import (relation_from_dict,
                                              store_to_dict)
        store = _drive_rollback(5).store("r")
        assert (RollbackRelation(store.schema, store.rows)
                == RollbackRelation(store.schema, store.rows))
        loaded = relation_from_dict(store_to_dict(store))
        assert loaded == store and hash(loaded) == hash(store)
        assert loaded is not store and loaded._lineage is not store._lineage
        assert RollbackRelation(store.schema, store.rows[1:]) != store


class TestCurrentStateEquivalence:
    """The kinds without transaction time commit through the same store."""

    @pytest.mark.parametrize("element", ["static", "historical"])
    def test_created_and_superseded_within_one_transaction(self, element):
        _check_created_and_superseded_within_one_transaction(element)

    @pytest.mark.parametrize("element", ["static", "historical"])
    def test_aborted_commit_leaves_installed_value_intact(self, element):
        _check_aborted_commit_leaves_installed_value_intact(element)

    def test_a_static_store_keeps_no_removed_tuple(self):
        # "Past states ... are discarded and forgotten completely": after
        # any number of keyed replaces, the store reaches exactly its
        # current tuples — the same count after 100 and after 2,000.
        clock = SimulatedClock(BASE)
        database = StaticDatabase(clock=clock)
        database.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                       v=Domain.INTEGER))
        with database.begin() as txn:
            for key in KEYS:
                database.insert("r", {"k": key, "v": 0}, txn=txn)
        reached = {}
        for step in range(2000):
            clock.set(BASE + 1 + step)
            database.replace("r", {"k": KEYS[step % len(KEYS)]},
                             {"v": step + 1})
            if step + 1 in (100, 2000):
                reached[step + 1] = _tuples_reachable(database.store("r"))
        assert reached == {100: len(KEYS), 2000: len(KEYS)}


def _tuples_reachable(root):
    """How many distinct :class:`Tuple` objects *root* reaches (types and
    schemas, shared by every value, are not walked)."""
    seen, tuples, stack = set(), set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, Schema)):
            continue
        seen.add(id(item))
        if isinstance(item, Tuple):
            tuples.add(id(item))
            continue
        stack.extend(gc.get_referents(item))
    return len(tuples)


# ---------------------------------------------------------------------------
# Keyed relations: every shape of match, batches, every kind of constraint
# ---------------------------------------------------------------------------

DEPTS = ["cs", "ee", "me"]
NAMES = ["ann", "bob", "cy", "di"]
RANKS = ["assistant", "associate", "full", None]


def _keyed_schema():
    # A composite key, so a match can bind all of it, part of it or none;
    # a nullable attribute, so NotNull has something to reject.
    return Schema([Attribute("dept", Domain.STRING),
                   Attribute("name", Domain.STRING),
                   Attribute("rank", Domain.STRING, nullable=True),
                   Attribute("salary", Domain.INTEGER)],
                  key=["dept", "name"])


class HeadcountCap(Constraint):
    """A user-defined rule that looks across keys: at most *cap* facts.

    Checked on the touched keys alone it could never fire, so the
    database has to take the whole-state path for it.
    """

    def __init__(self, cap):
        super().__init__(f"headcount<={cap}")
        self.cap = cap

    def check(self, relation):
        if len(relation) > self.cap:
            raise ConstraintViolation(f"{self.name}: {len(relation)} facts")


#: The kinds a keyed run drives: name -> database.
KINDS = {"temporal": TemporalDatabase, "rollback": RollbackDatabase,
         "historical": HistoricalDatabase, "static": StaticDatabase}

#: name -> (constraints, whether the touched-keys check applies).
CONSTRAINT_SETS = {
    "sequenced key only": ([], True),
    "row-local": ([NotNullConstraint(["rank"]),
                   CheckConstraint(attr("salary") < 95, name="cap")], True),
    "no future, bounded": ([NoFutureValidity(horizon=300),
                            BoundedValidity(Period(BASE + 20, BASE + 900))],
                           True),
    "duration, contiguous on the key": (
        [ValidityDuration(at_least=15),
         ContiguousHistory(["name", "dept"])], True),
    "contiguous on part of the key": ([ContiguousHistory(["dept"])], False),
    "user-defined": ([HeadcountCap(9)], False),
}


def _valid_bounds(rng):
    """valid_from/valid_to: both, either or neither (the whole timeline)."""
    lo = rng.randrange(0, 700)
    hi = lo + rng.randrange(5, 300)
    shape = rng.random()
    if shape < 0.55:
        return {"valid_from": BASE + lo, "valid_to": BASE + hi}
    if shape < 0.75:
        return {"valid_from": BASE + lo}
    if shape < 0.9:
        return {"valid_to": BASE + hi}
    return {}


def _kind_rules(kind, rules):
    """The constraints of *rules* on *kind*, or ``None`` where the kind
    cannot declare them (a valid-time rule without valid time)."""
    constraints, local = CONSTRAINT_SETS[rules]
    if (not KINDS[kind].kind.supports_historical_queries
            and any(isinstance(c, TemporalConstraint) for c in constraints)):
        return None
    return constraints, local


KEYED_RUNS = [(kind, rules) for kind in KINDS for rules in CONSTRAINT_SETS
              if _kind_rules(kind, rules) is not None]
#: Their ids: the rules, then the kind (but the temporal one's).
KEYED_IDS = [rules if kind == "temporal" else f"{rules}-{kind}"
             for kind, rules in KEYED_RUNS]


def _random_match(rng, open_rows, key):
    """One of: key-bound, full-row, partial-key, non-key, absent, empty."""
    shape = rng.random()
    if shape < 0.35:
        return {"dept": key[0], "name": key[1]}
    if shape < 0.55 and open_rows:
        row = rng.choice(open_rows)
        return dict(getattr(row, "data", row))  # what TQuel's replace sends
    if shape < 0.7:
        return {"dept": key[0]}
    if shape < 0.8:
        return {"rank": rng.choice(RANKS)}
    if shape < 0.9:
        return {"dept": "nowhere", "name": key[1]}
    return {}


def _random_batch(database, rng, txn, open_rows):
    """Buffer 1-3 operations; later ones often revisit the first one's key.
    *open_rows* lists the current state's rows (full-row matches)."""
    key = (rng.choice(DEPTS), rng.choice(NAMES))
    for _ in range(rng.choice([1, 1, 2, 3])):
        if rng.random() < 0.4:
            key = (rng.choice(DEPTS), rng.choice(NAMES))
        kind = rng.random()
        bounds = _valid_bounds(rng)
        if kind < 0.45 and "valid_from" not in bounds:  # inserts need one
            bounds = {"valid_from": BASE + rng.randrange(0, 700)}
        if not database.supports_historical_queries:
            bounds = {}
        if kind < 0.45:
            database.insert("r", {"dept": key[0], "name": key[1],
                                  "rank": rng.choice(RANKS),
                                  "salary": rng.randrange(50, 100)},
                            txn=txn, **bounds)
        elif kind < 0.65:
            database.delete("r", _random_match(rng, open_rows(), key),
                            txn=txn, **bounds)
        else:
            updates = rng.choice([{"salary": rng.randrange(50, 100)},
                                  {"rank": rng.choice(RANKS)}])
            database.replace("r", _random_match(rng, open_rows(), key),
                             updates, txn=txn, **bounds)


def _assert_partition_consistent(relation):
    """The by-key index is exactly the open map, grouped — in its order
    where the store has transaction time (a store without it orders
    each key's rows as the whole-state path does)."""
    grouped = {}
    for row in relation._open.values():
        grouped.setdefault(relation._data(row).key(), []).append(row)
    if isinstance(relation, TransactionTimeStore):
        assert relation._key_index() == {key: tuple(rows)
                                         for key, rows in grouped.items()}
    else:
        assert ({key: sorted(map(repr, rows)) for key, rows
                 in relation._key_index().items()}
                == {key: sorted(map(repr, rows))
                    for key, rows in grouped.items()})
    if not isinstance(relation, TransactionTimeStore):
        # Forgotten completely: no removed row is kept.
        assert not hasattr(relation, "_closed_log")
        return
    # The closed log holds this version's closed rows, each once; the open
    # map its open ones.
    closed = relation.closed_since()
    assert len(set(closed)) == len(closed)
    assert all(row.tt.hi != math.inf for row in closed)
    assert all(row.tt.hi == math.inf for row in relation._open.values())


def _drive_keyed(seed, constraints, steps=70, after_commit=None,
                 kind="temporal"):
    """Random batches against a keyed relation and, in lock step, against
    the oracle: the whole new state (and, with transaction time,
    naive_advance) per operation, then the whole-state check.  Every
    verdict and every installed state must agree."""
    clock = SimulatedClock(BASE)
    database = KINDS[kind](clock=clock)
    database.define("r", _keyed_schema(), constraints=constraints)
    oracle = _empty_oracle(database)
    rng = random.Random(seed)
    verdicts = []
    for step in range(steps):
        clock.set(BASE + 100 + 3 * step)
        installed = database.store("r")
        txn = database.begin()
        _random_batch(database, rng, txn,
                      lambda: list(database.store("r").open_rows()))
        operations = txn.operations
        try:
            txn.commit()
            accepted = True
        except ConstraintViolation:
            accepted = False
        commit_time = database.manager.clock.last
        staged = oracle
        for op in operations:
            staged = _oracle_step(staged, op, commit_time)
        try:
            check_state(staged.current()
                        if isinstance(staged, TransactionTimeStore)
                        else staged, constraints, commit_time)
            expected = True
        except ConstraintViolation:
            expected = False
        assert accepted == expected, (step, operations)
        verdicts.append(accepted)
        if accepted:
            oracle = staged
        else:
            assert database.store("r") is installed
        relation = database.store("r")
        _assert_is_oracle(relation, oracle)
        _assert_partition_consistent(relation)
        if after_commit is not None:
            after_commit(step, database)
    return database, verdicts


class TestKeyedEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 1985])
    @pytest.mark.parametrize("kind,rules", KEYED_RUNS, ids=KEYED_IDS)
    def test_every_commit_matches_the_oracle(self, kind, rules, seed):
        constraints, _ = _kind_rules(kind, rules)
        database, verdicts = _drive_keyed(seed, constraints, kind=kind)
        # The run exercised both outcomes, not just one of them.
        assert any(verdicts) and not all(verdicts)
        _assert_is_oracle(database.store("r"), _replay_naive(database))

    @pytest.mark.parametrize("kind,rules", KEYED_RUNS, ids=KEYED_IDS)
    def test_only_key_local_rules_skip_the_whole_state(self, kind, rules):
        # The touched-keys check is an optimisation the database may take
        # only when no rule can see past the key; rows_examined tells
        # which path ran.
        constraints, local = _kind_rules(kind, rules)
        clock = SimulatedClock(BASE)
        database = KINDS[kind](clock=clock)
        database.define("r", _keyed_schema(), constraints=constraints)
        bounds = ({"valid_from": BASE + 30, "valid_to": BASE + 400}
                  if database.supports_historical_queries else {})
        with database.begin() as txn:
            for dept in DEPTS:
                for name in NAMES[:2]:
                    database.insert("r", {"dept": dept, "name": name,
                                          "rank": "full", "salary": 60},
                                    txn=txn, **bounds)
        clock.set(BASE + 50)
        with obs.recording() as inst:
            database.replace("r", {"dept": "cs", "name": "ann"},
                             {"salary": 61})
        examined = inst.metrics.snapshot()["counters"]["commit.rows_examined"]
        # One row under the key for the delta; then the rows the check saw.
        assert examined == 1 + (1 if local else 6)


class TestHistoricalDatabaseDelta:
    """The historical kind applies the same delta to its one state."""

    @pytest.mark.parametrize("seed", [2, 31])
    def test_state_index_and_verdicts_match_the_whole_state_path(self, seed):
        constraints = [ValidityDuration(at_least=15)]
        clock = SimulatedClock(BASE)
        database = HistoricalDatabase(clock=clock)
        database.define("r", _keyed_schema(), constraints=constraints)
        oracle = database.history("r")
        rng = random.Random(seed)
        verdicts = []
        for step in range(60):
            clock.set(BASE + 100 + 3 * step)
            txn = database.begin()
            _random_batch(database, rng, txn,
                          lambda: database.history("r").rows)
            operations = txn.operations
            try:
                txn.commit()
                accepted = True
            except ConstraintViolation:
                accepted = False
            staged = oracle
            for op in operations:
                # Unrelated to every lineage: a bare value each step.
                staged = apply_historical_operation(
                    type(staged)(staged.schema, staged.rows), op)
            try:
                check_historical_constraints(staged, constraints,
                                             database.manager.clock.last)
                expected = True
            except ConstraintViolation:
                expected = False
            assert accepted == expected, (step, operations)
            verdicts.append(accepted)
            if accepted:
                oracle = staged
            state = database.history("r")
            assert frozenset(state.rows) == frozenset(oracle.rows), step
            assert len(set(state.rows)) == len(state.rows)
            if step % 3 == 0:
                for offset in (0, 150, 450, 900):
                    assert (database.timeslice("r", BASE + offset)
                            == state.timeslice(BASE + offset))
        assert any(verdicts) and not all(verdicts)
        # Valid time has no index: a timeslice is one scan of the state.
        cache = database.index_cache
        assert cache.misses == cache.incremental_updates == 0


#: One operation: (action, key, value, the key a ``rekey`` gives or the
#: value a ``recolor`` gives).
KEYED_OPS = st.tuples(
    st.sampled_from(["insert", "delete", "replace", "rekey", "recolor"]),
    st.sampled_from(KEYS[:4]), st.sampled_from(VALUES),
    st.sampled_from(KEYS + VALUES))


@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "keyless"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(batches=st.lists(st.lists(KEYED_OPS, min_size=1, max_size=3),
                        max_size=14))
def test_current_is_the_oracle_state_in_its_order(kind, keyed, batches):
    # After random batches the current state is the oracle's, row for row
    # in its order: without transaction time a replaced row (one whose
    # key a replace changes too, or one of many a match by value moves)
    # keeps its place, as on the whole-state path; with it, the naive
    # advance's order.  With a key, an insert or rekey to a key the state
    # holds is skipped, so each key holds one row at every step.
    clock = SimulatedClock(BASE)
    database = KINDS[kind](clock=clock)
    database.define("r", Schema.of(key=["k"] if keyed else [],
                                   k=Domain.STRING, v=Domain.STRING))
    bounds = {"valid_from": BASE} if database.supports_historical_queries \
        else {}
    keys = set()
    for step, batch in enumerate(batches):
        clock.set(BASE + 10 + step)
        with database.begin() as txn:
            for action, key, value, other in batch:
                free = not keyed or other not in keys
                if action == "rekey" and other in KEYS and free:
                    database.replace("r", {"k": key}, {"k": other}, txn=txn)
                    if key in keys:
                        keys.discard(key)
                        keys.add(other)
                elif action == "recolor" and other in VALUES:
                    database.replace("r", {"v": value}, {"v": other},
                                     txn=txn)
                elif action == "insert" and (not keyed or key not in keys):
                    database.insert("r", {"k": key, "v": value},
                                    txn=txn, **bounds)
                    keys.add(key)
                elif action == "delete":
                    database.delete("r", {"k": key}, txn=txn)
                    keys.discard(key)
                elif action == "replace":
                    database.replace("r", {"k": key}, {"v": value},
                                     txn=txn)
    state = _replay_naive(database)
    if isinstance(state, TransactionTimeStore):
        state = state.current()
    current = database.store("r").current()
    assert current == state
    assert _rows(current) == _rows(state)


# ---------------------------------------------------------------------------
# Indexes patched from the log slices, refreshed only every Nth commit
# ---------------------------------------------------------------------------

PROBES = (0, 150, 450, 900)


class TestIndexRefreshEveryNth:
    @pytest.mark.parametrize("every", [1, 3, 17])
    def test_patched_indexes_answer_like_rebuilt_ones(self, every):
        refreshes = []

        def compare(step, database):
            if step % every:
                return
            cache = database.index_cache
            relation = database.temporal("r")
            patched = cache.transaction_time("r")
            rebuilt = TransactionTimeIndex(relation)
            commits = relation.commit_times()
            for as_of in commits + [BASE, BASE + 5000]:
                assert patched.rollback(as_of) == rebuilt.rollback(as_of)
                assert (sorted(map(repr, patched.visible(as_of)))
                        == sorted(map(repr, rebuilt.visible(as_of))))
                for offset in PROBES:
                    valid_at = BASE + offset
                    assert (patched.rollback(as_of).timeslice(valid_at)
                            == rebuilt.rollback(as_of).timeslice(valid_at))
            for first, last in ((0, 120), (130, 200), (100, 5000)):
                period = Period(BASE + first, BASE + last)
                assert (sorted(map(repr, patched.visible_during(period)))
                        == sorted(map(repr, rebuilt.visible_during(period))))
            refreshes.append(step)

        database, _ = _drive_keyed(11, [], steps=86, after_commit=compare)
        cache = database.index_cache
        # One build; every later refresh was a patch.
        assert cache.misses == 1
        assert cache.incremental_updates + cache.hits == len(refreshes) - 1

    @pytest.mark.parametrize("every", [1, 3, 17])
    def test_rollback_store_index_follows_the_logs(self, every):
        clock = SimulatedClock(BASE)
        database = RollbackDatabase(clock=clock)
        database.define("r", _schema())
        rng = random.Random(every)
        cache = database.index_cache
        for step in range(60):
            clock.set(BASE + 100 + 3 * step)
            with database.begin() as txn:
                for _ in range(rng.choice([1, 2, 3])):
                    # A small pool: batches often insert and delete the
                    # same tuple (opened and removed in one transaction).
                    row = {"k": rng.choice(KEYS[:3]),
                           "v": rng.choice(VALUES[:2])}
                    if rng.random() < 0.6:
                        database.insert("r", row, txn=txn)
                    else:
                        database.delete("r", {"k": row["k"]}, txn=txn)
            if step % every:
                continue
            store = database.store("r")
            patched, rebuilt = (cache.transaction_time("r"),
                                TransactionTimeIndex(store))
            for as_of in [record.commit_time for record in database.log]:
                assert patched.rollback(as_of) == rebuilt.rollback(as_of)
            period = Period(BASE + 110, BASE + 200)
            assert (patched.visible_during(period)
                    == rebuilt.visible_during(period))
        assert cache.misses == 1


# ---------------------------------------------------------------------------
# The O(Δ) guard: a count, not a clock
# ---------------------------------------------------------------------------

class TestRowsExamined:
    @staticmethod
    def _loaded(keys, element="fact"):
        make, bounds = ELEMENTS[element]
        clock = SimulatedClock(BASE)
        database = make(clock=clock)
        database.define("r", Schema.of(key=["name"], name=Domain.STRING,
                                       rank=Domain.STRING,
                                       salary=Domain.INTEGER))
        with database.begin() as txn:
            for index in range(keys):
                database.insert("r", {"name": f"n{index:04d}",
                                      "rank": "full" if index % 8 == 0
                                      else "associate", "salary": index},
                                txn=txn, **bounds)
        clock.set(BASE + 10)
        return database

    @staticmethod
    def _examined(database, match, updates):
        with obs.recording() as inst:
            database.replace("r", match, updates)
        return inst.metrics.snapshot()["counters"]["commit.rows_examined"]

    def test_single_key_replace_is_independent_of_relation_size(self):
        counts = {keys: self._examined(self._loaded(keys),
                                       {"name": "n0007"}, {"salary": -1})
                  for keys in (64, 2048)}
        # The key's one row for the delta, its one successor for the check.
        assert counts == {64: 2, 2048: 2}

    @pytest.mark.parametrize("element", ["static", "historical"])
    def test_every_kind_examines_two_rows_per_keyed_replace(self, element):
        counts = {keys: self._examined(self._loaded(keys, element),
                                       {"name": "n0007"}, {"salary": -1})
                  for keys in (64, 2048)}
        assert counts == {64: 2, 2048: 2}

    def test_rollback_keyed_replace_hands_the_delta_one_row(self):
        counts = {keys: self._examined(self._loaded(keys, "tuple"),
                                       {"name": "n0007"}, {"salary": -1})
                  for keys in (64, 2048)}
        # The by-key candidates hand the delta the key's one row at any
        # size, and the key check reads the key's one successor.
        assert counts == {64: 2, 2048: 2}

    @pytest.mark.parametrize("keys", [64, 2048])
    def test_key_less_match_scans_the_open_rows(self, keys):
        database = self._loaded(keys)
        examined = self._examined(database, {"rank": "full"}, {"salary": -1})
        assert examined == keys + keys // 8
