"""A transaction's operations fold into one working copy per relation.

``Database._apply_dml`` copies a relation's open map and key index once
per transaction and applies every later operation of the transaction to
that copy in place.  The reference is what each operation did before:
derive its own version from a fresh copy (``StateStore.advance`` with
``mine`` forced off).  On all four kinds, over keyed and keyless
relations, batches that insert a key and then replace or delete it, and
batches that break the key, the two must leave the same rows in the same
order — open map, closed log and key index — the same digest, or raise
the same exception with the same message; and the version installed
before the batch must not change under either.  A rollback database's
history is also held to an independent reference: a static database
snapshotted after every commit (``tests/core/snapshot_model.py``).
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.core.transaction_time import StateStore, TransactionTimeStore
from repro.relational import Domain, Schema
from repro.replication import state_digest
from repro.time import Instant, SimulatedClock

from tests.core.snapshot_model import SnapshotModel

BASE = Instant.parse("01/01/80")
KINDS = {"static": StaticDatabase, "rollback": RollbackDatabase,
         "historical": HistoricalDatabase, "temporal": TemporalDatabase}
KEYS = st.sampled_from(["a", "b", "c"])
VALUES = st.integers(0, 2)


@st.composite
def operations(draw):
    """``(action, key, value, valid_from, valid_to)``: a day offset or
    None for each end (an insert always gets a start)."""
    action = draw(st.sampled_from(["insert", "insert", "replace", "delete"]))
    start = draw(st.one_of(st.none(), st.integers(0, 6)))
    if action == "insert" and start is None:
        start = 0
    end = draw(st.one_of(st.none(), st.integers(1, 4)))
    return (action, draw(KEYS), draw(VALUES), start,
            None if end is None or start is None else start + end)


def submit(database, operation, txn=None):
    action, key, value, start, end = operation
    period = {}
    if database.kind.supports_historical_queries:
        if start is not None:
            period["valid_from"] = BASE + start
        if end is not None:
            period["valid_to"] = BASE + end
    if action == "insert":
        database.insert("r", {"k": key, "v": value}, txn=txn, **period)
    elif action == "replace":
        database.replace("r", {"k": key}, {"v": value}, txn=txn, **period)
    else:
        database.delete("r", {"k": key}, txn=txn, **period)


def build(kind, keyed, setup):
    database = kind(clock=SimulatedClock(BASE))
    database.define("r", Schema.of(key=["k"] if keyed else None,
                                   k=Domain.STRING, v=Domain.INTEGER))
    for operation in setup:
        try:
            submit(database, operation)
        except Exception:  # noqa: BLE001 - a refused setup step is fine
            pass
    return database


def layout(store):
    """Everything whose order a store keeps: rows, open map, closed log,
    key index."""
    past = (list(store._closed_log[:store._closed_len])
            if isinstance(store, TransactionTimeStore) else None)
    index = store._key_index()
    return (list(store.rows), list(store._open.items()), past,
            None if index is None else list(index.items()))


def commit(database, batch):
    """The batch's outcome and the store after it."""
    try:
        with database.begin() as txn:
            for operation in batch:
                submit(database, operation, txn)
        outcome = ("committed",)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        outcome = ("raised", type(error), str(error))
    store = database.store("r")
    return outcome, layout(store), state_digest(database, cache=False)


def one_at_a_time():
    """Every operation derives its own version from a fresh copy."""
    real = StateStore.advance

    def advance(self, removed, added, commit_time, touched=None,
                mine=False):
        return real(self, removed, added, commit_time, touched, False)

    return mock.patch.object(StateStore, "advance", advance)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(KINDS)), st.booleans(),
       st.lists(operations(), max_size=4),
       st.lists(operations(), min_size=1, max_size=8), operations())
def test_a_folded_batch_is_its_operations_one_at_a_time(kind, keyed, setup,
                                                       batch, after):
    folded, reference = (build(KINDS[kind], keyed, setup),
                         build(KINDS[kind], keyed, setup))
    installed = folded.store("r")
    before = layout(installed)
    for database in (folded, reference):
        database.manager.clock.source.set(BASE + 10)
    with one_at_a_time():
        expected = commit(reference, batch)
    assert commit(folded, batch) == expected
    assert layout(installed) == before
    # The installed working copy goes on as the reference's version does.
    for database in (folded, reference):
        database.manager.clock.source.set(BASE + 20)
    with one_at_a_time():
        expected = commit(reference, [after])
    assert commit(folded, [after]) == expected
    if kind == "rollback":  # every state it answers for, to the model's
        model = build(SnapshotModel, keyed, setup)
        for at, operations in ((10, batch), (20, [after])):
            model.manager.clock.source.set(BASE + at)
            commit(model, operations)
        for when, state in model.states("r"):
            assert folded.rollback("r", when) == state
        model.check_view(folded.store("r").states(), "r")
