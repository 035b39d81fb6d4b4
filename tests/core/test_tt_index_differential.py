"""The transaction-time index against the store's own scans.

:class:`~repro.core.indexing.TransactionTimeIndex` holds the *closed*
rows only — an insert-only interval tree and per-key chains in closing
order, each built on the first read that needs it and then patched from
``closed_since`` — and takes the open rows from the store.  Generated
histories on a temporal and an interval-rollback database mix keyed and
unkeyed replaces, ``valid from`` splits and deletes, a row opened and
superseded in one transaction, refused and aborted batches, and a
redefine that breaks the lineage.  After every batch, the index the
database's cache hands out (built once, then patched) must answer
``visible``, ``overlapping`` and ``under_key`` exactly as the store's
scans do, as multisets, at every commit instant and at ±∞; a pin of
another unit must raise :class:`GranularityError` on both sides.  The
versions share the tree and chains, so the index taken at the previous
read must go on answering for its own version after later reads patch
them.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (RollbackDatabase, TemporalDatabase,
                        TransactionTimeIndex)
from repro.errors import ConstraintViolation, GranularityError
from repro.relational import Domain, Schema
from repro.time import Instant, Period, SimulatedClock
from repro.time.chronon import Granularity
from repro.time.instant import NEG_INF, POS_INF

BASE = Instant.parse("01/01/80")
KEYS = ["k0", "k1", "k2", "k3"]
VALUES = [1, 2, 3]
SCHEMA = Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER)
KINDS = {"temporal": TemporalDatabase, "rollback": RollbackDatabase}

OPS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(KEYS),
              st.sampled_from(VALUES)),
    # A keyed replace / delete, whole or (temporal) `valid from` a split.
    st.tuples(st.just("replace"), st.sampled_from(KEYS),
              st.sampled_from(VALUES), st.integers(0, 60)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), st.integers(0, 60)),
    # An unkeyed replace: every open row of one value.
    st.tuples(st.just("recolour"), st.sampled_from(VALUES),
              st.sampled_from(VALUES)),
    # Opened and superseded within one transaction: withdrawn, not closed.
    st.tuples(st.just("churn"), st.sampled_from(KEYS),
              st.sampled_from(VALUES)))
STEPS = st.lists(st.tuples(
    st.one_of(st.lists(OPS, min_size=1, max_size=3),
              st.just("abort"), st.just("redefine")),
    # Which reads follow the batch: none (the next read patches across
    # several commits), keyed only (chains without a tree), or all.
    st.sampled_from(["none", "keyed", "full"])), min_size=1, max_size=10)


def run(database, op, historical, txn):
    """One generated operation, buffered in *txn*."""
    def valid(day=0):
        return {"valid_from": BASE + day} if historical else {}
    name = op[0]
    if name == "insert":
        database.insert("r", {"k": op[1], "v": op[2]}, txn=txn, **valid())
    elif name == "replace":
        database.replace("r", {"k": op[1]}, {"v": op[2]}, txn=txn,
                         **valid(op[3]))
    elif name == "delete":
        database.delete("r", {"k": op[1]}, txn=txn, **valid(op[2]))
    elif name == "recolour":
        database.replace("r", {"v": op[1]}, {"v": op[2]}, txn=txn,
                         **valid())
    else:  # churn
        database.insert("r", {"k": op[1], "v": op[2]}, txn=txn, **valid())
        database.replace("r", {"k": op[1]}, {"v": op[2] + 10}, txn=txn,
                         **valid())


def outcome(thunk):
    """A multiset of rows, or the type of what was raised."""
    try:
        return Counter(thunk())
    except GranularityError as error:
        return type(error)


def pins_of(database):
    pins = sorted({record.commit_time for record in database.log})
    return [NEG_INF] + pins + [POS_INF]


def check(database, reads):
    """Check the cache's index; return it."""
    store = database.store("r")
    index = database.index_cache.transaction_time("r")
    assert index.relation is store
    pins = pins_of(database)
    ranges = list(zip(pins, pins[1:])) + [(pins[1], pins[-2]),
                                          (NEG_INF, POS_INF)]
    # The same rows loaded out of closing order: the chains are sorted.
    loaded = TransactionTimeIndex(type(store)(store.schema,
                                              reversed(store.rows)))
    for pin in pins:
        if reads == "full":
            assert Counter(index.visible(pin)) == Counter(store.visible(pin))
            assert index.rollback(pin) == store.rollback(pin)
        for key in KEYS + ["absent"]:
            expected = Counter(row for row in store.visible(pin)
                               if row.data["k"] == key)
            assert Counter(index.under_key({"k": key}, pin)) == expected
            assert Counter(loaded.under_key({"k": key}, pin)) == expected
    for first, last in ranges:
        period = Period.from_inclusive(first, last)
        if reads == "full":
            assert (Counter(index.overlapping(period))
                    == Counter(store.overlapping(period)))
            assert index.visible_during(period) == \
                store.visible_during(period)
        for key in KEYS[:2]:
            assert (Counter(index.under_key({"k": key}, first, last))
                    == Counter(row for row in store.overlapping(period)
                               if row.data["k"] == key)), (first, last, key)
    # A pin of another unit: refused alike, or (empty store) by neither.
    second = Instant.from_chronon(BASE.chronon * 86400, Granularity.SECOND)
    assert (outcome(lambda: index.under_key({"k": "k0"}, second))
            == outcome(lambda: [row for row in store.visible(second)
                                if row.data["k"] == "k0"]))
    if reads == "full":
        assert (outcome(lambda: index.visible(second))
                == outcome(lambda: store.visible(second)))
        assert (outcome(lambda: index.overlapping(Period(second, second + 9)))
                == outcome(lambda: store.overlapping(
                    Period(second, second + 9))))
    return index


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(KINDS)), STEPS)
def test_the_patched_index_answers_as_the_store_scans(kind, steps):
    clock = SimulatedClock(BASE)
    database = KINDS[kind](clock=clock)
    database.define("r", SCHEMA)
    historical = database.kind.supports_historical_queries
    day = 100
    lineages = 1
    stale = None
    for batch, reads in steps:
        day += 2
        clock.set(BASE + day)
        if batch == "redefine":
            database.drop("r")
            database.define("r", SCHEMA)
            lineages += 1
        elif batch == "abort":
            txn = database.begin()
            run(database, ("insert", "k9", 1), historical, txn)
            txn.abort()
        else:
            try:
                with database.begin() as txn:
                    for op in batch:
                        run(database, op, historical, txn)
            except ConstraintViolation:
                pass  # refused whole: the installed version stays
        if reads == "none":
            continue
        index = check(database, reads)
        if stale is not None:
            for pin in pins_of(database):
                assert (Counter(stale.visible(pin))
                        == Counter(stale.relation.visible(pin)))
                for key in KEYS[:2]:
                    assert (Counter(stale.under_key({"k": key}, pin))
                            == Counter(row for row in
                                       stale.relation.visible(pin)
                                       if row.data["k"] == key))
        stale = index
    # Built once per lineage at most; every later read was a patch.
    assert database.index_cache.misses <= lineages
