"""One op stream, four doors — and one place the clock ticks.

A batch of value-carrying operations stamped with one commit time means
the same thing whatever issues it (the paper's §4.2 transaction).  The
doors: an explicit ``with db.begin()``, ``manager.run`` on the raw
operations, ``SessionLayer.run`` and a 1-shard ``ShardedDatabase.begin()``.
All end in ``TransactionManager.run``, so the same stream must leave equal
stores and equal commit-log records behind on all four database kinds —
including which batches are rejected, and with what.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import ReproError
from repro.relational import CheckConstraint, Domain, Schema, attr
from repro.sharding import ShardedDatabase
from repro.time import Instant, SimulatedClock

BASE = Instant.parse("01/01/80")
KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase]
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
#: Shared by every store, so their ``define`` records compare equal.
NON_NEGATIVE = [CheckConstraint(attr("v") >= 0)]

steps = st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                  st.sampled_from(["k0", "k1", "k2"]),
                  st.integers(min_value=-1, max_value=3))
streams = st.lists(st.lists(steps, min_size=1, max_size=4),
                   min_size=1, max_size=6)


def issue(target, store, step, **into):
    """One step through *target*'s DML methods (a store, with ``txn=``,
    or a session)."""
    action, key, value = step
    if store.kind.supports_historical_queries:
        into["valid_from"] = BASE
    if action == "insert":
        target.insert("r", {"k": key, "v": value}, **into)
    elif action == "delete":
        target.delete("r", {"k": key}, **into)
    else:
        target.replace("r", {"k": key}, {"v": value}, **into)


def operations_of(store, batch):
    """The raw operations *batch* expands to (the DML methods only
    validate their arguments and build them)."""
    probe = store.begin()
    try:
        for step in batch:
            issue(store, store, step, txn=probe)
        return probe.operations
    finally:
        probe.abort()


def explicit(store, batch):
    with store.begin() as txn:
        for step in batch:
            issue(store, store, step, txn=txn)


def session(store, batch):
    store.sessions().run(
        lambda s: [issue(s, store, step) for step in batch])


def drive(store, stream, door, clock):
    """Run *stream* through *door*; returns the per-batch verdicts."""
    store.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                v=Domain.INTEGER),
                 constraints=NON_NEGATIVE)
    verdicts = []
    for index, batch in enumerate(stream):
        clock.set(BASE + 10 * (index + 1))
        try:
            door(store, batch)
            verdicts.append(None)
        except ReproError as error:
            verdicts.append(type(error))
    return verdicts


def history(database):
    return [(record.commit_time, record.operations)
            for record in database.log]


@pytest.mark.parametrize("kind", KINDS, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(stream=streams)
def test_one_op_stream_four_doors(kind, stream):
    clocks = [SimulatedClock(BASE) for _ in range(4)]
    first, raw, through_layer = (kind(clock=clock) for clock in clocks[:3])
    sharded = ShardedDatabase(kind, shards=1, clock=clocks[3])

    def run_raw(store, batch):
        store.manager.run(operations_of(store, batch))

    verdicts = drive(first, stream, explicit, clocks[0])
    assert drive(raw, stream, run_raw, clocks[1]) == verdicts
    assert drive(through_layer, stream, session, clocks[2]) == verdicts
    assert drive(sharded, stream, explicit, clocks[3]) == verdicts

    only_shard = sharded.shard_databases[0]
    for other in (raw, through_layer, only_shard):
        assert other.store("r") == first.store("r")
        assert history(other) == history(first)


@pytest.mark.parametrize("kind", KINDS, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(stream=streams)
def test_a_rehearsal_says_what_the_commit_would(kind, stream):
    # rehearse() and the applier share their staging, constraint check
    # included: same verdict, and a rehearsal changes nothing.
    clock = SimulatedClock(BASE)
    database = kind(clock=clock)

    def rehearse_then_run(store, batch):
        operations = operations_of(store, batch)
        before, log = store.store("r"), len(store.log)
        try:
            store.rehearse(operations, store.manager.clock.peek())
            rehearsed = None
        except ReproError as error:
            rehearsed = type(error)
        assert store.store("r") is before and len(store.log) == log
        try:
            store.manager.run(operations)
            assert rehearsed is None
        except ReproError as error:
            assert rehearsed is type(error)
            raise

    drive(database, stream, rehearse_then_run, clock)


def test_the_transaction_clock_ticks_in_one_place():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "tick"):
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert len(calls) == 1 and calls[0].startswith(
        "repro/txn/manager.py:"), calls
