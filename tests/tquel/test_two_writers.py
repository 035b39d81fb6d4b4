"""Two TQuel writers on one store: match and apply are one unit.

The regression for the two-writer defect (ROADMAP, "defect first"):
``delete`` / ``replace`` used to match rows with no lock held and then
open an explicit ``begin()`` transaction, so two ``repro serve``
executor threads either tripped the single-writer rule with a
non-retryable ``TransactionStateError`` or — when a row changed between
one writer's match and its apply — had a full-row ``replace`` match
nothing and silently drop the write.

No sleeps, no stress loop: the interleaving is forced by
``threading.Event`` hand-offs at the match→apply boundary.  Writer A is
parked right after it matched; writer B is released and must *engage* —
reach its own match (unserialized code) or the store's serialization
gate (serialized code) — before A may go on to apply.
"""

import threading

import pytest

from repro.core import RollbackDatabase, StaticDatabase, TemporalDatabase
from repro.relational import Domain, Schema
from repro.sharding import ShardedDatabase
from repro.time import SimulatedClock
from repro.tquel import Session
from repro.tquel.evaluator import Evaluator

BASE = "01/01/80"
WAIT = 30  # seconds; a bound on every hand-off, never a pacing device


def faculty(store):
    store.define("faculty", Schema.of(
        key=["name"], name=Domain.STRING, salary=Domain.INTEGER))
    bounds = ({"valid_from": BASE}
              if store.kind.supports_historical_queries else {})
    for name in ("Merrie", "Tom"):
        store.insert("faculty", {"name": name, "salary": 100}, **bounds)
    return store


STORES = {
    "temporal": lambda: TemporalDatabase(clock=SimulatedClock(BASE)),
    "static": lambda: StaticDatabase(clock=SimulatedClock(BASE)),
    "sharded": lambda: ShardedDatabase(StaticDatabase, shards=3,
                                       clock=SimulatedClock(BASE)),
}


def race(store, monkeypatch, statement_a, statement_b):
    """Run A and B with B engaging while A sits between match and apply."""
    a_matched, b_engaged = threading.Event(), threading.Event()
    real_match = Evaluator._matching_rows

    def matching(self, statement):
        rows = real_match(self, statement)
        who = threading.current_thread().name
        if who == "writer-A":
            a_matched.set()
            assert b_engaged.wait(WAIT), "B never engaged"
        elif who == "writer-B":
            b_engaged.set()  # unserialized code gets this far
        return rows

    monkeypatch.setattr(Evaluator, "_matching_rows", matching)
    real_certify = store.manager.certify

    def certify(*args, **kwargs):
        if threading.current_thread().name == "writer-B":
            b_engaged.set()  # at the gate A is holding shut
        return real_certify(*args, **kwargs)

    monkeypatch.setattr(store.manager, "certify", certify)

    errors = []

    def writer(statement):
        try:
            session = Session(store)
            session.execute("range of f is faculty")
            session.execute(statement)
        except Exception as error:  # surfaced by the assertions below
            errors.append(error)

    first = threading.Thread(target=writer, args=(statement_a,),
                             name="writer-A", daemon=True)
    second = threading.Thread(target=writer, args=(statement_b,),
                              name="writer-B", daemon=True)
    first.start()
    assert a_matched.wait(WAIT)
    second.start()
    for thread in (first, second):
        thread.join(timeout=WAIT)
        assert not thread.is_alive()
    return errors


def salaries(store):
    return {row["name"]: row["salary"] for row in store.snapshot("faculty")}


@pytest.mark.parametrize("make", STORES.values(), ids=STORES.keys())
class TestTwoWriters:
    def test_same_key_neither_update_is_lost(self, make, monkeypatch):
        store = faculty(make())
        before = len(store.log)
        bump = ('replace f (salary = f.salary + 100) '
                'where f.name = "Merrie"')
        assert race(store, monkeypatch, bump, bump) == []
        assert salaries(store) == {"Merrie": 300, "Tom": 100}
        assert len(store.log) == before + 2  # both committed

    def test_different_keys_both_commit(self, make, monkeypatch):
        store = faculty(make())
        before = len(store.log)
        assert race(
            store, monkeypatch,
            'replace f (salary = f.salary + 100) where f.name = "Merrie"',
            'replace f (salary = f.salary + 7) where f.name = "Tom"') == []
        assert salaries(store) == {"Merrie": 200, "Tom": 107}
        assert len(store.log) == before + 2

    def test_delete_racing_replace_is_serialized(self, make, monkeypatch):
        store = faculty(make())
        assert race(
            store, monkeypatch,
            'delete f where f.name = "Merrie"',
            'replace f (salary = f.salary + 100) '
            'where f.name = "Merrie"') == []
        # A matched first and holds the gate, so the delete wins and the
        # replace then matches nothing — a serial order, not a lost row.
        assert salaries(store) == {"Tom": 100}


@pytest.mark.parametrize("kind", [StaticDatabase, RollbackDatabase],
                         ids=["static", "rollback"])
def test_delete_where_matches_and_applies_as_one_unit(kind, monkeypatch):
    # The API twin of the TQuel defect: delete_where resolved its
    # predicate with no lock held, then committed through an explicit
    # begin().  Here the hand-off rides on the predicate itself: A parks
    # on its first row; B is released and must either take the
    # single-writer slot (unserialized code: A's begin() then fails with
    # a non-retryable TransactionStateError) or reach the gate A holds.
    store = faculty(kind(clock=SimulatedClock(BASE)))
    before = len(store.log)
    a_matched, b_engaged, a_done = (threading.Event() for _ in range(3))
    victim = {"writer-A": "Merrie", "writer-B": "Tom"}

    def predicate(row):
        who = threading.current_thread().name
        if who == "writer-A" and not a_matched.is_set():
            a_matched.set()
            assert b_engaged.wait(WAIT), "B never engaged"
        return row["name"] == victim[who]

    real_begin, real_certify = store.manager.begin, store.manager.certify

    def begin():
        txn = real_begin()
        if threading.current_thread().name == "writer-B":
            b_engaged.set()  # unserialized code: B owns the writer slot
            assert a_done.wait(WAIT), "A never finished"
        return txn

    def certify(validate):
        if threading.current_thread().name == "writer-B":
            b_engaged.set()  # at the gate A is holding shut
        return real_certify(validate)

    monkeypatch.setattr(store.manager, "begin", begin)
    monkeypatch.setattr(store.manager, "certify", certify)
    errors = []

    def writer():
        try:
            store.delete_where("faculty", predicate)
        except Exception as error:  # surfaced by the assertions below
            errors.append(error)
        finally:
            if threading.current_thread().name == "writer-A":
                a_done.set()

    first = threading.Thread(target=writer, name="writer-A", daemon=True)
    second = threading.Thread(target=writer, name="writer-B", daemon=True)
    first.start()
    assert a_matched.wait(WAIT)
    second.start()
    for thread in (first, second):
        thread.join(timeout=WAIT)
        assert not thread.is_alive()
    assert errors == []
    assert salaries(store) == {}
    assert len(store.log) == before + 2  # both committed, one after the other


def test_commit_times_strictly_increase_across_the_race(monkeypatch):
    store = faculty(TemporalDatabase(clock=SimulatedClock(BASE)))
    bump = 'replace f (salary = f.salary + 100) where f.name = "Merrie"'
    assert race(store, monkeypatch, bump, bump) == []
    times = [record.commit_time for record in store.log]
    assert all(a < b for a, b in zip(times, times[1:]))
    # Both versions are in closed history: 100 → 200 → 300.
    seen = sorted({row.data["salary"] for row in store.temporal("faculty")
                   if row.data["name"] == "Merrie"})
    assert seen == [100, 200, 300]
