"""Differential properties: the by-key lookup against the scan.

A current-state statement whose leading conjuncts bind every schema-key
attribute by ``=`` sources its candidates from the store's by-key index
of open rows (``TransactionTimeStore.open_under_key``) instead of the
whole current state; under ``as of`` (… ``through``), where the store
has a transaction-time index, from that key's closed chain plus its
open rows (``TransactionTimeIndex.under_key``).  The lookup may only *narrow*: on every database
kind, with and without a key, ``plan="auto"`` must return the relation
``plan="naive"`` returns **and raise the error it raises** — under
wrong-domain and null constants, contradictory bindings, a partial
composite key, an absent key, a derived store with duplicate open rows,
and a conjunct that raises on the scan's first row placed ahead of the
binding.  ``replace`` / ``delete`` must leave the same store behind.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.core.temporal import BitemporalRow, TemporalRelation
from repro.errors import ConstraintViolation
from repro.relational import Domain, Schema
from repro.relational.expression import And, AttrRef, Comparison, Const
from repro.relational.schema import Attribute
from repro.relational.tuple import Tuple
from repro.sharding import ShardedDatabase
from repro.time import Instant, Period, SimulatedClock
from repro.time.instant import POS_INF
from repro.tquel.ast import (AggCall, DeleteStmt, ReplaceStmt, RetrieveStmt,
                             TargetItem, TConst, TPCompare, TVar)
from repro.tquel.evaluator import KEY_ACCESS, KEY_HISTORY_ACCESS, Evaluator

from tests.tquel.test_compiled_differential import canonical, outcome

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BASE = Instant.parse("01/01/80")
NOW = BASE + 40
RANGES = {"f": "r"}
ATTRIBUTES = [Attribute("k", Domain.STRING), Attribute("j", Domain.INTEGER),
              Attribute("n", Domain.INTEGER, nullable=True),
              Attribute("s", Domain.STRING)]
SCHEMAS = {"single": Schema(ATTRIBUTES, key=["k"]),
           "composite": Schema(ATTRIBUTES, key=["k", "j"]),
           "keyless": Schema(ATTRIBUTES)}
KINDS = {
    "static": StaticDatabase, "rollback": RollbackDatabase,
    "historical": HistoricalDatabase, "temporal": TemporalDatabase,
    "sharded rollback": lambda clock: ShardedDatabase(
        RollbackDatabase, shards=3, clock=clock),
    "sharded temporal": lambda clock: ShardedDatabase(
        TemporalDatabase, shards=3, clock=clock),
}


def build(kind, shape):
    """A small narrative: several keys, superseded and deleted rows, a
    tuple that leaves and comes back, and on the valid-time kinds several
    open versions under one key."""
    clock = SimulatedClock(BASE)
    database = KINDS[kind](clock=clock)
    database.define("r", SCHEMAS[shape])
    historical = database.kind.supports_historical_queries

    def at(day, **valid):
        clock.set(BASE + day)
        return ({name: BASE + offset for name, offset in valid.items()}
                if historical else {})

    for index in range(5):
        database.insert("r", {"k": f"k{index}", "j": index % 2,
                              "n": index or None, "s": "ab"[index % 2]},
                        **at(index, valid_from=index))
    database.replace("r", {"k": "k0"}, {"n": 7}, **at(10, valid_from=8))
    database.replace("r", {"k": "k2"}, {"s": "b"}, **at(15, valid_from=20))
    database.delete("r", {"k": "k3"}, **at(20, valid_from=18))
    # k0's first tuple returns: a range can see it in two states.
    database.replace("r", {"k": "k0"}, {"n": None}, **at(25, valid_from=24))
    clock.set(NOW)
    return database


def state(database):
    """Everything the store of ``r`` holds, as a comparable value."""
    if isinstance(database, ShardedDatabase):
        return [state(shard) for shard in database.shard_databases]
    store = database.store("r")
    return set(getattr(store, "rows", store))


# -- generated conjunctions ----------------------------------------------------------

def _equals(name, values):
    return st.builds(
        lambda value, flipped: (Comparison("=", Const(value),
                                           AttrRef("f", name)) if flipped
                                else Comparison("=", AttrRef("f", name),
                                                Const(value))),
        values, st.booleans())


#: Present, absent, wrong-domain (``5``, ``True``) and null key constants.
K_BINDINGS = _equals("k", st.sampled_from(["k0", "k1", "k2", "k3", "zz", 5,
                                           True, None]))
#: ``1.0`` equals a stored ``1`` without being of the integer domain.
J_BINDINGS = _equals("j", st.sampled_from([0, 1, 2, 1.0, "1", None]))
OTHERS = st.one_of(
    _equals("s", st.sampled_from(["a", "b"])),
    _equals("n", st.sampled_from([7, None])),
    # Raises on every row (a string against an integer), so on row one.
    st.just(Comparison("<", AttrRef("f", "s"), Const(1))),
    # Raises on the rows whose n is not null only.
    st.just(Comparison(">", AttrRef("f", "n"), Const("x"))),
    st.just(Comparison("!=", AttrRef("f", "k"), Const("k1"))))
CONJUNCTIONS = st.lists(st.one_of(K_BINDINGS, K_BINDINGS, J_BINDINGS, OTHERS),
                        min_size=1, max_size=4)
TARGETS = [TargetItem("k", AttrRef("f", "k")), TargetItem("n", AttrRef("f", "n"))]


def where_of(conjuncts):
    where = conjuncts[0]
    for conjunct in conjuncts[1:]:
        where = And(where, conjunct)
    return where


def retrieve_both(database, statement):
    return [outcome(lambda: canonical(
        Evaluator(database, RANGES, plan=plan).retrieve(statement)))
        for plan in ("auto", "naive")]


DATABASES = {(kind, shape): build(kind, shape)
             for kind in KINDS for shape in SCHEMAS}


@SETTINGS
@given(st.sampled_from(sorted(DATABASES)), CONJUNCTIONS, st.booleans())
def test_a_keyed_retrieve_is_the_naive_retrieve(which, conjuncts, with_when):
    database = DATABASES[which]
    clauses = {}
    if with_when and database.kind.supports_historical_queries:
        clauses["when"] = TPCompare("overlap", TVar("f"),
                                    TConst(str(BASE + 9)))
    statement = RetrieveStmt(targets=TARGETS, where=where_of(conjuncts),
                             **clauses)
    auto, naive = retrieve_both(database, statement)
    assert auto == naive


@SETTINGS
@given(st.sampled_from(sorted(DATABASES)), CONJUNCTIONS, st.booleans())
def test_a_keyed_update_records_the_delta_the_scan_records(which, conjuncts,
                                                           replace):
    where = where_of(conjuncts)
    statement = (ReplaceStmt("f", [("n", Const(9))], where=where)
                 if replace else DeleteStmt("f", where=where))
    after = []
    for plan in ("auto", "naive"):
        database = build(*which)
        raised = outcome(lambda: Evaluator(database, RANGES,
                                           plan=plan).execute(statement))
        after.append((raised[0], raised[1] if raised[0] == "raised" else None,
                      state(database), len(database.log)))
    assert after[0] == after[1]


#: Before, at, between and after the narrative's commits (days 0–20).
PINS = st.sampled_from([str(BASE + day) for day in (-1, 0, 2, 10, 12, 20, 30)])
COUNT = [TargetItem("c", AggCall("count", AttrRef("f", "k")))]


@SETTINGS
@given(st.sampled_from(sorted(DATABASES)), CONJUNCTIONS, PINS,
       st.one_of(st.none(), PINS), st.booleans())
def test_a_keyed_as_of_retrieve_is_the_naive_retrieve(which, conjuncts, pin,
                                                      through, count):
    # Under `as of` (… `through`, backwards ranges included) a bound key
    # reads that key's versions; static and historical refuse alike.
    clauses = {"as_of": TConst(pin)}
    if through is not None:
        clauses["as_of_through"] = TConst(through)
    statement = RetrieveStmt(targets=COUNT if count else TARGETS,
                             where=where_of(conjuncts), **clauses)
    auto, naive = retrieve_both(DATABASES[which], statement)
    assert auto == naive


# -- the cases by name ---------------------------------------------------------------

def explain(database, where, plan="auto", **clauses):
    statement = RetrieveStmt(targets=TARGETS, where=where, **clauses)
    return Evaluator(database, RANGES, plan=plan).explain(
        statement)["variables"]["f"]


def k_is(value):
    return Comparison("=", AttrRef("f", "k"), Const(value))


def j_is(value):
    return Comparison("=", AttrRef("f", "j"), Const(value))


RAISES = Comparison("<", AttrRef("f", "s"), Const(1))


@pytest.mark.parametrize("kind", ["temporal", "rollback", "static",
                                  "historical"])
def test_the_lookup_is_taken_exactly_when_the_whole_key_is_pinned(kind):
    single, composite = DATABASES[kind, "single"], DATABASES[kind, "composite"]
    taken = [(single, k_is("k0")), (single, And(k_is("zz"), RAISES)),
             (single, And(k_is("k0"), k_is("k1"))),
             (composite, And(k_is("k1"), j_is(1))),
             (composite, And(j_is(1), And(k_is("zz"), RAISES)))]
    for database, where in taken:
        info = explain(database, where)
        assert (info["index"], info["plan"]) == (KEY_ACCESS, "index"), where
        assert "key lookup" in info["plan_reason"]
    scanned = [(single, k_is(5)), (single, k_is(None)),
               (single, And(Comparison("!=", AttrRef("f", "s"), Const("c")),
                            k_is("zz"))),
               (composite, k_is("k1")), (composite, And(k_is("k1"), j_is(1.0))),
               (DATABASES[kind, "keyless"], k_is("k0"))]
    for database, where in scanned:
        assert explain(database, where)["index"] != KEY_ACCESS, where
    assert explain(single, k_is("k0"), plan="naive")["plan"] == "naive"


@pytest.mark.parametrize("kind", ["temporal", "rollback"])
def test_under_as_of_the_lookup_reads_the_key_versions(kind):
    database = DATABASES[kind, "single"]
    versions = len([row for row in database.store("r").rows
                    if row.data["k"] == "k0"])
    for clauses in ({"as_of": TConst(str(BASE + 9))},
                    {"as_of": TConst(str(BASE)),
                     "as_of_through": TConst(str(NOW))}):
        info = explain(database, k_is("k0"), **clauses)
        assert (info["index"], info["plan"]) == (KEY_HISTORY_ACCESS, "index")
        assert 1 <= info["candidates"] <= versions
        assert explain(database, k_is("k0"), plan="naive",
                       **clauses)["index"] != KEY_HISTORY_ACCESS


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_tuple_in_two_states_of_a_range_counts_once(kind):
    statement = RetrieveStmt(targets=COUNT, where=k_is("k0"),
                             as_of=TConst(str(BASE)),
                             as_of_through=TConst(str(NOW)))
    auto, naive = retrieve_both(DATABASES[kind, "single"], statement)
    assert auto == naive


@pytest.mark.parametrize("kind", ["temporal", "rollback"])
def test_a_conjunct_that_raises_ahead_of_an_absent_key_still_raises(kind):
    database = DATABASES[kind, "single"]
    statement = RetrieveStmt(targets=TARGETS, where=And(RAISES, k_is("zz")))
    auto, naive = retrieve_both(database, statement)
    assert auto == naive and auto[0] == "raised"
    # Behind the binding it never meets a row: both return nothing.
    statement = RetrieveStmt(targets=TARGETS, where=And(k_is("zz"), RAISES))
    assert retrieve_both(database, statement) == [("value", set())] * 2


def test_a_store_with_duplicate_open_rows_is_refused():
    # An element is open at most once, so the key index holds every open
    # row and a probe always answers: a value holding one element open
    # twice is refused where it is built.
    database = build("temporal", "single")
    data = Tuple(SCHEMAS["single"], {"k": "k0", "j": 0, "n": 1, "s": "a"})
    valid = Period(BASE, POS_INF)
    twice = [BitemporalRow(data, valid, Period(BASE + day, POS_INF))
             for day in (1, 2)]
    with pytest.raises(ConstraintViolation, match="open twice"):
        TemporalRelation(SCHEMAS["single"], twice)
    once = TemporalRelation(SCHEMAS["single"], twice[:1])
    database._store["r"] = once
    assert once.open_under_key({"k": "k0"}) == tuple(twice[:1])
    assert explain(database, k_is("k0"))["index"] == KEY_ACCESS
    statement = RetrieveStmt(targets=TARGETS, where=k_is("k0"))
    auto, naive = retrieve_both(database, statement)
    assert auto == naive and len(auto[1]) == 1
