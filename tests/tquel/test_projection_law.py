"""Law: projection commutes with the temporal selections.

On every kind and over generated histories, ``retrieve (f.a, …)`` under
``as of t``, ``as of t through u``, ``when f overlap d`` (and the current
state) is the full-width retrieve under the same clauses with its rows
projected onto ``a, …`` afterwards — the same values with the same valid
and transaction periods, each fact open once (where the projection opens
one twice, the earlier row alone) — and the same statement under
``plan=naive``.
A projected row is the stored row's values re-read (Mkaouar et al.,
PAPERS.md): the evaluator copies them without a second domain check, so
this law is what holds that copy to the full row it came from.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import ReproError
from repro.relational import Domain, Relation, Schema
from repro.relational.schema import Attribute
from repro.time import Instant, SimulatedClock
from repro.tquel import Session

from tests.tquel.test_compiled_differential import earliest_open

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BASE = Instant.parse("01/01/80")
RANK = Domain.enumeration("rank", "assistant", "associate", "full")
NAMES = ("k", "n", "r", "w")
KINDS = (StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase)


def schema():
    # One attribute of each domain shape a projection copies: a built-in,
    # a nullable built-in, an enumeration and a user-defined time.
    return Schema([Attribute("k", Domain.STRING),
                   Attribute("n", Domain.INTEGER, nullable=True),
                   Attribute("r", RANK),
                   Attribute("w", Domain.user_defined_time("w"),
                             nullable=True)], key=["k"])


VALUES = st.fixed_dictionaries({
    "n": st.one_of(st.none(), st.integers(0, 3)),
    "r": st.sampled_from(RANK.enum_values),
    "w": st.one_of(st.none(), st.integers(0, 9).map(lambda d: BASE + d))})
OPS = st.lists(st.tuples(
    st.integers(1, 3),                                  # days to the commit
    st.sampled_from(["insert", "insert", "replace", "delete"]),
    st.sampled_from(["k0", "k1", "k2"]),
    VALUES,
    st.integers(-6, 4),                                 # valid from, vs now
    st.one_of(st.none(), st.integers(1, 8))),           # valid length
    max_size=10)


def build(db_class, ops):
    """A database of *db_class* driven through *ops*; an op the kind
    refuses (a duplicate key, nothing to replace) is skipped."""
    clock = SimulatedClock(BASE)
    database = db_class(clock=clock)
    database.define("r", schema())
    historical = database.kind.supports_historical_queries
    for gap, op, key, values, start, length in ops:
        clock.advance(gap)
        valid = {}
        if historical:
            valid["valid_from"] = clock.current() + start
            if length is not None:
                valid["valid_to"] = valid["valid_from"] + length
        try:
            if op == "insert":
                database.insert("r", {"k": key, **values}, **valid)
            elif op == "replace":
                database.replace("r", {"k": key}, values, **valid)
            else:
                database.delete("r", {"k": key}, **valid)
        except ReproError:
            continue
    clock.advance(1)
    return database


def day(offset):
    return f'"{BASE + offset}"'


@st.composite
def clauses(draw, db_class):
    """The temporal selections *db_class* has: ``when f overlap d`` on the
    valid-time kinds, ``as of t [through u]`` on the rollback kinds, both
    on a temporal database — or none (the current state)."""
    kind = db_class.kind
    parts = []
    if kind.supports_historical_queries and draw(st.booleans()):
        parts.append(f"when f overlap {day(draw(st.integers(-8, 36)))}")
    if kind.supports_rollback and draw(st.booleans()):
        first = draw(st.integers(0, 34))
        parts.append(f"as of {day(first)}")
        if draw(st.booleans()):
            parts.append(f"through {day(first + draw(st.integers(0, 12)))}")
    return " ".join(parts)


def canonical(result):
    """A result as ``{(values, valid, tt)}``, ``None`` on an absent axis."""
    if isinstance(result, Relation):
        return {(row.values, None, None) for row in result}
    return {(row.data.values, row.valid, getattr(row, "tt", None))
            for row in result.rows}


def check(db_class, ops, targets, clause):
    database = build(db_class, ops)
    sessions = {plan: Session(database, plan=plan)
                for plan in ("auto", "naive")}
    for session in sessions.values():
        session.execute("range of f is r")
    listed = ", ".join(f"f.{name}" for name in targets)
    projected = {plan: canonical(session.query(
        f"retrieve ({listed}) {clause}")) for plan, session in sessions.items()}
    full = canonical(sessions["auto"].query(
        f"retrieve ({', '.join(f'f.{name}' for name in NAMES)}) {clause}"))
    positions = [NAMES.index(name) for name in targets]
    afterwards = earliest_open({(tuple(values[i] for i in positions), valid,
                                 tt) for values, valid, tt in full})
    assert projected["auto"] == afterwards
    assert projected["naive"] == projected["auto"]


TARGETS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                   unique=True)


@SETTINGS
@given(OPS, TARGETS, clauses(StaticDatabase))
def test_static_projection_commutes(ops, targets, clause):
    check(StaticDatabase, ops, targets, clause)


@SETTINGS
@given(OPS, TARGETS, clauses(RollbackDatabase))
def test_rollback_projection_commutes(ops, targets, clause):
    check(RollbackDatabase, ops, targets, clause)


@SETTINGS
@given(OPS, TARGETS, clauses(HistoricalDatabase))
def test_historical_projection_commutes(ops, targets, clause):
    check(HistoricalDatabase, ops, targets, clause)


@SETTINGS
@given(OPS, TARGETS, clauses(TemporalDatabase))
def test_temporal_projection_commutes(ops, targets, clause):
    check(TemporalDatabase, ops, targets, clause)
