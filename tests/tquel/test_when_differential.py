"""Differential properties: the compiled ``when`` against the tree walk.

``Evaluator.retrieve`` tests a ``when`` clause with closures built once
per statement over the folded predicate (``compile_when``); the tree walk
``eval_temporal_predicate`` stays as the specification.  Both levels are
held to it here, value for value and error for error (class and
message):

- unit: the compiled form of a folded tree against the unfolded walk,
  under generated valid periods of two range variables, bounded or not;
- end to end: generated retrieves on a historical and a temporal
  database, under plans ``naive`` / ``index`` / ``auto``, with and
  without ``as of`` (and ``through``), against the same retrieve whose
  ``when`` runs the tree walk instead.

The trees cover the nine operators, ``and`` / ``or`` / ``not``, ``start
of``, ``end of``, ``overlap()``, ``extend()`` and ``now``; constants that
fold, and constants the walk refuses (a bare ``forever`` or
``beginning``, ``start of`` / ``end of`` an unbounded period), which must
raise the same error at the same row.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HistoricalDatabase, TemporalDatabase
from repro.relational import Domain, Relation, Schema
from repro.relational.expression import AttrRef, Comparison, Const
from repro.relational.schema import Attribute
from repro.time import Instant, Period, SimulatedClock
from repro.time.instant import NEG_INF, POS_INF
from repro.tquel import evaluator as evaluator_module
from repro.tquel.ast import (RetrieveStmt, TargetItem, TConst, TEndOf,
                             TExtend, TNow, TOverlap, TPAnd, TPCompare,
                             TPNot, TPOr, TStartOf, TVar)
from repro.tquel.evaluator import (Evaluator, compile_when,
                                   eval_temporal_predicate, fold_temporal)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BASE = Instant.parse("01/01/80")
NOW = BASE + 40
SCHEMA = Schema([Attribute("k", Domain.STRING),
                 Attribute("n", Domain.INTEGER)], key=["k"])
RANGES = {"f": "r", "g": "r"}
SLOTS = {"f": 0, "g": 1}


def outcome(thunk):
    """A computation's value, or the class and message of what it raised."""
    try:
        return ("value", thunk())
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(error), str(error))


# -- generated trees ---------------------------------------------------------------

VARIABLES = st.sampled_from(["f", "g"])
DAYS = st.integers(0, 45).map(lambda day: str(BASE + day))
PERIOD_LEAVES = st.one_of(
    st.builds(TVar, VARIABLES), st.builds(TConst, DAYS), st.just(TNow()),
    st.builds(TConst, st.sampled_from(["forever", "beginning"])))
PERIOD_EXPRS = st.recursive(
    PERIOD_LEAVES,
    lambda children: st.one_of(
        st.builds(TStartOf, children), st.builds(TEndOf, children),
        st.builds(TOverlap, children, children),
        st.builds(TExtend, children, children)),
    max_leaves=4)
WHEN_OPS = st.sampled_from(["overlap", "precede", "equal", "meets", "before",
                            "after", "during", "starts", "finishes"])
WHEN_TREES = st.recursive(
    st.builds(TPCompare, WHEN_OPS, PERIOD_EXPRS, PERIOD_EXPRS),
    lambda children: st.one_of(
        st.builds(TPAnd, children, children),
        st.builds(TPOr, children, children), st.builds(TPNot, children)),
    max_leaves=4)


@st.composite
def periods(draw):
    """A valid period, either end possibly unbounded."""
    start = draw(st.one_of(st.integers(0, 40), st.none()))
    length = draw(st.one_of(st.integers(1, 30), st.none()))
    first = NEG_INF if start is None else BASE + start
    last = (POS_INF if length is None
            else BASE + (start or 0) + length)
    if first >= last:
        last = POS_INF
    return Period(first, last)


# -- unit level ----------------------------------------------------------------------

@SETTINGS
@given(WHEN_TREES, periods(), periods())
def test_the_compiled_when_is_the_tree_walk(when, f_valid, g_valid):
    binding = ((None, f_valid, None), (None, g_valid, None))
    compiled = compile_when(fold_temporal(when, NOW), SLOTS, NOW)
    assert outcome(lambda: compiled(binding)) == outcome(
        lambda: eval_temporal_predicate(
            when, {"f": f_valid, "g": g_valid}, NOW))


def test_an_unknown_operator_raises_only_where_the_walk_does():
    valid = Period(BASE, BASE + 5)
    binding = ((None, valid, None), (None, valid, None))
    for when in (TPCompare("sometime", TVar("f"), TVar("g")),
                 TPCompare("sometime", TVar("f"),
                           TOverlap(TConst(str(BASE + 30)), TVar("g"))),
                 TPOr(TPCompare("overlap", TVar("f"), TVar("g")),
                      TPCompare("sometime", TVar("f"), TVar("g")))):
        compiled = compile_when(fold_temporal(when, NOW), SLOTS, NOW)
        assert outcome(lambda: compiled(binding)) == outcome(
            lambda: eval_temporal_predicate(
                when, {"f": valid, "g": valid}, NOW))


# -- end to end ----------------------------------------------------------------------

def build(db_class):
    """A small history: a row valid since the beginning, rows valid until
    forever, closed and corrected rows, a deletion."""
    clock = SimulatedClock(BASE)
    database = db_class(clock=clock)
    database.define("r", SCHEMA)

    def at(day):
        clock.set(BASE + day)

    database.insert("r", {"k": "k0", "n": 0}, valid_from=NEG_INF,
                    valid_to=BASE + 12)
    for index in range(1, 5):
        at(index)
        database.insert("r", {"k": f"k{index}", "n": index},
                        valid_from=BASE + 3 * index)
    at(10)
    database.replace("r", {"k": "k1"}, {"n": 10}, valid_from=BASE + 8)
    at(15)
    database.replace("r", {"k": "k2"}, {"n": 20}, valid_from=BASE + 20)
    at(20)
    database.delete("r", {"k": "k3"}, valid_from=BASE + 18)
    at(25)
    database.replace("r", {"k": "k4"}, {"n": 40}, valid_from=BASE + 6)
    clock.set(NOW)
    return database


DATABASES = {db_class: build(db_class)
             for db_class in (HistoricalDatabase, TemporalDatabase)}


def canonical(result):
    if isinstance(result, Relation):
        return {(row.values, None, None) for row in result}
    return {(row.data.values, row.valid, getattr(row, "tt", None))
            for row in result.rows}


def tree_walk(predicate, slots, now):
    """The parent's filter: the tree walk per binding."""
    return lambda binding: eval_temporal_predicate(
        predicate, {variable: binding[slot][1]
                    for variable, slot in slots.items()}, now)


@st.composite
def retrieves(draw, db_class):
    targets = [TargetItem("k", AttrRef("f", "k"))]
    if draw(st.booleans()):
        targets.append(TargetItem("gk", AttrRef("g", "k")))
    clauses = {"when": draw(WHEN_TREES)}
    if draw(st.booleans()):
        clauses["where"] = Comparison(
            "=", AttrRef("f", "k"), Const(draw(st.sampled_from(
                ["k0", "k1", "k2", "k3", "k4"]))))
    if db_class is TemporalDatabase and draw(st.booleans()):
        first = draw(st.integers(0, 30))
        clauses["as_of"] = TConst(str(BASE + first))
        if draw(st.booleans()):
            clauses["as_of_through"] = TConst(
                str(BASE + first + draw(st.integers(0, 15))))
    return RetrieveStmt(targets=targets, **clauses)


def check(db_class, statement):
    database = DATABASES[db_class]
    for plan in ("naive", "index", "auto"):
        def run():
            return canonical(Evaluator(database, RANGES, plan=plan)
                             .retrieve(statement))
        with mock.patch.object(evaluator_module, "compile_when", tree_walk):
            expected = outcome(run)
        assert outcome(run) == expected, plan


@SETTINGS
@given(retrieves(HistoricalDatabase))
def test_historical_when_matches_the_tree_walk(statement):
    check(HistoricalDatabase, statement)


@SETTINGS
@given(retrieves(TemporalDatabase))
def test_temporal_when_matches_the_tree_walk(statement):
    check(TemporalDatabase, statement)


def test_the_generated_retrieves_reach_every_outcome():
    """The history is rich enough: the same ``when`` keeps some rows,
    keeps none, and raises at a row's unbounded end."""
    database = DATABASES[TemporalDatabase]
    evaluator = Evaluator(database, RANGES)

    def keys(when):
        return {row.data["k"] for row in evaluator.retrieve(RetrieveStmt(
            targets=[TargetItem("k", AttrRef("f", "k"))], when=when)).rows}

    assert keys(TPCompare("overlap", TVar("f"),
                          TConst(str(BASE + 2)))) == {"k0"}
    assert keys(TPCompare("overlap", TVar("f"),
                          TOverlap(TConst(str(BASE)),
                                   TConst(str(BASE + 1))))) == set()
    raised = outcome(lambda: keys(TPCompare(
        "overlap", TEndOf(TVar("f")), TNow())))
    assert raised[:2] == ("raised", evaluator_module.TQuelSemanticError)
    assert "is unbounded" in raised[2]
