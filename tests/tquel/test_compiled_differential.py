"""Differential properties: the compiled retrieve against the tree walks.

``Evaluator.retrieve`` no longer runs ``Expression.evaluate`` or the
unfolded ``eval_temporal_predicate`` — it compiles attribute references
to positional closures and folds the variable-free temporal expressions
once per statement — and ``plan=naive`` shares that result assembly, so a
naive-vs-auto comparison no longer covers it.  These properties do, at
two levels:

- unit: a compiled expression agrees with ``Expression.evaluate``, and a
  folded temporal tree with the unfolded tree walk, on generated trees
  and bindings — value for value, error type for error type;
- end to end: on all four database kinds, generated retrieves (computed
  targets, ``where`` trees over nullable data, ``when`` trees over all
  nine operators, two-variable joins with a residual, aggregates,
  ``valid at`` / ``valid from … to``, ``as of [… through]``) return what
  a reference retrieve written only against the public tree walks
  returns — on each kind's plain store and on a 3-shard store of it.
"""

import functools
import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.relational import Domain, Relation, Schema
from repro.relational.expression import (And, AttrRef, BinaryOp, Comparison,
                                         Const, IsNull, Not, Or)
from repro.relational.schema import Attribute
from repro.relational.tuple import Tuple
from repro.sharding import ShardedDatabase
from repro.time import Instant, Period, SimulatedClock
from repro.time.instant import NEG_INF, POS_INF
from repro.tquel.ast import (AggCall, RetrieveStmt, TargetItem, TConst,
                             TEndOf, TExtend, TNow, TOverlap, TPAnd,
                             TPCompare, TPNot, TPOr, TStartOf, TVar,
                             ValidClause)
from repro.tquel.evaluator import (Evaluator, eval_bound, eval_period,
                                   eval_temporal_predicate, fold_temporal,
                                   partition_pushdown, temporal_variables)

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BASE = Instant.parse("01/01/80")
NOW = BASE + 40
SCHEMA = Schema([Attribute("k", Domain.STRING),
                 Attribute("n", Domain.INTEGER, nullable=True),
                 Attribute("s", Domain.STRING, nullable=True)], key=["k"])
RANGES = {"f": "r", "g": "r"}


def outcome(thunk):
    """A computation's value, or the type of what it raised."""
    try:
        return ("value", thunk())
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(error))


# -- generated trees ---------------------------------------------------------------

VARIABLES = st.sampled_from(["f", "g"])
ATTRIBUTES = st.sampled_from(["k", "n", "s"])


def expressions(variables):
    leaves = st.one_of(
        st.builds(AttrRef, variables, ATTRIBUTES),
        st.builds(Const, st.one_of(st.integers(-2, 3), st.sampled_from(
            ["a", "k1", 0.5, True, None]))))
    return st.recursive(leaves, _grow, max_leaves=6)


def _grow(children):
    scalar = st.builds(BinaryOp, st.sampled_from("+-*/%"), children, children)
    return st.one_of(
        scalar,
        st.builds(Comparison, st.sampled_from(["=", "!=", "<", "<=", ">",
                                               ">="]), children, children),
        st.builds(And, children, children), st.builds(Or, children, children),
        st.builds(Not, children), st.builds(IsNull, children))


EXPRESSIONS = expressions(VARIABLES)
#: Targets over one variable only, so that a join's other variable is
#: bound by the ``where`` / ``when`` alone and the derived periods must
#: come from the target list's variable, not from every one.
F_EXPRESSIONS = expressions(st.just("f"))
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
    max_leaves=3)


@st.composite
def periods(draw):
    start = draw(st.one_of(st.integers(0, 40), st.none()))
    length = draw(st.one_of(st.integers(1, 30), st.none()))
    first = NEG_INF if start is None else BASE + start
    last = (POS_INF if length is None or start is None
            else BASE + start + length)
    return Period(first, last)


ROWS = st.builds(
    lambda k, n, s: Tuple(SCHEMA, {"k": k, "n": n, "s": s}),
    st.sampled_from(["k0", "k1"]), st.one_of(st.none(), st.integers(-2, 3)),
    st.one_of(st.none(), st.sampled_from(["a", "b"])))


# -- unit level ----------------------------------------------------------------------

@SETTINGS
@given(EXPRESSIONS, ROWS, ROWS)
def test_a_compiled_expression_is_its_tree_walk(expr, f_row, g_row):
    rows = {"f": f_row, "g": g_row}

    def resolve(variable, name):
        position = SCHEMA.position(name)
        return lambda bound: bound[variable].values[position]

    compiled = expr.compile(resolve)
    assert outcome(lambda: compiled(rows)) == outcome(
        lambda: expr.evaluate(rows))


@SETTINGS
@given(WHEN_TREES, periods(), periods())
def test_a_folded_when_is_the_unfolded_tree_walk(when, f_valid, g_valid):
    valid = {"f": f_valid, "g": g_valid}
    folded = fold_temporal(when, NOW)
    assert outcome(lambda: eval_temporal_predicate(folded, valid, NOW)) == \
        outcome(lambda: eval_temporal_predicate(when, valid, NOW))


@SETTINGS
@given(PERIOD_EXPRS, periods(), periods())
def test_a_folded_bound_is_the_unfolded_tree_walk(expr, f_valid, g_valid):
    valid = {"f": f_valid, "g": g_valid}
    folded = fold_temporal(expr, NOW, eval_bound)
    assert outcome(lambda: eval_bound(folded, valid, NOW)) == outcome(
        lambda: eval_bound(expr, valid, NOW))
    folded = fold_temporal(expr, NOW)
    assert outcome(lambda: eval_period(folded, valid, NOW)) == outcome(
        lambda: eval_period(expr, valid, NOW))


# -- end to end, on the four kinds ----------------------------------------------------

def build(db_class):
    """One small narrative into a database of *db_class*: nulls in the
    data, superseded and deleted rows in the history."""
    clock = SimulatedClock(BASE)
    database = db_class(clock=clock)
    database.define("r", SCHEMA)
    historical = database.kind.supports_historical_queries

    def at(day, **valid):
        clock.set(BASE + day)
        return ({name: BASE + offset for name, offset in valid.items()}
                if historical else {})

    for index, (n, s) in enumerate([(1, "a"), (None, "b"), (2, None),
                                    (3, "a"), (None, None)]):
        database.insert("r", {"k": f"k{index}", "n": n, "s": s},
                        **at(index, valid_from=index))
    database.replace("r", {"k": "k0"}, {"n": 2}, **at(10, valid_from=8))
    database.replace("r", {"k": "k2"}, {"s": "b"}, **at(15, valid_from=20))
    database.delete("r", {"k": "k3"}, **at(20, valid_from=18))
    database.replace("r", {"k": "k1"}, {"n": 0}, **at(25, valid_from=25))
    clock.set(NOW)
    return database


DATABASES = {db_class: build(db_class)
             for db_class in (StaticDatabase, RollbackDatabase,
                              HistoricalDatabase, TemporalDatabase)}
SHARDED = {db_class: build(functools.partial(ShardedDatabase, db_class,
                                             shards=3))
           for db_class in DATABASES}


def candidates(database, relation, as_of, through, now):
    """The candidate rows ``(data, valid, tt)``, by walking the store (of
    every shard: a row lives on one)."""
    if isinstance(database, ShardedDatabase):
        return [candidate for shard in database.shard_databases
                for candidate in candidates(shard, relation, as_of, through,
                                            now)]
    kind = database.kind
    if not kind.supports_rollback:
        if kind.supports_historical_queries:
            return [(row.data, row.valid, None)
                    for row in database.store(relation).rows]
        return [(row, None, None) for row in database.snapshot(relation)]
    if through is not None:
        window = Period.from_inclusive(as_of, through)
        visible = [row for row in database.store(relation).rows
                   if row.tt.overlaps(window)]
    else:
        when = as_of if as_of is not None else now
        visible = [row for row in database.store(relation).rows
                   if row.tt.contains(when)]
    if kind.supports_historical_queries:
        return [(row.data, row.valid, row.tt) for row in visible]
    return [(data, None, None)
            for data in dict.fromkeys(row.data for row in visible)]


def intersect_all(found):
    current = None
    for period in found:
        if period is None:
            return None
        current = period if current is None else current.intersect(period)
        if current is None:
            return None
    return current


def references_of(target):
    expr = target.expr.operand if isinstance(target.expr, AggCall) \
        else target.expr
    return set() if expr is None else {v for v, _ in expr.references()}


def aggregate(call, envs):
    if call.operand is None:
        return len(envs)
    values = [value for value in map(call.operand.evaluate, envs)
              if value is not None]
    if call.unique:
        values = list(dict.fromkeys(values))
    if call.func in ("count", "sum"):
        return len(values) if call.func == "count" else sum(values)
    if not values:
        return None
    return {"avg": lambda: sum(values) / len(values),
            "min": lambda: min(values), "max": lambda: max(values)}[call.func]()


def reference_retrieve(database, statement):
    """The retrieve semantics, spelt out with the public tree walks only:
    environments by name, no folding, no positions."""
    now = database.now()
    as_of = through = None
    if statement.as_of is not None:
        as_of = eval_bound(statement.as_of, {}, now)
    if statement.as_of_through is not None:
        through = eval_bound(statement.as_of_through, {}, now)
        if through < as_of:
            raise ValueError("backwards range")  # never generated
    target_variables = set().union(*map(references_of, statement.targets))
    variables = set(target_variables)
    if statement.where is not None:
        variables |= {v for v, _ in statement.where.references()}
    valid = statement.valid
    for clause in (statement.when,) + (
            (valid.at, valid.from_, valid.to) if valid is not None else ()):
        if clause is not None:
            variables |= temporal_variables(clause)
    variables = sorted(variables)
    pushdown, residual = partition_pushdown(statement.where)
    streams = []
    for variable in variables:
        stream = candidates(database, RANGES[variable], as_of, through, now)
        streams.append([
            candidate for candidate in stream
            if all(conjunct.evaluate({variable: candidate[0]})
                   for conjunct in pushdown.get(variable, []))])
    matched = []
    for combination in itertools.product(*streams):
        binding = dict(zip(variables, combination))
        env = {v: candidate[0] for v, candidate in binding.items()}
        valid_of = {v: candidate[1] for v, candidate in binding.items()}
        if not all(conjunct.evaluate(env) for conjunct in residual):
            continue
        if statement.when is not None and not eval_temporal_predicate(
                statement.when, valid_of, now):
            continue
        matched.append((binding, env, valid_of))

    evaluator = Evaluator(database, RANGES)
    schema = evaluator._result_schema(statement.targets)
    plain = [t for t in statement.targets if not isinstance(t.expr, AggCall)]
    if len(plain) != len(statement.targets):
        groups = {}
        for _, env, _ in matched:
            groups.setdefault(tuple(t.expr.evaluate(env) for t in plain),
                              []).append(env)
        if not plain and not groups:
            groups[()] = []
        computed = []  # every group's aggregates before any row is built
        for key, envs in groups.items():
            values = dict(zip((t.name for t in plain), key))
            for target in statement.targets:
                if isinstance(target.expr, AggCall):
                    values[target.name] = aggregate(target.expr, envs)
            computed.append(values)
        return {(Tuple(schema, values).values, None, None)
                for values in computed}
    kind = database.kind
    rows = set()
    for binding, env, valid_of in matched:
        chosen = target_variables or set(binding)
        if not kind.supports_historical_queries:
            validity = None
        elif valid is None:
            found = [valid_of[v] for v in sorted(chosen)]
            validity = intersect_all(found) if found else Period.always()
        elif valid.is_event:
            at = eval_bound(valid.at, valid_of, now)
            validity = (Period.at(at)
                        if at is not None and at.is_finite else None)
        else:
            start = eval_bound(valid.from_, valid_of, now)
            end = (eval_bound(valid.to, valid_of, now)
                   if valid.to is not None else POS_INF)
            validity = (Period(start, end) if start is not None
                        and end is not None and start < end else None)
        if kind.supports_historical_queries and validity is None:
            continue
        data = Tuple.from_sequence(
            schema, [t.expr.evaluate(env) for t in statement.targets])
        tt = None
        if kind.supports_rollback and kind.supports_historical_queries:
            tt = intersect_all([binding[v][2] for v in chosen])
            if tt is None:
                continue
        rows.add((data.values, validity, tt))
    return earliest_open(rows)


def earliest_open(rows):
    """``(values, valid, tt)`` rows as a temporal result holds them: each
    fact open once — of two rows holding one fact open, the earlier-opened
    alone (the later adds nothing to any state)."""
    first = {}
    for values, valid, tt in rows:
        if tt is not None and tt.end == POS_INF:
            if (values, valid) not in first or tt.lo < first[values, valid].lo:
                first[values, valid] = tt
    return {(values, valid, tt) for values, valid, tt in rows
            if tt is None or tt.end != POS_INF or first[values, valid] == tt}


def canonical(result):
    """A result as ``{(values, valid, tt)}``, ``None`` on an absent axis."""
    if isinstance(result, Relation):
        return {(row.values, None, None) for row in result}
    return {(row.data.values, row.valid, getattr(row, "tt", None))
            for row in result.rows}


@st.composite
def retrieves(draw, db_class):
    kind = DATABASES[db_class].kind
    aggregate = draw(st.booleans()) and draw(st.booleans())
    join = draw(st.booleans())
    chosen = draw(st.lists(F_EXPRESSIONS if join else EXPRESSIONS,
                           min_size=1, max_size=3))
    targets = [TargetItem(f"x{i}", expr) for i, expr in enumerate(chosen)]
    if aggregate:
        operand = draw(st.one_of(st.none(), EXPRESSIONS))
        func = "count" if operand is None else draw(st.sampled_from(
            ["count", "sum", "avg", "min", "max"]))
        targets.append(TargetItem("agg", AggCall(
            func, operand, unique=draw(st.booleans()))))
    clauses = {}
    if join:  # a residual conjunct binds g; maybe a pushed or mixed one too
        clauses["where"] = Comparison(
            draw(st.sampled_from(["=", "!=", "<"])),
            AttrRef("f", draw(ATTRIBUTES)), AttrRef("g", draw(ATTRIBUTES)))
        if draw(st.booleans()):
            clauses["where"] = And(clauses["where"], draw(EXPRESSIONS))
    elif draw(st.booleans()):
        clauses["where"] = draw(EXPRESSIONS)
    if kind.supports_historical_queries and not aggregate:
        if draw(st.booleans()):
            clauses["when"] = draw(WHEN_TREES)
        shape = draw(st.sampled_from(["none", "none", "at", "from", "from-to"]))
        if shape == "at":
            clauses["valid"] = ValidClause(at=draw(PERIOD_EXPRS))
        elif shape != "none":
            clauses["valid"] = ValidClause(
                from_=draw(PERIOD_EXPRS),
                to=draw(PERIOD_EXPRS) if shape == "from-to" else None)
    if kind.supports_rollback and draw(st.booleans()):
        first = draw(st.integers(0, 42))
        clauses["as_of"] = TConst(str(BASE + first))
        if draw(st.booleans()):
            clauses["as_of_through"] = TConst(
                str(BASE + first + draw(st.integers(0, 20))))
    return RetrieveStmt(targets=targets, **clauses)


def check(db_class, statement):
    for database in (DATABASES[db_class], SHARDED[db_class]):
        expected = outcome(lambda: reference_retrieve(database, statement))
        for plan in ("auto", "naive"):
            actual = outcome(lambda: canonical(
                Evaluator(database, RANGES, plan=plan).retrieve(statement)))
            assert actual == expected, (database, plan)


@SETTINGS
@given(retrieves(StaticDatabase))
def test_static_retrieves_match_the_reference(statement):
    check(StaticDatabase, statement)


@SETTINGS
@given(retrieves(RollbackDatabase))
def test_rollback_retrieves_match_the_reference(statement):
    check(RollbackDatabase, statement)


@SETTINGS
@given(retrieves(HistoricalDatabase))
def test_historical_retrieves_match_the_reference(statement):
    check(HistoricalDatabase, statement)


#: An aggregate whose groups fail in two ways: ``"k0" + 2`` raises while
#: the aggregate is computed, a null-only group's ``min`` is a null the
#: result domain refuses.  Which comes first in the candidates must not
#: decide which error the retrieve raises.
TWO_FAILURES = RetrieveStmt(
    targets=[TargetItem("x0", AttrRef("f", "k")),
             TargetItem("agg", AggCall("min", Not(BinaryOp(
                 "+", AttrRef("f", "k"), AttrRef("f", "n")))))],
    as_of=TConst(str(BASE + 2)))


@SETTINGS
@given(retrieves(TemporalDatabase))
@example(TWO_FAILURES)
def test_temporal_retrieves_match_the_reference(statement):
    check(TemporalDatabase, statement)


def test_an_aggregate_raises_one_error_whatever_the_candidate_order():
    database = DATABASES[TemporalDatabase]
    evaluator = Evaluator(database, RANGES)
    targets = TWO_FAILURES.targets
    schema = evaluator._result_schema(targets)
    bindings = [(row,) for row in database.store("r").open_rows()]
    raised = set()
    for order in (bindings, bindings[::-1]):
        with pytest.raises(Exception) as error:
            evaluator._aggregate_rows(targets, schema,
                                      evaluator._resolver({"f": 0}), order)
        raised.add(type(error.value))
    assert len(raised) == 1, raised
