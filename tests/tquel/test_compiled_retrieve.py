"""The compiled retrieve: what is settled once per statement, and what a
row may still cost.

``Evaluator.retrieve`` resolves every attribute reference to a position,
folds every variable-free temporal expression and reads the clock once
per statement, then runs one straight row loop.  These tests pin the
parts of that contract a timing cannot: the error semantics of the
folding, the per-statement (not per-row) cost as a *count*, the domain
checks that can still fail, and that ``explain`` reports the streams the
very code ``retrieve`` runs produced.
"""

import pytest

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.core.transaction_time import TransactionTimeStore
from repro.errors import (DomainError, ExpressionError, InvalidInstantError,
                          TQuelSemanticError)
from repro.relational import Domain, Schema
from repro.relational.schema import Attribute
from repro.relational.tuple import Tuple
from repro.time import Instant, SimulatedClock
from repro.tquel import Session
from repro.tquel.evaluator import Evaluator
from repro.tquel.parser import parse as parse_statement

from tests.conftest import build_faculty

KINDS = (StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase)


def faculty_session(db_class=TemporalDatabase, plan="auto"):
    database, clock = build_faculty(db_class)
    session = Session(database, plan=plan)
    session.execute("range of f is faculty")
    return session, database, clock


def empty_session():
    database = TemporalDatabase(clock=SimulatedClock("01/01/80"))
    database.define("faculty", Schema.of(key=["name"], name=Domain.STRING))
    session = Session(database)
    session.execute("range of f is faculty")
    return session, database


def evaluate_unanalyzed(database, text):
    """Run a retrieve through the evaluator alone — what a caller that
    skips ``analyze`` gets."""
    return Evaluator(database, {"f": "faculty"}).execute(parse_statement(text))


# -- error semantics of the folding ---------------------------------------------

class TestFoldedConstantErrors:
    @pytest.mark.parametrize("literal", ["forever", "beginning"])
    def test_a_rejected_constant_raises_on_the_first_row(self, literal):
        session, _, _ = faculty_session()
        with pytest.raises(TQuelSemanticError, match="valid/as-of bound"):
            session.query(f'retrieve (f.name) when f overlap "{literal}"')

    @pytest.mark.parametrize("clause", [
        'when f overlap "forever"',
        'when f overlap "beginning" and f overlap "01/01/80"',
        'when start of "beginning" precede f',
        'valid from start of "forever" to "forever"',
    ])
    def test_a_rejected_constant_is_silent_over_no_rows(self, clause):
        # Folding happens before any row is seen; the refusal must still
        # wait for one, as under the per-row tree walk.
        session, _ = empty_session()
        assert len(session.query(f"retrieve (f.name) {clause}")) == 0

    def test_an_unbounded_edge_beside_a_folded_constant_still_raises(self):
        session, _, _ = faculty_session()
        with pytest.raises(TQuelSemanticError, match="unbounded"):
            session.query("retrieve (f.name) when end of f precede now")

    def test_short_circuit_still_guards_a_rejected_constant(self):
        # No row's validity precedes 1970, so the right operand of `and`
        # is never evaluated — folded or not.
        session, _, _ = faculty_session()
        result = session.query('retrieve (f.name) when f precede "01/01/70" '
                               'and f overlap "forever"')
        assert len(result) == 0

    def test_a_malformed_literal_is_the_analyzers_to_refuse(self):
        session, _, _ = faculty_session()
        with pytest.raises(TQuelSemanticError, match="invalid date literal"):
            session.query('retrieve (f.name) when f overlap "13/45/99"')

    @pytest.mark.parametrize("clause", [
        'when f overlap "not a date"',
        'valid from "not a date"',
    ])
    def test_a_malformed_literal_past_the_analyzer_keeps_its_type(
            self, clause):
        _, database, _ = faculty_session()
        with pytest.raises(InvalidInstantError):
            evaluate_unanalyzed(database, f"retrieve (f.name) {clause}")

    def test_a_malformed_literal_is_refused_before_any_row(self):
        # As under the parent's `when` kernel compile: a literal that does
        # not parse is refused when the statement is folded, rows or none.
        _, database = empty_session()
        with pytest.raises(InvalidInstantError):
            evaluate_unanalyzed(
                database, 'retrieve (f.name) when f overlap "not a date"')

    @pytest.mark.parametrize("plan", ["naive", "index", "columnar"])
    def test_a_degenerate_range_bound_fails_alike_on_every_path(self, plan):
        session, _, _ = faculty_session(plan=plan)
        with pytest.raises(InvalidInstantError, match="None"):
            session.query('retrieve (f.name) as of '
                          'overlap("01/01/80", "01/01/82") through "01/01/83"')


class TestClockAndCache:
    def test_now_is_read_once_per_statement(self):
        session, database, clock = faculty_session()
        reads = []
        real = clock.current

        def counting():
            reads.append(1)
            return real()

        clock.current = counting
        result = session.query("retrieve (f.name) when f overlap now")
        assert {row.data["name"] for row in result.rows} == {
            "Merrie", "Tom", "Mike"}
        assert len(reads) == 1

    def test_a_clock_dependent_kernel_stream_is_never_cached(self):
        class Spy:
            def __init__(self):
                self.gets, self.puts = [], []

            def get(self, *key):
                self.gets.append(key)

            def put(self, *args):
                self.puts.append(args)

        _, database, _ = faculty_session()
        evaluator = Evaluator(database, {"f": "faculty"}, plan="columnar")
        pinned, moving = Spy(), Spy()
        evaluator._prepare(parse_statement(
            'retrieve (f.name) when f overlap "12/10/82"'), pinned)
        evaluator._prepare(parse_statement(
            "retrieve (f.name) when f overlap now"), moving)
        assert len(pinned.gets) == len(pinned.puts) == 1
        assert "overlap:" in pinned.gets[0][2]  # the kernel is in the key
        assert moving.gets == moving.puts == []


class TestExpressionSemanticsSurvive:
    def test_incomparable_types_still_raise_expression_error(self):
        session, _, _ = faculty_session(StaticDatabase)
        with pytest.raises(ExpressionError, match="cannot compare"):
            session.query("retrieve (f.name) where f.name < 3")
        with pytest.raises(ExpressionError, match="cannot compute"):
            session.query("retrieve (x = f.name - 1)")

    @pytest.mark.parametrize("db_class", KINDS)
    def test_a_null_operand_is_false_not_an_error(self, db_class):
        clock = SimulatedClock("01/01/80")
        database = db_class(clock=clock)
        from repro.relational.schema import Attribute
        database.define("t", Schema([
            Attribute("k", Domain.STRING),
            Attribute("n", Domain.INTEGER, nullable=True)], key=["k"]))
        bounds = ({"valid_from": "01/01/80"}
                  if database.kind.supports_historical_queries else {})
        database.insert("t", {"k": "a", "n": None}, **bounds)
        database.insert("t", {"k": "b", "n": 2}, **bounds)
        session = Session(database)
        session.execute("range of r is t")

        def keys(text):
            result = session.query(text)
            rows = getattr(result, "rows", None)
            return sorted(row["k"] for row in result) if rows is None \
                else sorted(row.data["k"] for row in rows)

        assert keys("retrieve (r.k) where r.n < 5") == ["b"]
        assert keys("retrieve (r.k) where not r.n < 5") == ["a"]
        assert keys("retrieve (r.k) where r.n is null") == ["a"]
        assert keys("retrieve (r.k) where r.n + 1 = 3") == ["b"]


# -- a count guard, not a clock ----------------------------------------------------

def history(keys, db_class=TemporalDatabase):
    """K keys loaded in one commit, then a few single replaces a day
    apart; read through the index path, as the deep-history workloads
    are (the planner's own choice flips with K, the guard must not)."""
    clock = SimulatedClock("01/01/80")
    database = db_class(clock=clock)
    database.define("faculty", Schema.of(
        key=["name"], name=Domain.STRING, salary=Domain.INTEGER))
    valid = ({"valid_from": "01/01/80"}
             if database.kind.supports_historical_queries else {})
    batch = database.begin()
    for k in range(keys):
        database.insert("faculty", {"name": f"n{k}", "salary": k},
                        txn=batch, **valid)
    batch.commit()
    for step in range(8):
        clock.advance(1)
        database.replace("faculty", {"name": f"n{step}"},
                         {"salary": 1000 + step},
                         **({"valid_from": "01/05/80"} if valid else {}))
    clock.advance(30)
    session = Session(database, plan="index")
    session.execute("range of f is faculty")
    return session


SHAPES = {
    "asof_when": 'retrieve (f.name, f.salary) when f overlap "01/06/80" '
                 'as of "01/05/80"',
    "asof_through": 'retrieve (f.name, f.salary) as of "01/03/80" '
                    'through "01/07/80"',
}


def parses_and_stores(monkeypatch, session, text):
    parses, stores = [], []
    real_parse = Instant.parse.__func__
    real_init = TransactionTimeStore.__init__

    def parse(cls, *args, **kwargs):
        parses.append(args)
        return real_parse(cls, *args, **kwargs)

    def init(self, *args, **kwargs):
        stores.append(1)
        real_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Instant, "parse", classmethod(parse))
        patch.setattr(TransactionTimeStore, "__init__", init)
        result = session.query(text)
    return len(result), len(parses), len(stores)


def checks_while_reading(monkeypatch, session, text):
    """The answer to *text*, and the ``Attribute.check`` calls it made."""
    checks = []
    real_check = Attribute.check

    def check(self, value):
        checks.append(value)
        return real_check(self, value)

    with monkeypatch.context() as patch:
        patch.setattr(Attribute, "check", check)
        result = session.query(text)
    return result, len(checks)


def result_tuples(result):
    rows = getattr(result, "rows", None)
    return list(result) if rows is None else [row.data for row in rows]


class TestPerStatementCosts:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_literal_parses_do_not_grow_with_the_relation(
            self, monkeypatch, shape):
        small_rows, small_parses, _ = parses_and_stores(
            monkeypatch, history(64), SHAPES[shape])
        large_rows, large_parses, _ = parses_and_stores(
            monkeypatch, history(512), SHAPES[shape])
        assert large_rows > 4 * small_rows > 0  # the result did grow
        assert large_parses == small_parses

    def test_a_through_read_builds_one_store_the_result(self, monkeypatch):
        for keys in (64, 512):
            _, _, stores = parses_and_stores(
                monkeypatch, history(keys), SHAPES["asof_through"])
            assert stores == 1

    @pytest.mark.parametrize("db_class", [TemporalDatabase, RollbackDatabase])
    def test_a_projection_rechecks_no_stored_value(self, monkeypatch,
                                                    db_class):
        # Each projected value was checked against the very same Domain
        # when its tuple was stored; the row is copied, at any K.
        for keys in (64, 512):
            result, checks = checks_while_reading(
                monkeypatch, history(keys, db_class), SHAPES["asof_through"])
            assert len(result) >= keys and checks == 0

    @pytest.mark.parametrize("db_class", [TemporalDatabase, RollbackDatabase])
    def test_a_computed_value_is_checked_once(self, monkeypatch, db_class):
        text = ('retrieve (x = f.salary + 1) as of "01/03/80" '
                'through "01/07/80"')
        for keys in (64, 512):
            result, checks = checks_while_reading(
                monkeypatch, history(keys, db_class), text)
            assert len(result) >= keys and checks == len(result)

    @pytest.mark.parametrize("db_class", KINDS)
    @pytest.mark.parametrize("targets", [
        "f.name, f.salary", "f.salary, f.name", "f.salary", "s = f.salary"])
    def test_a_copied_row_is_the_checked_row(self, db_class, targets):
        clause = ('as of "01/03/80" through "01/07/80"'
                  if db_class.kind.supports_rollback else "")
        result = history(64, db_class).query(
            f"retrieve ({targets}) {clause}")
        rows = result_tuples(result)
        assert rows
        for row in rows:
            checked = Tuple.from_sequence(row.schema, row.values)
            assert type(row.values) is tuple
            assert row == checked and hash(row) == hash(checked)

    @pytest.mark.parametrize("db_class", [TemporalDatabase, RollbackDatabase])
    def test_a_keyed_point_read_examines_the_rows_under_its_key(
            self, db_class):
        # A count, not a clock: without `as of`, a read that pins the
        # whole schema key costs the open rows under that key, at any K.
        for keys in (64, 2048):
            clock = SimulatedClock("01/01/80")
            database = db_class(clock=clock)
            database.define("faculty", Schema.of(
                key=["name"], name=Domain.STRING, salary=Domain.INTEGER))
            valid = ({"valid_from": "01/01/80"}
                     if database.kind.supports_historical_queries else {})
            batch = database.begin()
            for k in range(keys):
                database.insert("faculty", {"name": f"n{k}", "salary": k},
                                txn=batch, **valid)
            batch.commit()
            clock.advance(1)
            database.replace("faculty", {"name": "n7"}, {"salary": 1007},
                             **({"valid_from": "01/05/80"} if valid else {}))
            clock.advance(30)
            session = Session(database)
            session.execute("range of f is faculty")
            text = 'retrieve (f.salary) where f.name = "n7"'
            under_key = [row for row in database.store("faculty").open_rows()
                         if row.data["name"] == "n7"]
            info = session.explain_plan(text, timings=False)["variables"]["f"]
            assert info["candidates"] == len(under_key) == (2 if valid else 1)
            assert info["plan"] == "index"
            assert "key" in info["index"] and "key" in info["plan_reason"]
            assert len(session.query(text)) == len(under_key)


# -- domain checks that can fail are kept -------------------------------------------

class TestResultDomainChecks:
    def test_an_aggregate_outside_its_inferred_domain(self):
        # min() is typed FLOAT; over strings its value is not.
        session, _, _ = faculty_session(StaticDatabase)
        with pytest.raises(DomainError, match="not in domain float"):
            session.query("retrieve (m = min(f.name))")

    @pytest.mark.parametrize("db_class", KINDS)
    @pytest.mark.parametrize("target", [
        'x = f.name + "!"',      # a computed value
        'x = "a constant"',      # a constant of the wrong type
        "f.name",                # even a bare attribute, if the schema lies
    ])
    def test_a_value_outside_the_result_schema(self, monkeypatch, db_class,
                                               target):
        monkeypatch.setattr(Evaluator, "_infer_domain",
                            lambda self, expr: Domain.INTEGER)
        session, _, _ = faculty_session(db_class)
        with pytest.raises(DomainError, match="not in domain integer"):
            session.query(f"retrieve ({target})")

    def test_retrieve_into_stores_nothing_it_could_not_type(self):
        session, database, _ = faculty_session(StaticDatabase)
        with pytest.raises(DomainError):
            session.execute("retrieve into broken (m = min(f.name))")
        assert "broken" not in database


# -- explain is the streams retrieve runs -------------------------------------------

QUERIES = {
    StaticDatabase: ['retrieve (f.rank) where f.name = "Merrie"'],
    RollbackDatabase: ['retrieve (f.name) as of "12/10/82"',
                       'retrieve (f.name) where f.rank = "full" '
                       'as of "12/02/82" through "12/20/82"'],
    HistoricalDatabase: ['retrieve (f.name) when f overlap "12/10/82"'],
    TemporalDatabase: ['retrieve (f.name) where f.rank = "full" '
                       'when f overlap "12/10/82" as of "12/20/82"',
                       'retrieve (f.name) as of "12/02/82" '
                       'through "12/20/82"'],
}


class TestExplainMatchesExecution:
    @pytest.mark.parametrize("plan", ["auto", "naive", "index", "columnar"])
    @pytest.mark.parametrize("db_class", KINDS)
    def test_counts_and_paths_agree_with_the_metrics(self, db_class, plan):
        session, _, _ = faculty_session(db_class, plan=plan)
        for text in QUERIES[db_class]:
            explained = session.explain_plan(text, timings=False)
            with obs.recording() as inst:
                session.query(text)
            counters = inst.metrics.snapshot()["counters"]
            info = explained["variables"]["f"]
            assert counters["tquel.candidates_enumerated"] == \
                info["candidates"]
            assert counters[f"tquel.plan.{info['plan']}"] == 1

    def test_explain_and_retrieve_source_streams_through_one_function(
            self, monkeypatch):
        calls = []
        real = Evaluator._prepare

        def spy(self, statement, cache):
            calls.append(cache is not None)
            return real(self, statement, cache)

        monkeypatch.setattr(Evaluator, "_prepare", spy)
        session, _, _ = faculty_session()
        text = 'retrieve (f.name) where f.rank = "full" as of "12/20/82"'
        session.explain_plan(text)
        assert calls == [False]  # the same streams, short of the cache
        session.query(text)
        assert calls == [False, True]

    def test_a_kernel_answered_when_shows_in_after_pushdown(self):
        # On the columnar path the `when` kernel runs inside the stream;
        # explain reports the stream as it ran.
        text = 'retrieve (f.name) when f overlap "12/10/82"'
        by_plan = {}
        for plan in ("index", "columnar"):
            session, _, _ = faculty_session(HistoricalDatabase, plan=plan)
            info = session.explain_plan(text, timings=False)["variables"]["f"]
            by_plan[plan] = (info["candidates"], info["after_pushdown"])
            assert len(session.query(text)) == 2
        assert by_plan == {"index": (4, 4), "columnar": (4, 2)}

    def test_a_backwards_range_is_refused_by_explain_too(self):
        session, _, _ = faculty_session()
        with pytest.raises(TQuelSemanticError, match="runs backwards"):
            session.explain('retrieve (f.name) as of "12/20/82" '
                            'through "12/02/82"')
