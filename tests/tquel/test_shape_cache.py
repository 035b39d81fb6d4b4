"""A statement's shape is analyzed once per (catalog epoch, range bindings).

``analyze`` files what a shape decides under its parse template: whether
it passes, and a retrieve's result schema, variables, projection and
result class.  These tests hold the filing to a fresh analysis wherever
the catalog or the bindings can move between two statements of one
shape — DDL (drop, redefinition with another schema or event flag), a
rebound range variable, two databases of different kinds, racing
threads and the server — and count that a repeated shape runs the full
analyzer once.
"""

import asyncio
import sys
import threading

import pytest

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.core.historical import HistoricalRelation
from repro.core.temporal import TemporalRelation
from repro.errors import TQuelSemanticError
from repro.relational import Domain, Relation
from repro.server import ReproServer, open_pipe, protocol
from repro.tquel import Session
from repro.tquel import analyzer as analyzer_module
from repro.tquel import parser as parser_module
from repro.tquel.analyzer import analyze
from repro.tquel.evaluator import Evaluator
from repro.tquel.lexer import tokenize
from repro.tquel.parser import Parser

KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase]


@pytest.fixture(autouse=True)
def fresh_templates(monkeypatch):
    """A private template table: earlier tests fill the shared one."""
    monkeypatch.setattr(parser_module, "_TEMPLATES", {}, raising=False)


def session_over(db_class, create="create r (a = string, b = integer) "
                                  "key (a)"):
    session = Session(db_class())
    session.execute(create)
    session.execute("range of f is r")
    return session


def fresh_error(text, database, ranges):
    """What an analysis that never saw the shape raises for *text*."""
    with pytest.raises(TQuelSemanticError) as caught:
        analyze(Parser(tokenize(text)).statement(), database, ranges)
    return type(caught.value), str(caught.value)


def append(session, a, b, valid=' valid from "01/01/80"'):
    historical = session.database.supports_historical_queries
    return session.execute(f'append to r (a = "{a}", b = {b})'
                           + (valid if historical else ""))


# -- invalidation ------------------------------------------------------------------

class TestInvalidation:
    @pytest.mark.parametrize("db_class", KINDS)
    def test_a_redefined_relation_gets_a_new_analysis(self, db_class):
        session = session_over(db_class)
        append(session, "x", 7)
        first = session.query('retrieve (f.b) where f.a = "x"')
        assert first.schema.attribute("b").domain is Domain.INTEGER
        session.execute("destroy r")
        with pytest.raises(TQuelSemanticError, match="unknown relation"):
            session.query('retrieve (f.b) where f.a = "y"')
        # The same names, another order and another domain.
        session.execute("create r (b = string, a = string) key (a)")
        append(session, "x", '"seven"')
        second = session.query('retrieve (f.b) where f.a = "x"')
        assert second.schema.attribute("b").domain is Domain.STRING
        rows = (list(second) if isinstance(second, Relation)
                else [row.data for row in second.rows])
        assert [row["b"] for row in rows] == ["seven"]

    def test_an_event_flag_change_gets_a_new_analysis(self):
        session = session_over(
            HistoricalDatabase,
            "create event r (a = string, b = integer) key (a)")
        text = 'append to r (a = "{}", b = 1) valid at "01/0{}/80"'
        session.execute(text.format("x", 2))
        session.execute("destroy r")
        session.execute("create r (a = string, b = integer) key (a)")
        with pytest.raises(TQuelSemanticError, match="interval relation"):
            session.execute(text.format("y", 3))
        session.execute("destroy r")
        session.execute("create event r (a = string, b = integer) key (a)")
        session.execute(text.format("z", 4))

    def test_a_rebound_range_variable_gets_a_new_analysis(self):
        session = session_over(TemporalDatabase)
        session.execute("create s (a = string, c = string, b = string) "
                        "key (a)")
        append(session, "x", 1)
        session.execute('append to s (a = "x", c = "-", b = "one") '
                        'valid from "01/01/80"')
        text = 'retrieve (f.b) where f.a = "x" when f overlap "{}"'
        assert [row.data["b"] for row in session.query(
            text.format("01/02/80")).rows] == [1]
        session.execute("range of f is s")
        result = session.query(text.format("01/03/80"))
        assert result.schema.attribute("b").domain is Domain.STRING
        assert [row.data["b"] for row in result.rows] == ["one"]
        session.execute("range of f is r")
        assert [row.data["b"] for row in session.query(
            text.format("01/04/80")).rows] == [1]

    def test_two_databases_of_different_kinds(self):
        sessions = {db_class: session_over(db_class) for db_class in KINDS}
        for session in sessions.values():
            append(session, "x", 1)
        for day in range(2, 6):
            for db_class, session in sessions.items():
                text = f'retrieve (f.b) when f overlap "01/0{day}/80"'
                if not session.database.supports_historical_queries:
                    with pytest.raises(TQuelSemanticError,
                                       match="requires valid time"):
                        session.query(text)
                    result = session.query(
                        f'retrieve (f.b) where f.a = "{day}"')
                    assert type(result) is Relation
                else:
                    result = session.query(text)
                    assert len(result) == 1
                    assert type(result) is (
                        TemporalRelation if session.database.supports_rollback
                        else HistoricalRelation)

    def test_eight_racing_threads(self):
        errors = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                db_class = KINDS[index % 4]
                session = session_over(db_class)
                barrier.wait()
                for round_ in range(25):
                    domain = "integer" if round_ % 2 else "string"
                    value = round_ if round_ % 2 else f'"{round_}"'
                    session.execute("destroy r")
                    session.execute(f"create r (a = string, b = {domain}) "
                                    f"key (a)")
                    append(session, f"t{index}", value)
                    result = session.query(
                        f'retrieve (f.b) where f.a = "t{index}"')
                    rows = (list(result) if isinstance(result, Relation)
                            else [row.data for row in result.rows])
                    assert [row["b"] for row in rows] == [
                        round_ if round_ % 2 else str(round_)]
                    assert result.schema.attribute("b").domain is (
                        Domain.INTEGER if round_ % 2 else Domain.STRING)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # (switch often: interleave the filings)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_readers_racing_ddl_on_one_database(self):
        database = TemporalDatabase()
        setup = Session(database)
        setup.execute("create r (a = string, b = integer) key (a)")
        setup.execute('append to r (a = "x", b = 5) valid from "01/01/80"')
        errors = []

        def reader():
            session = Session(database, ranges={"f": "r"})
            for day in range(1, 29):
                result = session.query(f'retrieve (f.b) where f.a = "x" '
                                       f'when f overlap "02/{day:02}/80"')
                assert [row.data["b"] for row in result.rows] == [5]

        def churner(index):
            session = Session(database)
            for round_ in range(15):
                session.execute(f"create s{index} (a = string) key (a)")
                session.execute(f"destroy s{index}")

        def guarded(work, *args):
            try:
                work(*args)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = ([threading.Thread(target=guarded, args=(reader,))
                    for _ in range(4)]
                   + [threading.Thread(target=guarded, args=(churner, index))
                      for index in range(4)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_the_server_over_memory_pipes(self):
        async def roundtrip(pipe, request_id, source):
            pipe.write(protocol.query_request(request_id, source))
            rows = []
            while True:
                message = protocol.decode_message(
                    await asyncio.wait_for(pipe.readline(), 2.0))
                if message["type"] == "rows":
                    rows += protocol.rows_from_wire(message["rows"])
                if message["type"] == "error":
                    return message
                if message["type"] == "done":
                    return [row["values"] for row in rows]

        def connect(server):
            client, end = open_pipe()
            asyncio.ensure_future(server.handle_connection(end, end))
            return client

        async def scenario():
            server = ReproServer(TemporalDatabase())
            one, two = connect(server), connect(server)
            for index, source in enumerate([
                    "create r (a = string, b = integer) key (a)",
                    "create s (a = string, b = string) key (a)",
                    'append to r (a = "x", b = 1) valid from "01/01/80"',
                    'append to s (a = "x", b = "one") '
                    'valid from "01/01/80"',
                    "range of f is r"]):
                assert not isinstance(await roundtrip(one, index, source),
                                      dict)
            await roundtrip(two, 10, "range of f is s")
            text = 'retrieve (f.b) where f.a = "{}"'
            assert await roundtrip(one, 11, text.format("x")) == [{"b": 1}]
            assert await roundtrip(two, 12, text.format("x")) == [
                {"b": "one"}]
            await roundtrip(one, 13, "destroy r")
            refused = await roundtrip(one, 14, text.format("x"))
            assert "unknown relation" in refused["error"]["message"]
            await roundtrip(one, 15, "create r (a = string, b = string) "
                                     "key (a)")
            await roundtrip(one, 16, 'append to r (a = "x", b = "two") '
                                     'valid from "01/01/80"')
            assert await roundtrip(one, 17, text.format("x")) == [
                {"b": "two"}]
            assert await roundtrip(two, 18, text.format("x")) == [
                {"b": "one"}]
            server.shutdown()

        asyncio.run(scenario())


# -- literals are still checked ----------------------------------------------------

class TestDateLiterals:
    @pytest.mark.parametrize("good, bad", [
        ('retrieve (f.b) when f overlap "01/02/80"',
         'retrieve (f.b) when f overlap "13/45/80"'),
        ('retrieve (f.b) as of "01/02/80" when f overlap "01/02/80"',
         'retrieve (f.b) as of "99/99/99" when f overlap "no date"'),
        ('retrieve (f.b) valid from "01/02/80" to "01/03/80"',
         'retrieve (f.b) valid from "01/02/80" to "01/32/80"'),
        ('append to r (a = "q", b = 1) valid from "01/02/80"',
         'append to r (a = "q", b = 1) valid from "02/30/80"'),
        ('delete f valid from "01/02/80"', 'delete f valid from "tomorrow"'),
    ])
    def test_a_cached_shape_raises_what_a_fresh_analysis_raises(self, good,
                                                                  bad):
        session = session_over(TemporalDatabase)
        append(session, "x", 1)
        session.execute(good)
        session.execute(good)  # (filed now, whatever the first parse was)
        expected = fresh_error(bad, session.database, session.ranges)
        with pytest.raises(TQuelSemanticError) as caught:
            session.execute(bad)
        assert (type(caught.value), str(caught.value)) == expected

    def test_the_unquoted_infinities_are_not_parsed(self):
        session = session_over(TemporalDatabase)
        for literal in ("01/02/80", "forever", "beginning", "01/03/80"):
            session.execute(f'retrieve (f.b) valid from "01/01/80" '
                            f'to "{literal}"')


# -- count guards ------------------------------------------------------------------

class TestOncePerShape:
    def test_a_thousand_statements_run_the_analyzer_once(self, monkeypatch):
        checks, schemas = [], []
        check = analyzer_module._Analyzer.check
        result_schema = Evaluator._result_schema
        monkeypatch.setattr(analyzer_module._Analyzer, "check",
                            lambda self, statement: checks.append(1)
                            or check(self, statement))
        monkeypatch.setattr(Evaluator, "_result_schema",
                            lambda self, targets: schemas.append(1)
                            or result_schema(self, targets))
        session = session_over(TemporalDatabase)
        append(session, "x", 1)
        checks.clear()
        schemas.clear()
        text = ('retrieve (f.b) where f.a = "x" when f overlap "01/{:02}/80" '
                'as of "02/{:02}/80"')
        with obs.recording() as recording:
            for index in range(1000):
                session.query(text.format(index % 28 + 1, index % 27 + 1))
        counters = recording.metrics.snapshot()["counters"]
        assert (len(checks), len(schemas)) == (1, 1)
        assert counters["tquel.analyze.shape_miss"] == 1
        assert counters["tquel.analyze.shape_hit"] == 999
        # A new epoch, then new bindings: one more analysis each.
        session.execute("create s (a = string, b = integer) key (a)")
        session.query(text.format(1, 1))
        session.query(text.format(2, 2))
        session.execute("range of g is s")
        session.query(text.format(3, 3))
        # (the create and the range statement are analyzed too)
        assert (len(checks), len(schemas)) == (5, 3)

    def test_explain_reads_the_filed_shape(self):
        session = session_over(TemporalDatabase)
        text = 'retrieve (f.b) where f.a = "x" as of "01/0{}/80"'
        session.query(text.format(2))
        with obs.recording() as recording:
            plan = session.explain_plan(text.format(3), timings=False)
        counters = recording.metrics.snapshot()["counters"]
        assert counters["tquel.analyze.shape_hit"] == 1
        assert plan["result_kind"] == "temporal"
