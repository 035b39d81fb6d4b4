"""Differential: a statement bound into its shape's template against a
fresh parse.

:func:`repro.tquel.parser.parse_tokens` parses a statement shape once
and, for the next statement of that shape, builds new literal nodes and
copies only the nodes on the paths down to them.  For every statement
kind — ``retrieve`` with where / when / valid / ``as of`` / ``through``
/ sort / into / aggregates / unary minus, ``append``, ``replace`` with
and without ``valid from``, ``delete``, ``create``, ``destroy`` and
``range`` — two statements of one shape with different literals are
parsed in turn, and the second, bound into the first's template, must
be ``==`` and ``repr``-equal to the tree a fresh :class:`Parser` builds.
The template must be unchanged after the binding and after the bound
statement runs, and on all four database kinds the bound statement must
give the fresh statement's answer and leave its state, or raise the
same error type.
"""

import re
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import TQuelSyntaxError
from repro.relational import Domain, Relation, Schema
from repro.relational.schema import Attribute
from repro.replication import state_digest
from repro.time import SimulatedClock
from repro.tquel import Session
from repro.tquel import parser as parser_module
from repro.tquel.lexer import tokenize
from repro.tquel.parser import Parser, parse_tokens

from tests.tquel.test_compiled_differential import canonical, outcome

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
KINDS = (StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase)
RANGES = {"f": "faculty"}
SCHEMA = Schema([Attribute("name", Domain.STRING),
                 Attribute("rank", Domain.STRING),
                 Attribute("salary", Domain.INTEGER, nullable=True)],
                key=["name"])

#: A literal slot in a skeleton: ``\0`` then its kind.
STRING, INT, FLOAT, DATE = "\0s", "\0i", "\0f", "\0d"
SLOT = re.compile("\0[sifd]")


def build(db_class):
    clock = SimulatedClock("01/01/80")
    database = db_class(clock=clock)
    database.define("faculty", SCHEMA)
    valid = database.kind.supports_historical_queries

    def at(day, **kwargs):
        clock.set(day)
        return kwargs if valid else {}

    database.insert("faculty", {"name": "Merrie", "rank": "associate",
                                "salary": 40000},
                    **at("09/01/80", valid_from="09/01/80"))
    database.insert("faculty", {"name": "Tom", "rank": "full",
                                "salary": None},
                    **at("12/01/82", valid_from="12/05/82"))
    database.replace("faculty", {"name": "Tom"}, {"salary": 50000},
                     **at("12/07/82", valid_from="12/05/82"))
    database.insert("faculty", {"name": "Mike", "rank": "assistant",
                                "salary": 30000},
                    **at("01/10/83", valid_from="01/01/83"))
    database.delete("faculty", {"name": "Mike"},
                    **at("02/25/84", valid_from="03/01/84"))
    clock.set("06/01/84")
    return database


# -- skeletons: statement text with typed literal slots ---------------------

def optional(*choices):
    return st.sampled_from(("",) + choices)


def sometimes(*choices):
    """A clause one time in three, so that some retrieves are valid on
    every kind and some clause combinations are rejected."""
    return st.one_of(st.just(""), st.just(""), st.sampled_from(choices))


#: Targets beside ``f.name`` (which every ``sort by`` can name).
TARGETS = st.lists(st.one_of(
    st.sampled_from(["f.salary", f"x = f.salary + {INT}", f"y = -{INT}",
                     f"z = {STRING}", f"w = f.salary * {FLOAT}",
                     f"v = -(f.salary - {INT})"]),
    sometimes("c = count(f.name)", "t = sum(f.salary)",
              f"m = max(f.salary + {INT})", "u = count(unique f.rank)")),
    max_size=2, unique=True).map(
        lambda targets: ["f.name"] + [target for target in targets if target])
CLAUSES = st.tuples(
    sometimes(f"where f.name = {STRING}", f"where f.salary > {INT}",
             f"where not f.name = {STRING} and f.salary <= {INT}",
             f"where (f.salary = {INT} or f.name != {STRING})",
             f"where f.salary - {INT} >= -{FLOAT}",
             "where f.salary is not null"),
    sometimes(f"when f overlap {DATE}", f"when start of f precede {DATE}",
             f"when f overlap extend({DATE}, {DATE})",
             f"when not (f overlap {DATE} or end of f precede now)"),
    sometimes(f"valid from {DATE} to {DATE}", f"valid at {DATE}",
             "valid from start of f", f"valid from {DATE} to forever"),
    sometimes(f"as of {DATE}", f"as of {DATE} through {DATE}", "as of now",
             f"as of {DATE} through now"),
    sometimes("sort by name", "sort by name, name"),
)


@st.composite
def retrieves(draw):
    head = ("retrieve " + draw(optional("into out "))
            + draw(optional("unique ")))
    clauses = [clause for clause in draw(st.permutations(draw(CLAUSES)))
               if clause]
    return " ".join([head + "(" + ", ".join(draw(TARGETS)) + ")"] + clauses)


VALIDS = optional(f"valid from {DATE}", f"valid from {DATE} to {DATE}",
                  f"valid at {DATE}")
APPENDS = st.builds(
    lambda valid: f"append to faculty (name = {STRING}, rank = {STRING}, "
                  f"salary = {INT}) {valid}", VALIDS)
REPLACES = st.builds(
    lambda assignments, where, valid: f"replace f ({assignments}) "
                                      f"{where} {valid}",
    st.sampled_from([f"salary = {INT}",
                     f"salary = f.salary + {INT}, rank = {STRING}",
                     f"rank = {STRING}, salary = -{INT}"]),
    optional(f"where f.name = {STRING}", f"where f.salary < {INT}"),
    optional(f"valid from {DATE}"))
DELETES = st.builds(
    lambda where, valid: f"delete f {where} {valid}",
    optional(f"where f.name = {STRING}", f"where f.salary < {INT}"),
    optional(f"valid from {DATE} to {DATE}", f"valid from {DATE}"))
OTHERS = st.sampled_from([
    "create temp (a = string, b = integer) key (a)",
    "create event persistent temp (a = date)",
    "destroy faculty", "range of g is faculty", "range of f is faculty;"])
SKELETONS = st.one_of(retrieves(), APPENDS, REPLACES, DELETES, OTHERS)

LITERALS = {
    STRING: st.sampled_from(["Merrie", "Tom", "Mike", "Nobody", "", 'a"b',
                             "a\\b", "full", "é"]).map(
        lambda text: '"' + text.replace("\\", "\\\\").replace('"', '\\"')
                     + '"'),
    INT: st.integers(0, 100_000).map(str),
    FLOAT: st.integers(0, 100_000).map(lambda n: f"{n / 100:.2f}"),
    DATE: st.sampled_from(["12/10/82", "01/01/83", "09/01/77", "1984-03-01",
                           "12/31/99", "12/05/82", "06/01/84", "01/01/81",
                           "03/01/84", "nonsense"]).map(
        lambda text: f'"{text}"'),
}


@st.composite
def fillings(draw, skeleton):
    return SLOT.sub(lambda slot: draw(LITERALS[slot.group()]), skeleton)


@st.composite
def pairs(draw):
    """Two statements of one shape."""
    skeleton = draw(SKELETONS)
    return draw(fillings(skeleton)), draw(fillings(skeleton))


def run(db_class, statement):
    """What *statement* answers on a fresh database and the state it
    leaves — or the type of what it raised."""
    database = build(db_class)

    def answer():
        result = Session(database, ranges=RANGES).execute_statement(statement)
        if isinstance(result, Relation) or hasattr(result, "rows"):
            result = canonical(result)
        return result, state_digest(database, cache=False)
    return outcome(answer)


@SETTINGS
@given(pairs())
def test_a_bound_statement_is_the_fresh_statement(pair):
    first, second = pair
    parse_tokens(tokenize(first))
    tokens = tokenize(second)
    template = parser_module._TEMPLATES[parser_module._shape(tokens)][0]
    before = repr(template)
    with obs.recording() as recorded:
        bound = parse_tokens(tokens)
    assert recorded.metrics.counter("tquel.parse.template_hit").value == 1
    fresh = Parser(tokens).statement()
    assert bound == fresh
    assert repr(bound) == repr(fresh)
    assert repr(template) == before
    for db_class in KINDS:
        assert run(db_class, bound) == run(db_class, fresh), db_class
    assert repr(template) == before


class TestNeverATemplate:
    def test_a_failed_parse_keeps_its_position(self):
        for source in ('retrieve (f.name) where f.name = "a" "b"',
                       'retrieve (f.name) where f.name = "abc" "d"'):
            tokens = tokenize(source)
            with pytest.raises(TQuelSyntaxError,
                               match="unexpected input") as raised:
                parse_tokens(tokens)
            assert raised.value.column == tokens[-2].column
            assert parser_module._shape(tokens) not in \
                parser_module._TEMPLATES

    def test_a_literal_read_as_a_type_name(self):
        tokens = tokenize('create temp (a = "string")')
        parse_tokens(tokens)
        assert parser_module._shape(tokens) not in parser_module._TEMPLATES
        with pytest.raises(TQuelSyntaxError, match="unknown type"):
            parse_tokens(tokenize('create temp (a = "strung")'))


class TestSharedAcrossThreads:
    def test_threads_binding_one_table_get_their_own_literals(
            self, monkeypatch):
        # The server parses on its executor threads against one table.
        # More threads than cores, switching often, over more shapes than
        # the table holds: every bound tree must be the fresh parse of its
        # own source, and the table must end at its bound.
        monkeypatch.setattr(parser_module, "_TEMPLATES", {})
        sources = [[f'replace f (salary = {thread * 1000 + index}, '
                    f's{index % 300} = "t{thread}") where f.name = "n{index}"'
                    for index in range(600)] for thread in range(6)]
        failures = []

        def work(mine):
            for source in mine:
                tokens = tokenize(source)
                if repr(parse_tokens(tokens)) != repr(
                        Parser(tokens).statement()):
                    failures.append(source)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(mine,))
                       for mine in sources]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(parser_module._TEMPLATES) == 256
