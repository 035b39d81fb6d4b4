"""Unit tests for the TQuel parser."""

import pytest

from repro.core import StaticDatabase
from repro.errors import TQuelSyntaxError
from repro.relational.expression import Or
from repro.tquel.ast import (
    AggCall, AppendStmt, CreateStmt, DeleteStmt, DestroyStmt, RangeStmt,
    ReplaceStmt, RetrieveStmt, TConst, TEndOf, TExtend, TNow, TOverlap, TPAnd,
    TPCompare, TPNot, TPOr, TStartOf, TVar,
)
from repro.tquel import Session
from repro.tquel import parser as parser_module
from repro.tquel.lexer import tokenize
from repro.tquel.parser import Parser, parse, parse_script


class TestRange:
    def test_basic(self):
        stmt = parse("range of f is faculty")
        assert stmt == RangeStmt("f", "faculty")

    def test_missing_is(self):
        with pytest.raises(TQuelSyntaxError, match="'is'"):
            parse("range of f faculty")


class TestRetrieve:
    def test_paper_static_query(self):
        stmt = parse('retrieve (f.rank) where f.name = "Merrie"')
        assert isinstance(stmt, RetrieveStmt)
        assert stmt.targets[0].name == "rank"
        assert repr(stmt.where) == "(AttrRef(f.name) = Const('Merrie'))"

    def test_named_target(self):
        stmt = parse("retrieve (position = f.rank)")
        assert stmt.targets[0].name == "position"

    def test_multiple_targets(self):
        stmt = parse("retrieve (f.name, f.rank)")
        assert [t.name for t in stmt.targets] == ["name", "rank"]

    def test_duplicate_target_name_needs_rename(self):
        # Parses fine; the analyzer rejects duplicates.
        stmt = parse("retrieve (a = f.rank, b = f.rank)")
        assert len(stmt.targets) == 2

    def test_constant_target_needs_name(self):
        with pytest.raises(TQuelSyntaxError, match="explicit"):
            parse("retrieve (42)")

    def test_into_and_unique(self):
        stmt = parse("retrieve into result unique (f.rank)")
        assert stmt.into == "result" and stmt.unique

    def test_as_of(self):
        stmt = parse('retrieve (f.rank) as of "12/10/82"')
        assert stmt.as_of == TConst("12/10/82")

    def test_as_of_now(self):
        stmt = parse("retrieve (f.rank) as of now")
        assert stmt.as_of == TNow()

    def test_when_paper_query(self):
        stmt = parse("retrieve (f1.rank) when f1 overlap start of f2")
        assert stmt.when == TPCompare("overlap", TVar("f1"),
                                      TStartOf(TVar("f2")))

    def test_when_boolean_structure(self):
        stmt = parse("retrieve (f1.rank) when f1 overlap f2 "
                     "and not (f1 precede f3 or f1 equal f2)")
        assert isinstance(stmt.when, TPAnd)
        assert isinstance(stmt.when.right, TPNot)
        assert isinstance(stmt.when.right.operand, TPOr)

    def test_when_function_form_operands(self):
        stmt = parse("retrieve (f1.rank) when overlap(f1, f2) precede "
                     "extend(f1, f3)")
        assert stmt.when == TPCompare(
            "precede", TOverlap(TVar("f1"), TVar("f2")),
            TExtend(TVar("f1"), TVar("f3")))

    def test_valid_interval(self):
        stmt = parse('retrieve (f.rank) valid from start of f to "12/31/99"')
        assert stmt.valid.from_ == TStartOf(TVar("f"))
        assert stmt.valid.to == TConst("12/31/99")
        assert not stmt.valid.is_event

    def test_valid_from_forever_bounds(self):
        stmt = parse("retrieve (f.rank) valid from beginning to forever")
        assert stmt.valid.from_ == TConst("beginning")
        assert stmt.valid.to == TConst("forever")

    def test_valid_event(self):
        stmt = parse("retrieve (f.rank) valid at end of f")
        assert stmt.valid.is_event
        assert stmt.valid.at == TEndOf(TVar("f"))

    def test_sort_by(self):
        stmt = parse("retrieve (f.name, f.rank) sort by rank, name")
        assert stmt.sort_by == ("rank", "name")

    def test_all_clauses_together(self):
        stmt = parse('retrieve into r (f1.rank) where f1.name = "M" '
                     'when f1 overlap f2 valid from start of f1 '
                     'as of "12/10/82" sort by rank')
        assert stmt.into == "r" and stmt.where is not None
        assert stmt.when is not None and stmt.valid is not None
        assert stmt.as_of is not None and stmt.sort_by == ("rank",)

    def test_duplicate_clause_rejected(self):
        with pytest.raises(TQuelSyntaxError, match="duplicate"):
            parse("retrieve (f.rank) where f.a = 1 where f.b = 2")

    def test_aggregates(self):
        stmt = parse("retrieve (n = count(f.name), avg(f.salary))")
        assert stmt.targets[0].expr == AggCall("count",
                                               stmt.targets[0].expr.operand)
        assert stmt.targets[1].name == "avg_salary"

    def test_count_unique(self):
        stmt = parse("retrieve (n = count(unique f.rank))")
        assert stmt.targets[0].expr.unique

    def test_bare_count(self):
        stmt = parse("retrieve (n = count())")
        assert stmt.targets[0].expr.operand is None

    def test_sum_needs_operand(self):
        with pytest.raises(TQuelSyntaxError, match="operand"):
            parse("retrieve (s = sum())")

    def test_arithmetic_precedence(self):
        stmt = parse("retrieve (x = f.a + f.b * 2)")
        assert repr(stmt.targets[0].expr) == \
            "(AttrRef(f.a) + (AttrRef(f.b) * Const(2)))"

    def test_unary_minus(self):
        stmt = parse("retrieve (x = -f.a)")
        assert repr(stmt.targets[0].expr) == "(Const(0) - AttrRef(f.a))"

    def test_parenthesized_where(self):
        stmt = parse("retrieve (f.a) where (f.a = 1 or f.a = 2) and f.b = 3")
        assert repr(stmt.where).startswith("(((")


class TestUpdates:
    def test_append(self):
        stmt = parse('append to faculty (name = "Tom", rank = "associate") '
                     'valid from "12/05/82"')
        assert isinstance(stmt, AppendStmt)
        assert stmt.relation == "faculty"
        assert [name for name, _ in stmt.assignments] == ["name", "rank"]
        assert stmt.valid.from_ == TConst("12/05/82")

    def test_append_without_valid(self):
        stmt = parse('append to faculty (name = "Tom", rank = "full")')
        assert stmt.valid is None

    def test_append_event(self):
        stmt = parse('append to promotion (name = "M") valid at "12/11/82"')
        assert stmt.valid.is_event

    def test_delete(self):
        stmt = parse('delete f where f.name = "Mike" valid from "03/01/84"')
        assert isinstance(stmt, DeleteStmt)
        assert stmt.variable == "f"
        assert stmt.valid is not None

    def test_delete_bare(self):
        stmt = parse("delete f")
        assert stmt.where is None and stmt.valid is None

    def test_replace(self):
        stmt = parse('replace f (rank = "full") where f.name = "Merrie" '
                     'valid from "12/01/82"')
        assert isinstance(stmt, ReplaceStmt)
        assert stmt.assignments[0][0] == "rank"

    def test_replace_computed(self):
        stmt = parse("replace f (salary = f.salary * 2)")
        assert repr(stmt.assignments[0][1]) == "(AttrRef(f.salary) * Const(2))"


class TestDDL:
    def test_create(self):
        stmt = parse("create faculty (name = string, rank = string) "
                     "key (name)")
        assert stmt == CreateStmt("faculty",
                                  (("name", "string"), ("rank", "string")),
                                  ("name",), False)

    def test_create_event(self):
        stmt = parse("create event promotion (name = string, when_ = date)")
        assert stmt.event
        assert stmt.attributes[1] == ("when_", "date")

    def test_create_types(self):
        stmt = parse("create r (a = integer, b = float, c = boolean, "
                      "d = date, e = string)")
        assert [t for _, t in stmt.attributes] == [
            "integer", "float", "boolean", "date", "string"]

    def test_create_unknown_type(self):
        with pytest.raises(TQuelSyntaxError, match="unknown type"):
            parse("create r (a = blob)")

    def test_destroy(self):
        assert parse("destroy faculty") == DestroyStmt("faculty")


class TestScripts:
    def test_multiple_statements(self):
        statements = parse_script("""
            create r (a = string)
            range of x is r ;
            retrieve (x.a)
        """)
        assert len(statements) == 3

    def test_trailing_garbage_rejected_by_parse(self):
        with pytest.raises(TQuelSyntaxError, match="unexpected input"):
            parse("destroy faculty extra")

    def test_empty_script(self):
        assert parse_script("  \n # just a comment\n") == []

    def test_semicolons_optional(self):
        assert len(parse_script("destroy a; destroy b;; destroy c")) == 3


class TestShapeTemplates:
    """A statement's shape parses once (``parse_tokens``' template table)."""

    def test_one_shape_runs_the_parser_once(self, monkeypatch):
        monkeypatch.setattr(parser_module, "_TEMPLATES", {}, raising=False)
        session = Session(StaticDatabase())
        session.execute("create faculty (name = string, salary = integer) "
                        "key (name)")
        parses = []
        statement = Parser.statement

        def counted(self):
            parses.append(self)
            return statement(self)

        monkeypatch.setattr(Parser, "statement", counted)
        for salary in range(200):
            session.execute(f'append to faculty (name = "n{salary}", '
                            f'salary = {salary})')
        assert len(parses) == 1
        rows = session.database.snapshot("faculty")
        assert sorted(row["salary"] for row in rows) == list(range(200))

    def test_the_table_stops_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(parser_module, "_TEMPLATES", {}, raising=False)
        for index in range(300):
            parse(f"retrieve (f.a{index})")
        assert len(parser_module._TEMPLATES) == 256
        assert tokens_shape("retrieve (f.a299)") in parser_module._TEMPLATES
        assert tokens_shape("retrieve (f.a0)") not in parser_module._TEMPLATES

    def test_an_entry_holds_no_literal_and_no_long_shape(self, monkeypatch):
        # 300 shapes whose one literal is 100,000 characters: the table
        # keeps 256 of them and none of their values.  300 shapes of
        # long names or long lists: the table keeps none, and a 3,000-term
        # `or` chain (a tree 3,000 deep) parses.
        monkeypatch.setattr(parser_module, "_TEMPLATES", {}, raising=False)
        value = "v" * 100_000
        for index in range(300):
            statement = parse(f'append to r (a{index} = "{value}")')
            assert statement.assignments[0][1].value == value
        assert len(parser_module._TEMPLATES) == 256
        assert held_characters() < 256 * 100
        monkeypatch.setattr(parser_module, "_TEMPLATES", {}, raising=False)
        for index in range(300):
            parse(f'retrieve (f.{"a" * 600}{index})')
            parse(f'retrieve ({", ".join(["f.a"] * 200)}, x{index} = 1)')
        where = parse("retrieve (f.name) where " + " or ".join(
            f"f.a = {term}" for term in range(3000))).where
        terms = 1
        while isinstance(where, Or):
            where, terms = where.left, terms + 1
        assert terms == 3000
        assert parser_module._TEMPLATES == {}


def held_characters():
    """The characters in every string the template table holds."""
    seen, total = set(), 0
    pending = list(parser_module._TEMPLATES.items())
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, str):
            total += len(item)
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
        elif hasattr(item, "__dict__"):
            pending.extend(vars(item).values())
    return total


def tokens_shape(source):
    return parser_module._shape(tokenize(source))
