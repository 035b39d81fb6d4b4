"""Rendering: relations in the paper's figure style, and AST unparsing.

``render_*`` produce ASCII tables shaped like the paper's Figures 2, 4, 6,
8 and 9: explicit attributes first, then a double bar ``‖`` separating the
DBMS-maintained temporal columns ("the double vertical bars separate the
non-temporal domains from the DBMS-maintained temporal domains", §4.2).
Instants print in the paper's ``MM/DD/YY`` style with ``∞`` for the open
end.

:func:`unparse` turns an AST back into concrete TQuel syntax; the test
suite checks ``parse(unparse(parse(q))) == parse(q)``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.core.historical import HistoricalRelation
from repro.core.rollback import RollbackRelation
from repro.core.temporal import TemporalRelation
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, IsNull, Not, Or,
)
from repro.relational.relation import Relation
from repro.tquel.ast import (
    AggCall, AppendStmt, CreateStmt, DeleteStmt, DestroyStmt, RangeStmt,
    ReplaceStmt, RetrieveStmt, Statement, TConst, TEndOf, TExtend, TNow,
    TOverlap, TPAnd, TPCompare, TPNot, TPOr, TStartOf, TVar, TemporalExpr,
    TemporalPredicate, ValidClause,
)

_DOUBLE_BAR = "‖"


def _format_cell(domain, value: Any) -> str:
    if value is None:
        return "-"
    return domain.format(value)


def _build_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 bar_after: Sequence[int] = (),
                 title: Optional[str] = None) -> str:
    """Assemble an ASCII table with ‖ separators after the given columns."""
    columns = list(zip(headers, *rows)) if rows else [(h,) for h in headers]
    widths = [max(len(str(cell)) for cell in column) for column in columns]

    def render_line(cells: Sequence[str]) -> str:
        line = "|"
        for index, (cell, width) in enumerate(zip(cells, widths)):
            line += " " + str(cell).ljust(width) + " "
            if index + 1 in bar_after and index + 1 < len(widths):
                line += _DOUBLE_BAR
            else:
                line += "|"
        return line

    rule = "+" + "-" * (len(render_line(headers)) - 2) + "+"
    lines = []
    if title:
        lines.append(title)
    lines.extend([rule, render_line(headers), rule])
    lines.extend(render_line(row) for row in rows)
    lines.append(rule)
    return "\n".join(lines)


def render_static(relation: Relation, title: Optional[str] = None) -> str:
    """A static relation, as in Figure 2."""
    return relation.pretty(title)


def _render_stamped(relation, title: Optional[str], valid_columns: int,
                    transaction: bool) -> str:
    """The explicit attributes, then ‖ and the kept periods: valid time in
    *valid_columns* columns (none; ``at``; ``from``, ``to``), then
    transaction time's ``start``, ``end`` if *transaction*."""
    schema = relation.schema
    names = len(schema.names)
    headers = (list(schema.names)
               + [[], ["valid (at)"], ["valid (from)", "(to)"]][valid_columns]
               + (["transaction (start)", "(end)"] if transaction else []))
    rows = []
    for row in relation.rows:
        cells = [_format_cell(schema.attribute(name).domain, row.data[name])
                 for name in schema.names]
        if valid_columns:
            cells.append(row.valid.start.paper_format())
        if valid_columns == 2:
            cells.append(row.valid.end.paper_format())
        if transaction:
            cells += [row.tt.start.paper_format(), row.tt.end.paper_format()]
        rows.append(cells)
    bars = (names, names + valid_columns) if valid_columns and transaction \
        else (names,)
    return _build_table(headers, rows, bar_after=bars, title=title)


def render_rollback(relation: RollbackRelation,
                    title: Optional[str] = None) -> str:
    """A rollback relation with transaction (start, end), as in Figure 4."""
    return _render_stamped(relation, title, 0, transaction=True)


def render_historical(relation: HistoricalRelation,
                      title: Optional[str] = None,
                      event: bool = False) -> str:
    """A historical relation with valid (from, to) — Figure 6 — or (at)."""
    return _render_stamped(relation, title, 1 if event else 2,
                           transaction=False)


def render_temporal(relation: TemporalRelation,
                    title: Optional[str] = None,
                    event: bool = False) -> str:
    """A temporal relation with all four timestamps, as in Figures 8 and 9."""
    return _render_stamped(relation, title, 1 if event else 2,
                           transaction=True)


def render(result: Union[Relation, HistoricalRelation, TemporalRelation, None],
           title: Optional[str] = None, event: bool = False) -> str:
    """Render any query result in the appropriate figure style."""
    if result is None:
        return "(no result)"
    if isinstance(result, TemporalRelation):
        return render_temporal(result, title, event=event)
    if isinstance(result, HistoricalRelation):
        return render_historical(result, title, event=event)
    if isinstance(result, RollbackRelation):
        return render_rollback(result, title)
    return render_static(result, title)


# ---------------------------------------------------------------------------
# Unparsing
# ---------------------------------------------------------------------------

def _unparse_value(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def unparse_expression(expr: Union[Expression, AggCall]) -> str:
    """Concrete syntax of a scalar expression."""
    if isinstance(expr, AggCall):
        inner = unparse_expression(expr.operand) if expr.operand else ""
        unique = "unique " if expr.unique else ""
        return f"{expr.func}({unique}{inner})"
    if isinstance(expr, Const):
        return _unparse_value(expr.value)
    if isinstance(expr, AttrRef):
        if expr.variable is None:
            return expr.name
        return f"{expr.variable}.{expr.name}"
    if isinstance(expr, Comparison):
        return (f"({unparse_expression(expr.left)} {expr.op} "
                f"{unparse_expression(expr.right)})")
    if isinstance(expr, BinaryOp):
        return (f"({unparse_expression(expr.left)} {expr.op} "
                f"{unparse_expression(expr.right)})")
    if isinstance(expr, And):
        return (f"({unparse_expression(expr.left)} and "
                f"{unparse_expression(expr.right)})")
    if isinstance(expr, Or):
        return (f"({unparse_expression(expr.left)} or "
                f"{unparse_expression(expr.right)})")
    if isinstance(expr, Not):
        return f"(not {unparse_expression(expr.operand)})"
    if isinstance(expr, IsNull):
        return f"({unparse_expression(expr.operand)} is null)"
    raise ValueError(f"cannot unparse {expr!r}")


def unparse_temporal(expr: TemporalExpr) -> str:
    """Concrete syntax of a temporal expression."""
    if isinstance(expr, TVar):
        return expr.variable
    if isinstance(expr, TConst):
        if expr.literal in ("forever", "beginning"):
            return expr.literal
        return f'"{expr.literal}"'
    if isinstance(expr, TNow):
        return "now"
    if isinstance(expr, TStartOf):
        return f"start of {unparse_temporal(expr.operand)}"
    if isinstance(expr, TEndOf):
        return f"end of {unparse_temporal(expr.operand)}"
    if isinstance(expr, TOverlap):
        return (f"overlap({unparse_temporal(expr.left)}, "
                f"{unparse_temporal(expr.right)})")
    if isinstance(expr, TExtend):
        return (f"extend({unparse_temporal(expr.left)}, "
                f"{unparse_temporal(expr.right)})")
    raise ValueError(f"cannot unparse {expr!r}")


def unparse_predicate(predicate: TemporalPredicate) -> str:
    """Concrete syntax of a when-predicate."""
    if isinstance(predicate, TPCompare):
        return (f"{unparse_temporal(predicate.left)} {predicate.op} "
                f"{unparse_temporal(predicate.right)}")
    if isinstance(predicate, TPAnd):
        return (f"({unparse_predicate(predicate.left)} and "
                f"{unparse_predicate(predicate.right)})")
    if isinstance(predicate, TPOr):
        return (f"({unparse_predicate(predicate.left)} or "
                f"{unparse_predicate(predicate.right)})")
    if isinstance(predicate, TPNot):
        return f"not ({unparse_predicate(predicate.operand)})"
    raise ValueError(f"cannot unparse {predicate!r}")


def _unparse_valid(valid: ValidClause) -> str:
    if valid.is_event:
        return f"valid at {unparse_temporal(valid.at)}"
    text = f"valid from {unparse_temporal(valid.from_)}"
    if valid.to is not None:
        text += f" to {unparse_temporal(valid.to)}"
    return text


def unparse(statement: Statement) -> str:
    """Concrete TQuel syntax of any statement (parse∘unparse is identity)."""
    if isinstance(statement, RangeStmt):
        return f"range of {statement.variable} is {statement.relation}"
    if isinstance(statement, RetrieveStmt):
        pieces = ["retrieve"]
        if statement.into:
            pieces.append(f"into {statement.into}")
        if statement.unique:
            pieces.append("unique")
        targets = ", ".join(f"{t.name} = {unparse_expression(t.expr)}"
                            for t in statement.targets)
        pieces.append(f"({targets})")
        if statement.where is not None:
            pieces.append(f"where {unparse_expression(statement.where)}")
        if statement.when is not None:
            pieces.append(f"when {unparse_predicate(statement.when)}")
        if statement.valid is not None:
            pieces.append(_unparse_valid(statement.valid))
        if statement.as_of is not None:
            pieces.append(f"as of {unparse_temporal(statement.as_of)}")
            if statement.as_of_through is not None:
                pieces.append(
                    f"through {unparse_temporal(statement.as_of_through)}")
        if statement.sort_by:
            pieces.append("sort by " + ", ".join(statement.sort_by))
        return " ".join(pieces)
    if isinstance(statement, AppendStmt):
        assigns = ", ".join(f"{name} = {unparse_expression(expr)}"
                            for name, expr in statement.assignments)
        text = f"append to {statement.relation} ({assigns})"
        if statement.valid is not None:
            text += " " + _unparse_valid(statement.valid)
        return text
    if isinstance(statement, DeleteStmt):
        text = f"delete {statement.variable}"
        if statement.where is not None:
            text += f" where {unparse_expression(statement.where)}"
        if statement.valid is not None:
            text += " " + _unparse_valid(statement.valid)
        return text
    if isinstance(statement, ReplaceStmt):
        assigns = ", ".join(f"{name} = {unparse_expression(expr)}"
                            for name, expr in statement.assignments)
        text = f"replace {statement.variable} ({assigns})"
        if statement.where is not None:
            text += f" where {unparse_expression(statement.where)}"
        if statement.valid is not None:
            text += " " + _unparse_valid(statement.valid)
        return text
    if isinstance(statement, CreateStmt):
        attrs = ", ".join(f"{name} = {type_name}"
                          for name, type_name in statement.attributes)
        text = "create "
        if statement.event:
            text += "event "
        text += f"{statement.relation} ({attrs})"
        if statement.key:
            text += " key (" + ", ".join(statement.key) + ")"
        return text
    if isinstance(statement, DestroyStmt):
        return f"destroy {statement.relation}"
    raise ValueError(f"cannot unparse {statement!r}")
