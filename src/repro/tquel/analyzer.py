"""TQuel semantic analysis.

The analyzer validates a parsed statement against a database and a set of
range-variable bindings *before* evaluation.  Its most important job is
enforcing the taxonomy (Figure 11 of the paper) statically:

- ``as of`` requires transaction time → rejected on static and historical
  databases;
- ``when`` and ``valid`` require valid time → rejected on static and
  static-rollback databases;

with the database kind named in the error message.  Beyond that it checks
that range variables are declared, attributes exist, types of temporal
clauses fit the relation (event vs. interval), aggregates appear only at
target top level, and update valid-clauses are constant.

The analyzer runs *before* planning, so every statement the access rule
and the vectorized kernels (:mod:`repro.core.columnar`) ever see is already
well-formed: attribute references resolve against real schema slots and
temporal clauses fit the database kind.  The kernels therefore owe
equivalence only on analyzable statements — semantic errors surface here,
identically for every access path, before a plan is even chosen.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.base import Database
from repro.errors import InvalidInstantError, TQuelSemanticError
from repro.obs import runtime as _obs
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, IsNull, Not, Or,
)
from repro.tquel.ast import (
    AggCall, AppendStmt, CreateStmt, DeleteStmt, DestroyStmt, RangeStmt,
    ReplaceStmt, RetrieveStmt, Statement, TConst, TEndOf, TExtend, TNow,
    TOverlap, TPAnd, TPCompare, TPNot, TPOr, TStartOf, TVar,
    TemporalPredicate, ValidClause,
)
from repro.tquel.evaluator import Evaluator, RetrieveShape, shape_key
from repro.time.instant import Instant

#: Range-variable environment: variable -> relation name.
Ranges = Dict[str, str]


def analyze(statement: Statement, database: Database,
            ranges: Ranges) -> Optional[RetrieveShape]:
    """Validate *statement*; raises :class:`TQuelSemanticError` on failure.

    Returns a retrieve's :class:`~repro.tquel.evaluator.RetrieveShape`
    (else None).  A statement of a parse template is analyzed once per
    (shape, catalog epoch, range bindings): nothing else decides whether
    it passes but its date literals, parsed again each time in the order
    a full analysis reaches them (counters ``tquel.analyze.shape_*``).
    """
    metrics = _obs.current().metrics
    template = getattr(statement, "template", None)
    if template is not None:
        analyses, literals = template
        key = shape_key(database, ranges)
        filed = analyses.get(key)
        if filed is not None:
            metrics.counter("tquel.analyze.shape_hit").inc()
            for index in filed[0]:
                _check_instant(literals[index].literal)
            return filed[1]
    metrics.counter("tquel.analyze.shape_miss").inc()
    analyzer = _Analyzer(database, ranges, template[1] if template else ())
    analyzer.check(statement)
    shape = (Evaluator(database, ranges).shape(statement)
             if isinstance(statement, RetrieveStmt) else None)
    if template is not None:
        if len(analyses) >= 8:  # (epochs and bindings gone by)
            analyses.clear()
        analyses[key] = (tuple(analyzer.dates), shape)
    return shape


def _check_instant(literal: str) -> None:
    """Refuse a date literal that does not parse."""
    if literal not in ("forever", "beginning"):
        try:
            Instant.parse(literal)
        except InvalidInstantError as exc:
            raise TQuelSemanticError(str(exc)) from None


class _Analyzer:
    def __init__(self, database: Database, ranges: Ranges,
                 literals: Sequence[Any] = ()) -> None:
        self._db = database
        self._ranges = ranges
        self._literals = {id(node): index
                          for index, node in enumerate(literals)}
        #: The indices in *literals* of the date literals checked, in order.
        self.dates: List[int] = []

    def check(self, statement: Statement) -> None:
        check = _CHECKS.get(type(statement))
        if check is None:
            raise TQuelSemanticError(f"unknown statement {statement!r}")
        check(self, statement)

    # -- taxonomy enforcement ----------------------------------------------------

    def _need(self, construct: str, valid: bool) -> None:
        """Refuse *construct* on a kind without valid time (*valid*) or
        without transaction time."""
        if not (self._db.supports_historical_queries if valid
                else self._db.supports_rollback):
            raise TQuelSemanticError(
                f"{construct} requires {'valid' if valid else 'transaction'} "
                f"time, but this is a {self._db.kind} database (no "
                f"{'historical-query' if valid else 'rollback'} support)"
            )

    # -- statements -----------------------------------------------------------------

    def _check_range(self, statement: RangeStmt) -> None:
        if statement.relation not in self._db:
            raise TQuelSemanticError(
                f"range declaration refers to unknown relation "
                f"{statement.relation!r}"
            )

    def _check_retrieve(self, statement: RetrieveStmt) -> None:
        if statement.into is not None and statement.into in self._db:
            raise TQuelSemanticError(
                f"retrieve into: relation {statement.into!r} already exists"
            )
        seen: Set[str] = set()
        has_aggregate = False
        for target in statement.targets:
            if target.name in seen:
                raise TQuelSemanticError(
                    f"duplicate target name {target.name!r}"
                )
            seen.add(target.name)
            if isinstance(target.expr, AggCall):
                has_aggregate = True
                if target.expr.operand is not None:
                    self._check_expression(target.expr.operand)
            else:
                self._check_expression(target.expr)
        if statement.where is not None:
            self._check_expression(statement.where)
        for clause, construct, valid in (
                (statement.when, "when", True),
                (statement.valid, "valid", True),
                (statement.as_of, "as of", False),
                (statement.as_of_through, "as of ... through", False)):
            if clause is not None:
                self._need(f"the '{construct}' clause", valid)
                self._check_temporal(clause, valid, construct)
        if has_aggregate and (statement.when is not None
                              or statement.valid is not None):
            raise TQuelSemanticError(
                "aggregate targets cannot be combined with when/valid "
                "clauses; aggregate retrieves produce a static relation"
            )
        for name in statement.sort_by:
            if name not in seen:
                raise TQuelSemanticError(
                    f"sort attribute {name!r} is not a target"
                )

    def _check_append(self, statement: AppendStmt) -> None:
        schema = self._relation_schema(statement.relation)
        assigned = set()
        for name, expr in statement.assignments:
            if name not in schema:
                raise TQuelSemanticError(
                    f"relation {statement.relation!r} has no attribute {name!r}"
                )
            if name in assigned:
                raise TQuelSemanticError(f"attribute {name!r} assigned twice")
            assigned.add(name)
            if isinstance(expr, AggCall) or expr.references():
                raise TQuelSemanticError(
                    "append values must be constant expressions")
        missing = set(schema.names) - assigned
        if missing:
            raise TQuelSemanticError(
                f"append to {statement.relation!r} misses attributes: "
                f"{', '.join(sorted(missing))}"
            )
        self._check_update_valid(statement.relation, statement.valid,
                                 for_insert=True)

    def _check_delete(self, statement: DeleteStmt) -> None:
        relation = self._variable_relation(statement.variable)
        if statement.where is not None:
            self._check_expression(statement.where,
                                   only_variable=statement.variable)
        self._check_update_valid(relation, statement.valid, for_insert=False)

    def _check_replace(self, statement: ReplaceStmt) -> None:
        relation = self._variable_relation(statement.variable)
        schema = self._relation_schema(relation)
        for name, expr in statement.assignments:
            if name not in schema:
                raise TQuelSemanticError(
                    f"relation {relation!r} has no attribute {name!r}"
                )
            self._check_expression(expr, only_variable=statement.variable)
        if statement.where is not None:
            self._check_expression(statement.where,
                                   only_variable=statement.variable)
        self._check_update_valid(relation, statement.valid, for_insert=False)

    def _check_create(self, statement: CreateStmt) -> None:
        if statement.relation in self._db:
            raise TQuelSemanticError(
                f"relation {statement.relation!r} already exists"
            )
        names = [name for name, _ in statement.attributes]
        if len(set(names)) != len(names):
            raise TQuelSemanticError("duplicate attribute names in create")
        for key_name in statement.key:
            if key_name not in names:
                raise TQuelSemanticError(
                    f"key attribute {key_name!r} is not declared"
                )
        if statement.event:
            self._need("an event relation", valid=True)

    def _check_destroy(self, statement: DestroyStmt) -> None:
        if statement.relation not in self._db:
            raise TQuelSemanticError(
                f"cannot destroy unknown relation {statement.relation!r}"
            )

    # -- helpers --------------------------------------------------------------------------

    def _variable_relation(self, variable: str) -> str:
        try:
            return self._ranges[variable]
        except KeyError:
            declared = ", ".join(sorted(self._ranges)) or "<none>"
            raise TQuelSemanticError(
                f"range variable {variable!r} is not declared "
                f"(declared: {declared})"
            ) from None

    def _relation_schema(self, relation: str):
        if relation not in self._db:
            raise TQuelSemanticError(f"unknown relation {relation!r}")
        return self._db.schema(relation)

    def _check_update_valid(self, relation: str,
                            valid: Optional[ValidClause],
                            for_insert: bool) -> None:
        is_event = getattr(self._db, "is_event_relation", lambda _: False)(relation)
        if valid is None:
            if self._db.supports_historical_queries and for_insert:
                raise TQuelSemanticError(
                    f"appending to a {self._db.kind} database requires a "
                    f"valid clause ({'valid at' if is_event else 'valid from'})"
                )
            return
        self._need("the 'valid' clause", valid=True)
        if is_event and for_insert and not valid.is_event:
            raise TQuelSemanticError(
                f"relation {relation!r} is an event relation; use 'valid at'"
            )
        if not is_event and valid.is_event and for_insert:
            raise TQuelSemanticError(
                f"relation {relation!r} is an interval relation; "
                f"use 'valid from ... to ...'"
            )
        self._check_temporal(valid, False, "update valid clause")

    # -- expressions -----------------------------------------------------------------------

    def _check_expression(self, expr: Expression,
                          only_variable: Optional[str] = None) -> None:
        if isinstance(expr, AggCall):
            raise TQuelSemanticError(
                "aggregates may only appear at the top level of a target"
            )
        if isinstance(expr, Const):
            return
        if isinstance(expr, AttrRef):
            if expr.variable is None:
                raise TQuelSemanticError(
                    f"attribute reference {expr.name!r} must be qualified "
                    f"with a range variable (write f.{expr.name})"
                )
            if only_variable is not None and expr.variable != only_variable:
                raise TQuelSemanticError(
                    f"only {only_variable!r} may be referenced here, "
                    f"not {expr.variable!r}"
                )
            relation = self._variable_relation(expr.variable)
            schema = self._relation_schema(relation)
            if expr.name not in schema:
                raise TQuelSemanticError(
                    f"relation {relation!r} (variable {expr.variable!r}) "
                    f"has no attribute {expr.name!r}"
                )
            return
        if isinstance(expr, (Comparison, BinaryOp, And, Or)):
            self._check_expression(expr.left, only_variable)
            self._check_expression(expr.right, only_variable)
            return
        if isinstance(expr, (Not, IsNull)):
            self._check_expression(expr.operand, only_variable)
            return
        raise TQuelSemanticError(f"unsupported expression node {expr!r}")

    # -- temporal --------------------------------------------------------------------------------

    def _check_temporal(self, node: Any, allow_variables: bool,
                        construct: str) -> None:
        """Check a temporal expression, a ``when`` predicate or a ``valid``
        clause, operands left to right."""
        if isinstance(node, TVar):
            if not allow_variables:
                raise TQuelSemanticError(
                    f"range variables are not allowed in the {construct} "
                    f"clause (found {node.variable!r})"
                )
            self._variable_relation(node.variable)
        elif isinstance(node, TConst):
            if id(node) in self._literals:
                self.dates.append(self._literals[id(node)])
            _check_instant(node.literal)
        elif isinstance(node, _COMPOUND):
            for part in vars(node).values():
                if part is not None and not isinstance(part, str):
                    self._check_temporal(part, allow_variables, construct)
        elif not isinstance(node, TNow):
            what = ("predicate" if isinstance(node, TemporalPredicate)
                    else "expression")
            raise TQuelSemanticError(f"unsupported temporal {what} {node!r}")


_CHECKS = {RangeStmt: _Analyzer._check_range,
           RetrieveStmt: _Analyzer._check_retrieve,
           AppendStmt: _Analyzer._check_append,
           DeleteStmt: _Analyzer._check_delete,
           ReplaceStmt: _Analyzer._check_replace,
           CreateStmt: _Analyzer._check_create,
           DestroyStmt: _Analyzer._check_destroy}
#: The temporal nodes made of operands (and an operator's name).
_COMPOUND = (TStartOf, TEndOf, TOverlap, TExtend, TPCompare, TPAnd, TPOr,
             TPNot, ValidClause)
