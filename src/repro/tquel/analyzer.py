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

from typing import Dict, Iterable, Optional, Set

from repro.core.base import Database
from repro.errors import TQuelSemanticError
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, IsNull, Not, Or,
)
from repro.tquel.ast import (
    AggCall, AppendStmt, CreateStmt, DeleteStmt, DestroyStmt, RangeStmt,
    ReplaceStmt, RetrieveStmt, Statement, TargetItem, TConst, TEndOf, TExtend,
    TNow, TOverlap, TPAnd, TPCompare, TPNot, TPOr, TStartOf, TVar,
    TemporalExpr, TemporalPredicate, ValidClause,
)

#: Range-variable environment: variable -> relation name.
Ranges = Dict[str, str]


def analyze(statement: Statement, database: Database,
            ranges: Ranges) -> None:
    """Validate *statement*; raises :class:`TQuelSemanticError` on failure."""
    analyzer = _Analyzer(database, ranges)
    analyzer.check(statement)


class _Analyzer:
    def __init__(self, database: Database, ranges: Ranges) -> None:
        self._db = database
        self._ranges = ranges

    # -- dispatch -----------------------------------------------------------

    def check(self, statement: Statement) -> None:
        if isinstance(statement, RangeStmt):
            self._check_range(statement)
        elif isinstance(statement, RetrieveStmt):
            self._check_retrieve(statement)
        elif isinstance(statement, AppendStmt):
            self._check_append(statement)
        elif isinstance(statement, DeleteStmt):
            self._check_delete(statement)
        elif isinstance(statement, ReplaceStmt):
            self._check_replace(statement)
        elif isinstance(statement, CreateStmt):
            self._check_create(statement)
        elif isinstance(statement, DestroyStmt):
            self._check_destroy(statement)
        else:
            raise TQuelSemanticError(f"unknown statement {statement!r}")

    # -- taxonomy enforcement ----------------------------------------------------

    def _need_transaction_time(self, construct: str) -> None:
        if not self._db.supports_rollback:
            raise TQuelSemanticError(
                f"{construct} requires transaction time, but this is a "
                f"{self._db.kind} database (no rollback support)"
            )

    def _need_valid_time(self, construct: str) -> None:
        if not self._db.supports_historical_queries:
            raise TQuelSemanticError(
                f"{construct} requires valid time, but this is a "
                f"{self._db.kind} database (no historical-query support)"
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
        if statement.when is not None:
            self._need_valid_time("the 'when' clause")
            self._check_temporal_predicate(statement.when)
        if statement.valid is not None:
            self._need_valid_time("the 'valid' clause")
            self._check_valid_clause(statement.valid, allow_variables=True)
        if statement.as_of is not None:
            self._need_transaction_time("the 'as of' clause")
            self._check_temporal_expr(statement.as_of, allow_variables=False,
                                      construct="as of")
        if statement.as_of_through is not None:
            self._need_transaction_time("the 'as of ... through' clause")
            self._check_temporal_expr(statement.as_of_through,
                                      allow_variables=False,
                                      construct="as of ... through")
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
            self._check_constant_expression(expr, "append values")
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
            self._need_valid_time("an event relation")

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

    def _check_valid_clause(self, valid: ValidClause,
                            allow_variables: bool) -> None:
        """Check a retrieve's valid clause (range variables are legal)."""
        for expr in (valid.at, valid.from_, valid.to):
            if expr is not None:
                self._check_temporal_expr(expr, allow_variables=allow_variables,
                                          construct="valid")

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
        self._need_valid_time("the 'valid' clause")
        if is_event and for_insert and not valid.is_event:
            raise TQuelSemanticError(
                f"relation {relation!r} is an event relation; use 'valid at'"
            )
        if not is_event and valid.is_event and for_insert:
            raise TQuelSemanticError(
                f"relation {relation!r} is an interval relation; "
                f"use 'valid from ... to ...'"
            )
        for expr in (valid.at, valid.from_, valid.to):
            if expr is not None:
                self._check_temporal_expr(expr, allow_variables=False,
                                          construct="update valid clause")

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

    def _check_constant_expression(self, expr: Expression, where: str) -> None:
        if isinstance(expr, AggCall) or expr.references():
            raise TQuelSemanticError(
                f"{where} must be constant expressions"
            )

    # -- temporal --------------------------------------------------------------------------------

    def _check_temporal_predicate(self, predicate: TemporalPredicate) -> None:
        if isinstance(predicate, TPCompare):
            self._check_temporal_expr(predicate.left, allow_variables=True,
                                      construct="when")
            self._check_temporal_expr(predicate.right, allow_variables=True,
                                      construct="when")
        elif isinstance(predicate, (TPAnd, TPOr)):
            self._check_temporal_predicate(predicate.left)
            self._check_temporal_predicate(predicate.right)
        elif isinstance(predicate, TPNot):
            self._check_temporal_predicate(predicate.operand)
        else:
            raise TQuelSemanticError(
                f"unsupported temporal predicate {predicate!r}"
            )

    def _check_temporal_expr(self, expr: TemporalExpr, allow_variables: bool,
                             construct: str) -> None:
        if isinstance(expr, TVar):
            if not allow_variables:
                raise TQuelSemanticError(
                    f"range variables are not allowed in the {construct} "
                    f"clause (found {expr.variable!r})"
                )
            self._variable_relation(expr.variable)
        elif isinstance(expr, (TConst, TNow)):
            if isinstance(expr, TConst) and expr.literal not in (
                    "forever", "beginning"):
                from repro.time.instant import Instant
                from repro.errors import InvalidInstantError
                try:
                    Instant.parse(expr.literal)
                except InvalidInstantError as exc:
                    raise TQuelSemanticError(str(exc)) from None
        elif isinstance(expr, (TStartOf, TEndOf)):
            self._check_temporal_expr(expr.operand, allow_variables, construct)
        elif isinstance(expr, (TOverlap, TExtend)):
            self._check_temporal_expr(expr.left, allow_variables, construct)
            self._check_temporal_expr(expr.right, allow_variables, construct)
        else:
            raise TQuelSemanticError(
                f"unsupported temporal expression {expr!r}"
            )
