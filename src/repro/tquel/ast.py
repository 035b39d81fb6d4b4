"""TQuel abstract syntax.

Statements cover the paper's whole surface: ``range of``, ``retrieve``
(with ``where``, ``when``, ``valid``, ``as of``), the update statements
``append``/``delete``/``replace`` (with valid clauses), and the DDL
``create``/``destroy``.

Scalar expressions (``where`` clauses, target lists) reuse the engine AST
from :mod:`repro.relational.expression` directly, so no translation layer
is needed.  Temporal expressions and predicates (``when``/``valid``/``as
of`` clauses) are defined here.

Temporal semantics (documented contract, uniform rather than special-cased):

- a temporal expression denotes a **period**;
- a range variable denotes the valid period of its current tuple;
- a string literal denotes the single-chronon period at that instant;
  ``now`` likewise at evaluation time;
- ``start of e`` / ``end of e`` denote the first / last chronon of ``e``
  (``end of`` an open-ended period is an evaluation error);
- ``overlap(e1, e2)`` denotes the intersection (an *empty* intersection
  filters the candidate tuple out); ``extend(e1, e2)`` the smallest
  covering period;
- in ``valid from e1 to e2``, each bound resolves to the **start** of its
  operand period, and the result is the half-open ``[start(e1),
  start(e2))`` — so ``to "12/01/82"`` excludes 12/01/82, matching the
  half-open columns of Figure 6;
- ``when`` predicates compare periods: ``overlap`` (share a chronon),
  ``precede`` (all-before, meeting allowed), ``equal``; combined with
  ``and`` / ``or`` / ``not``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

from repro.relational.expression import Expression


# ---------------------------------------------------------------------------
# Temporal expressions (denote periods)
# ---------------------------------------------------------------------------

class TemporalExpr:
    """Base class of period-denoting expressions."""


@dataclasses.dataclass(frozen=True)
class TVar(TemporalExpr):
    """The valid period of a range variable's current tuple."""

    variable: str


@dataclasses.dataclass(frozen=True)
class TConst(TemporalExpr):
    """An instant literal: the single-chronon period at that instant."""

    literal: str


@dataclasses.dataclass(frozen=True)
class TNow(TemporalExpr):
    """``now``: the single-chronon period at evaluation time."""


@dataclasses.dataclass(frozen=True)
class TStartOf(TemporalExpr):
    """``start of e``: the first chronon of the operand period."""

    operand: TemporalExpr


@dataclasses.dataclass(frozen=True)
class TEndOf(TemporalExpr):
    """``end of e``: the last chronon of the operand period."""

    operand: TemporalExpr


@dataclasses.dataclass(frozen=True)
class TOverlap(TemporalExpr):
    """``overlap(e1, e2)``: the intersection period (empty filters out)."""

    left: TemporalExpr
    right: TemporalExpr


@dataclasses.dataclass(frozen=True)
class TExtend(TemporalExpr):
    """``extend(e1, e2)``: the smallest period covering both operands."""

    left: TemporalExpr
    right: TemporalExpr


# ---------------------------------------------------------------------------
# Temporal predicates (the ``when`` clause)
# ---------------------------------------------------------------------------

class TemporalPredicate:
    """Base class of boolean predicates over periods."""


@dataclasses.dataclass(frozen=True)
class TPCompare(TemporalPredicate):
    """``e1 overlap e2`` / ``e1 precede e2`` / ``e1 equal e2``."""

    op: str  # "overlap" | "precede" | "equal"
    left: TemporalExpr
    right: TemporalExpr


@dataclasses.dataclass(frozen=True)
class TPAnd(TemporalPredicate):
    """Conjunction of temporal predicates."""

    left: TemporalPredicate
    right: TemporalPredicate


@dataclasses.dataclass(frozen=True)
class TPOr(TemporalPredicate):
    """Disjunction of temporal predicates."""

    left: TemporalPredicate
    right: TemporalPredicate


@dataclasses.dataclass(frozen=True)
class TPNot(TemporalPredicate):
    """Negation of a temporal predicate."""

    operand: TemporalPredicate


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------

class _ComparedByRepr:
    """A node holding expressions, whose ``==`` builds a ``Comparison``:
    equal to another of its class when their canonical reprs are."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _fingerprint(self) == _fingerprint(other)

    def __hash__(self) -> int:
        return hash(_fingerprint(self))


@dataclasses.dataclass(frozen=True)
class ValidClause:
    """``valid from e1 to e2`` (interval) or ``valid at e`` (event)."""

    at: Optional[TemporalExpr] = None
    from_: Optional[TemporalExpr] = None
    to: Optional[TemporalExpr] = None

    @property
    def is_event(self) -> bool:
        """True for the ``valid at`` form."""
        return self.at is not None


@dataclasses.dataclass(eq=False)
class AggCall(_ComparedByRepr):
    """An aggregate in a target list: ``count(f.name)``, ``avg(f.salary)``...

    ``operand is None`` only for bare ``count()``.
    """

    func: str
    operand: Optional[Expression]
    unique: bool = False


#: A target-list entry: result attribute name plus the defining expression.
@dataclasses.dataclass(frozen=True, eq=False)
class TargetItem(_ComparedByRepr):
    """``name = expression`` (name defaults to the attribute referenced)."""

    name: str
    expr: Union[Expression, AggCall]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class of TQuel statements."""


@dataclasses.dataclass(frozen=True)
class RangeStmt(Statement):
    """``range of f is faculty``."""

    variable: str
    relation: str


@dataclasses.dataclass(eq=False)
class RetrieveStmt(_ComparedByRepr, Statement):
    """``retrieve [into name] [unique] (targets) [where] [when] [valid] [as of] [sort by]``.

    ``as of e1 through e2`` (``as_of_through`` set) retrieves over the
    inclusive transaction-time *range*: every candidate that was part of
    some database state between the two instants.
    """

    targets: List[TargetItem]
    into: Optional[str] = None
    unique: bool = False
    where: Optional[Expression] = None
    when: Optional[TemporalPredicate] = None
    valid: Optional[ValidClause] = None
    as_of: Optional[TemporalExpr] = None
    as_of_through: Optional[TemporalExpr] = None
    sort_by: Tuple[str, ...] = ()


@dataclasses.dataclass(eq=False)
class AppendStmt(_ComparedByRepr, Statement):
    """``append to faculty (name = "Tom", ...) [valid ...]``."""

    relation: str
    assignments: List[Tuple[str, Expression]]
    valid: Optional[ValidClause] = None


@dataclasses.dataclass(eq=False)
class DeleteStmt(_ComparedByRepr, Statement):
    """``delete f [where ...] [valid ...]``."""

    variable: str
    where: Optional[Expression] = None
    valid: Optional[ValidClause] = None


@dataclasses.dataclass(eq=False)
class ReplaceStmt(_ComparedByRepr, Statement):
    """``replace f (rank = "full") [where ...] [valid ...]``."""

    variable: str
    assignments: List[Tuple[str, Expression]]
    where: Optional[Expression] = None
    valid: Optional[ValidClause] = None


@dataclasses.dataclass(frozen=True)
class CreateStmt(Statement):
    """``create [event] faculty (name = string, rank = string) [key (name)]``.

    Attribute type names: ``string``, ``integer``, ``float``, ``boolean``,
    ``date`` (user-defined time — stored, never interpreted).
    """

    relation: str
    attributes: Tuple[Tuple[str, str], ...]
    key: Tuple[str, ...] = ()
    event: bool = False


@dataclasses.dataclass(frozen=True)
class DestroyStmt(Statement):
    """``destroy faculty``."""

    relation: str


def _fingerprint(node: _ComparedByRepr) -> str:
    """A canonical string for node equality (expressions compare by repr)."""
    return repr(dataclasses.asdict(node))
