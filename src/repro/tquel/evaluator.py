"""The TQuel evaluator.

Executes analyzed statements against a database.  The evaluation semantics
follow the paper's closure requirements:

- on a **static** database, ``retrieve`` yields a static
  :class:`~repro.relational.relation.Relation`;
- on a **static rollback** database, ``retrieve ... as of t`` first rolls
  every ranged relation back to ``t`` and then behaves statically — "the
  result of a query on a static rollback database is a pure static
  relation" (§4.2);
- on a **historical** database, ``retrieve`` yields a
  :class:`~repro.core.historical.HistoricalRelation`; the derived tuple's
  valid time defaults to the intersection of the valid times of the range
  variables appearing in the target list (explicit ``valid`` clauses
  override), "which may be used in further historical queries" (§4.3);
- on a **temporal** database, ``retrieve`` yields a
  :class:`~repro.core.temporal.TemporalRelation`; candidate rows are those
  visible as of the ``as of`` instant (default: now), their transaction
  times are *retained*, not clipped — reproducing the worked example of
  §4.4, whose result row keeps transaction time ``[08/25/77, 12/15/82)``
  under ``as of "12/10/82"``.

Aggregate retrieves group by the non-aggregate targets and always produce
a static relation, computed over the candidate rows — which for the
valid-time kinds means the recorded *facts* (one per tuple-validity row),
not a single timeslice.

**One compiled loop.**  Whatever the kind, the access path or the number
of range variables, a retrieve is settled once per statement — attribute
references resolved to positions and closed over (``Expression.compile``),
variable-free temporal expressions folded (:func:`fold_temporal`), the
clock read — and then runs one straight loop over the bindings.  The
per-row tree walks (``Expression.evaluate``, the unfolded ``eval_*``) are
the specification, property-tested in ``test_compiled_differential.py``.

**Access paths and the equivalence obligation.**  Candidate rows come
from the store (:meth:`~repro.core.base.Database.read`), which answers
from the times its kind keeps: through its index where one answers the
clauses and ``auto`` or ``index`` asked for it, else by its own walk —
the executable specification; or, under ``plan="columnar"``, from the
vectorized mask kernels of :mod:`repro.core.columnar`.  Every path must
yield the *same candidate multiset* (``tests/tquel/test_differential.py``
runs every query shape under all forced plans), every kernel agreeing
row for row with its scalar twin, nulls and raised error types
included.  In ``auto`` mode a stream whose leading conjuncts pin the
whole schema key is first *narrowed* to that key's rows
(:func:`key_binding`) — the same filter still runs over them, and
``naive`` is its oracle (``tests/tquel/test_key_lookup_differential.py``).

In ``auto`` mode the evaluator also consults the database's
:class:`~repro.core.resultcache.ResultCache`: filtered candidate streams
keyed by ``(relation, as-of pin, predicate fingerprint)`` are cached
forever when the pin lies in the immutable (closed) past and
epoch-invalidated otherwise, so a commit to an open store can never
serve a stale as-of answer.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from typing import (Any, Callable, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple as PyTuple, Union)

from repro.core.base import Database, Read
from repro.core.historical import HistoricalRelation, HistoricalRow
from repro.core.temporal import BitemporalRow, TemporalRelation
from repro.core.transaction_time import (  # noqa: F401 - explain's words
    KEY_ACCESS, KEY_HISTORY_ACCESS)
from repro.errors import (ConstraintViolation, InvalidPeriodError,
                          TQuelSemanticError)
from repro.obs import runtime as _obs
from repro.relational.aggregate import REDUCERS
from repro.relational.domain import Domain
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, IsNull, Not, Or,
    Resolver,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant, NEG_INF, POS_INF
from repro.time.period import Period
from repro.tquel.ast import (
    AggCall, AppendStmt, CreateStmt, DeleteStmt, DestroyStmt, RangeStmt,
    ReplaceStmt, RetrieveStmt, Statement, TargetItem, TConst, TEndOf, TExtend,
    TNow, TOverlap, TPAnd, TPCompare, TPNot, TPOr, TStartOf, TVar,
    TemporalExpr, TemporalPredicate, ValidClause,
)
from repro.txn.transaction import Transaction

#: What execute() can return: a derived relation, a commit time, or None.
Result = Union[Relation, HistoricalRelation, TemporalRelation, Instant, None]

_TYPE_MAP = {
    "string": Domain.STRING,
    "integer": Domain.INTEGER,
    "int": Domain.INTEGER,
    "float": Domain.FLOAT,
    "boolean": Domain.BOOLEAN,
    "bool": Domain.BOOLEAN,
}


# ---------------------------------------------------------------------------
# Temporal expressions and predicates: the tree walk (the specification)
# ---------------------------------------------------------------------------

def _bounded(operation: Callable[[Period], Period]
             ) -> Callable[[Period], Period]:
    """``start of`` / ``end of``, an unbounded endpoint a TQuel error."""
    def apply(inner: Period) -> Period:
        try:
            return operation(inner)
        except InvalidPeriodError as exc:
            raise TQuelSemanticError(str(exc)) from None
    return apply


#: The compound temporal expressions: node type -> the operation over
#: the non-empty periods of its operands (the node's fields, in order).
_PERIOD_OPS = {TStartOf: _bounded(Period.start_of),
               TEndOf: _bounded(Period.end_of),
               TOverlap: Period.intersect, TExtend: Period.extend}
#: The literals legal only as a valid/as-of bound, and what they bound.
_INFINITIES = {"forever": POS_INF, "beginning": NEG_INF}


def _lifted(operation, operands: Sequence[Any]) -> Any:
    """*operation* over *operands*, or ``None`` if one is (an empty
    ``overlap(...)`` empties everything built on it)."""
    for operand in operands:
        if operand is None:
            return None
    return operation(*operands)


class _Folded(NamedTuple):
    """A variable-free temporal expression, evaluated once per statement
    (:func:`fold_temporal`): a leaf the tree walk only reads back."""

    value: Any
    #: Did the expression read ``now``?
    clock_dependent: bool = False


def eval_period(expr: TemporalExpr, periods: Mapping[str, Period],
                now: Instant) -> Optional[Period]:
    """Evaluate a temporal expression to a period (None = empty overlap)."""
    if isinstance(expr, TVar):
        return periods[expr.variable]
    if isinstance(expr, _Folded):
        return expr.value
    if isinstance(expr, TNow):
        return Period.at(now)
    if isinstance(expr, TConst):
        if expr.literal in _INFINITIES:
            raise TQuelSemanticError(
                f"{expr.literal!r} may only appear as a valid/as-of bound"
            )
        return Period.at(Instant.parse(expr.literal))
    if type(expr) in _PERIOD_OPS:
        return _lifted(_PERIOD_OPS[type(expr)], [
            eval_period(operand, periods, now)
            for operand in vars(expr).values()])
    raise TQuelSemanticError(f"unknown temporal expression {expr!r}")


_START = operator.attrgetter("start")
#: `to end of e` covers e's last chronon: the bound is e's end.
_END = operator.attrgetter("end")


def eval_bound(expr: TemporalExpr, periods: Mapping[str, Period],
               now: Instant) -> Optional[Instant]:
    """Evaluate a temporal expression as an instant bound.

    Uniform rule: a bound is the **start** of the denoted period;
    ``forever``/``beginning`` denote the infinities.  Returns ``None`` when
    an ``overlap(...)`` operand is empty (the candidate is filtered out).
    """
    if isinstance(expr, _Folded):
        return expr.value
    if isinstance(expr, TConst) and expr.literal in _INFINITIES:
        return _INFINITIES[expr.literal]
    if isinstance(expr, TEndOf):
        return _lifted(_END, [eval_period(expr.operand, periods, now)])
    return _lifted(_START, [eval_period(expr, periods, now)])


#: The ``when`` operators over two non-empty periods: the paper's three
#: (``overlap``, ``precede``, ``equal``) and the Allen-style extensions —
#: ``meets`` (left ends exactly where right begins), ``before`` (strictly
#: earlier, with a gap: precede minus meets), ``after`` (its converse),
#: ``during`` (left contained in right, shared endpoints allowed),
#: ``starts`` / ``finishes`` (contained and sharing the start / the end).
#: Each has a vectorized twin in
#: :meth:`repro.core.columnar.ColumnarChunk.when_mask`.
_WHEN_OPS: Dict[str, Callable[[Period, Period], bool]] = {
    "overlap": Period.overlaps,
    "precede": Period.precedes,
    "equal": operator.eq,
    "meets": Period.meets,
    "before": lambda left, right: (left.precedes(right)
                                   and not left.meets(right)),
    "after": lambda left, right: (right.precedes(left)
                                  and not right.meets(left)),
    "during": lambda left, right: right.contains_period(left),
    "starts": lambda left, right: (right.contains_period(left)
                                   and left.lo == right.lo),
    "finishes": lambda left, right: (right.contains_period(left)
                                     and left.hi == right.hi),
}


def _when_op(op: str) -> Callable[[Period, Period], bool]:
    try:
        return _WHEN_OPS[op]
    except KeyError:
        raise TQuelSemanticError(
            f"unknown temporal operator {op!r}") from None


def eval_temporal_predicate(predicate: TemporalPredicate,
                            periods: Mapping[str, Period],
                            now: Instant) -> bool:
    """Evaluate a ``when`` predicate under the row's valid periods.

    The tree walk is the specification: a retrieve runs
    :func:`compile_when` over the folded predicate instead, and
    ``test_when_differential.py`` holds the two to equal rows and equal
    errors."""
    if isinstance(predicate, TPCompare):
        left = eval_period(predicate.left, periods, now)
        right = eval_period(predicate.right, periods, now)
        if left is None or right is None:
            return False
        return _when_op(predicate.op)(left, right)
    if isinstance(predicate, TPAnd):
        return (eval_temporal_predicate(predicate.left, periods, now)
                and eval_temporal_predicate(predicate.right, periods, now))
    if isinstance(predicate, TPOr):
        return (eval_temporal_predicate(predicate.left, periods, now)
                or eval_temporal_predicate(predicate.right, periods, now))
    if isinstance(predicate, TPNot):
        return not eval_temporal_predicate(predicate.operand, periods, now)
    raise TQuelSemanticError(f"unknown temporal predicate {predicate!r}")


#: The connectives of ``when`` over their compiled operands.
_CONNECTIVES = {
    TPAnd: lambda left, right: lambda bound: left(bound) and right(bound),
    TPOr: lambda left, right: lambda bound: left(bound) or right(bound),
    TPNot: lambda operand: lambda bound: not operand(bound),
}


def compile_when(node, slots: Mapping[str, int], now: Instant):
    """A folded ``when`` (:func:`fold_temporal`), or a period under it, as
    one closure over a binding (a candidate per range variable, at
    *slots*), built once per statement as ``Expression.compile`` builds
    the ``where``: :func:`eval_temporal_predicate` / :func:`eval_period`
    node for node, with their order, short-circuits and errors (a node
    left unfolded runs the walk, which raises when a row reaches it)."""
    if isinstance(node, TVar):
        slot = slots[node.variable]
        return lambda binding: binding[slot][1]
    if isinstance(node, _Folded):
        value = node.value
        return lambda binding: value
    kind = type(node)
    if kind not in _PERIOD_OPS and kind not in _CONNECTIVES \
            and kind is not TPCompare:
        walk = (eval_temporal_predicate if isinstance(node, TemporalPredicate)
                else eval_period)
        return lambda binding: walk(node, {}, now)
    parts = [compile_when(part, slots, now) for part in vars(node).values()
             if not isinstance(part, str)]
    if kind in _CONNECTIVES:
        return _CONNECTIVES[kind](*parts)
    if kind is TPCompare:  # (both sides run before either is tested)
        compare = _WHEN_OPS.get(node.op) or (lambda *_: _when_op(node.op))
        return lambda binding: _lifted(
            compare, [part(binding) for part in parts]) or False
    operation = _PERIOD_OPS[kind]
    return lambda binding: _lifted(operation,
                                   [part(binding) for part in parts])


def split_conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Flatten a where-clause into its top-level conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def partition_pushdown(where: Optional[Expression]
                       ) -> PyTuple[Dict[str, List[Expression]],
                                    List[Expression]]:
    """Split a where-clause for selection pushdown.

    Conjuncts that reference exactly one range variable can filter that
    variable's candidate stream *before* the product is formed, turning
    an O(n·m) scan-then-filter into O(n'+m') streams — the textbook
    selection-pushdown rewrite, safe because conjunction commutes with
    the product.  Returns ``(per-variable conjuncts, residual conjuncts)``.
    """
    per_variable: Dict[str, List[Expression]] = {}
    residual: List[Expression] = []
    for conjunct in split_conjuncts(where):
        variables = {variable for variable, _ in conjunct.references()}
        if len(variables) == 1 and None not in variables:
            per_variable.setdefault(variables.pop(), []).append(conjunct)
        else:
            residual.append(conjunct)
    return per_variable, residual


def _leaves(node) -> Iterator[Any]:
    """The leaves (variables, constants, ``now``) under a temporal
    expression or predicate."""
    if isinstance(node, (TStartOf, TEndOf, TPNot)):
        yield from _leaves(node.operand)
    elif isinstance(node, (TOverlap, TExtend, TPCompare, TPAnd, TPOr)):
        yield from _leaves(node.left)
        yield from _leaves(node.right)
    else:
        yield node


def temporal_variables(node) -> Set[str]:
    """Every range variable a temporal expression/predicate mentions."""
    return {leaf.variable for leaf in _leaves(node)
            if isinstance(leaf, TVar)}


def contains_now(node) -> bool:
    """Does a temporal expression read the clock (``now``)?

    A clock-dependent kernel constant makes a cached stream stale the
    moment the clock moves, even without a commit — so such streams are
    never result-cached.
    """
    return any(isinstance(leaf, TNow) for leaf in _leaves(node))


def fold_temporal(node, now: Instant, evaluate=eval_period):
    """*node* with every maximal variable-free expression under it
    evaluated (by *evaluate*) once per statement, so neither the compiled
    ``when`` (:func:`compile_when`) nor the tree walk parses a literal or
    reads the clock per row.

    An expression the tree walk rejects (a bare ``forever``, an unbounded
    ``start of``) stays unfolded: it raises when a row first reaches it —
    so the statement still succeeds over an empty stream — and ends the
    statement there.  A literal that does not parse is not caught: it is
    refused here, as the analyzer refuses it.
    """
    if isinstance(node, TVar):
        return node
    if isinstance(node, TemporalPredicate) or temporal_variables(node):
        return dataclasses.replace(node, **{
            name: fold_temporal(operand, now)
            for name, operand in vars(node).items()
            if isinstance(operand, (TemporalExpr, TemporalPredicate))})
    try:
        return _Folded(evaluate(node, {}, now), contains_now(node))
    except TQuelSemanticError:
        return node


class _WhenKernel(NamedTuple):
    """A (folded) ``when`` clause one vectorized mask can answer.

    Eligible means: the clause is a single ``TPCompare`` with exactly one
    side being a bare range variable and the other side a folded constant,
    so the predicate can run as one mask over that variable's valid column
    (:meth:`repro.core.columnar.ColumnarChunk.when_mask`).  ``constant is
    None`` records an empty ``overlap(...)`` constant — the predicate is
    then false for every row, exactly as :func:`eval_temporal_predicate`
    would report.
    """

    variable: str
    op: str
    constant: Optional[Period]
    var_on_left: bool
    #: Did the constant read ``now``?  Clock-dependent streams are never
    #: result-cached (the clock can move without a commit).
    clock_dependent: bool


def when_kernel(when: Optional[TemporalPredicate]) -> Optional[_WhenKernel]:
    """The :class:`_WhenKernel` of a folded ``when`` clause, if eligible
    (a constant the tree walk rejects did not fold: it raises per row,
    identically on every access path, and so does an unknown operator)."""
    if isinstance(when, TPCompare) and when.op in _WHEN_OPS:
        for var_side, constant, var_on_left in (
                (when.left, when.right, True), (when.right, when.left, False)):
            if isinstance(var_side, TVar) and isinstance(constant, _Folded):
                return _WhenKernel(var_side.variable, when.op, constant.value,
                                   var_on_left, constant.clock_dependent)
    return None


def columnar_compare_spec(conjunct: Expression, variable: str
                          ) -> Optional[PyTuple[str, str, Any, bool]]:
    """The ``(attr, op, value, attr_on_left)`` kernel form of a conjunct.

    Only a direct attribute-vs-literal comparison vectorizes; anything
    else (arithmetic, attr-vs-attr, ``is null``, disjunctions) runs per
    row, as a compiled closure, on the already-selected indices.
    """
    if isinstance(conjunct, Comparison):
        for attribute, constant, attr_on_left in (
                (conjunct.left, conjunct.right, True),
                (conjunct.right, conjunct.left, False)):
            if (isinstance(attribute, AttrRef) and isinstance(constant, Const)
                    and attribute.variable == variable):
                return (attribute.name, conjunct.op, constant.value,
                        attr_on_left)
    return None


def key_binding(schema: Schema, conjuncts: Sequence[Expression],
                variable: str) -> Optional[Dict[str, Any]]:
    """The schema-key value the leading conjuncts pin, or ``None``.

    Only the unbroken run of ``attribute = constant`` conjuncts at the
    front counts: ``=`` never raises, so a scan tests nothing beyond them
    on a row under another key, whereas a conjunct ahead of the binding
    that can raise does so on the scan's first row, which a lookup would
    skip.  Every key attribute must be bound to a non-null constant of
    its own domain (a constant from another domain can still *equal* a
    stored one, ``1.0 = 1``: the scan decides); of two bindings of one
    attribute the first is probed and the filter refutes the other.
    """
    bound: Dict[str, Any] = {}
    for conjunct in conjuncts:
        spec = columnar_compare_spec(conjunct, variable)
        if spec is None or spec[1] != "=":
            break
        bound.setdefault(spec[0], spec[2])
    for name in schema.key:
        value = bound.get(name)
        if value is None or not schema.attribute(name).domain.contains(value):
            return None
    return bound if schema.key else None


# ---------------------------------------------------------------------------
# The access rule
# ---------------------------------------------------------------------------

#: The plan modes: ``auto`` (the rule below) or one path forced.
PLAN_MODES = ("auto", "naive", "index", "columnar")


def plan_mode(mode: str) -> str:
    """*mode*, if it is one of :data:`PLAN_MODES`."""
    if mode not in PLAN_MODES:
        raise ValueError(
            f"plan must be one of {', '.join(PLAN_MODES)}; got {mode!r}")
    return mode


class AccessPlan(NamedTuple):
    """The access path one range variable's stream ran, and why."""

    path: str    # "naive" | "index" | "columnar"
    reason: str  # deterministic one-line justification


def plan_of(mode: str, path: str) -> AccessPlan:
    """The plan of a stream no key probe answered, *path* having run:
    ``auto`` asks for the index, and a transaction-time tree answers (the
    temporal store, the interval rollback store under ``as of``) or the
    scan does; a forced path the store lacks degrades to ``naive``."""
    if mode == "auto":
        return (AccessPlan("index", "auto: a transaction-time tree answers "
                                    "these clauses") if path == "index" else
                AccessPlan("naive", "auto: no transaction-time tree answers "
                                    "these clauses"))
    if path == mode:
        return AccessPlan(mode, f"forced plan {mode!r}")
    return AccessPlan("naive",
                      f"forced plan {mode!r} unavailable here; using naive")


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class RetrieveShape(NamedTuple):
    """What a retrieve's shape fixes under one catalog and one set of range
    bindings: :func:`repro.tquel.analyzer.analyze` files it once per
    (shape, catalog epoch, bindings), and every statement of the shape
    reads it back (:meth:`Evaluator.shape`)."""

    #: Range variable -> its place in a *binding*: one candidate
    #: ``(data, valid, tt)`` per variable, in this order.
    slots: Dict[str, int]
    #: The slots whose periods a derived row intersects: the target
    #: list's variables, else every variable.
    row_slots: PyTuple[int, ...]
    schema: Schema
    #: The result's relation class.
    result_type: type
    #: A projection's getter from stored values to the row's, or None
    #: (:meth:`Evaluator._projection`).
    projection: Optional[Callable[[Any], Any]]


def shape_key(database: Database, ranges: Mapping[str, str]) -> Any:
    """What a shape's analysis is filed under: the catalog epoch and the
    range bindings."""
    return database.catalog_epoch, frozenset(ranges.items())


class _Prepared(NamedTuple):
    """A retrieve compiled and sourced, short of forming the product: what
    :meth:`Evaluator.retrieve` runs and :meth:`Evaluator.explain` reports."""

    shape: RetrieveShape
    now: Instant
    as_of: Optional[Instant]
    through: Optional[Instant]
    #: Pushed single-variable conjuncts per variable, and the rest.
    pushdown: Dict[str, List[Expression]]
    residual: List[Expression]
    #: The folded ``when`` still to test per binding (``None``: no such
    #: clause, or a stream's kernel has answered it).
    when: Optional[TemporalPredicate]
    #: Per variable: the access plan, the candidates examined before
    #: pushdown, those that survived it, and the access path in
    #: ``explain``'s words.
    streams: Dict[str, PyTuple[AccessPlan, int, PyTuple[Any, ...], str]]


#: A constant's domain by its value's type, first match (a bool is an int).
_CONST_DOMAINS = ((bool, Domain.BOOLEAN), (int, Domain.INTEGER),
                  (float, Domain.FLOAT), (str, Domain.STRING),
                  (Instant, Domain.DATE))
#: The method that runs each kind of statement.
_RUNS = {RetrieveStmt: "retrieve", AppendStmt: "_append",
         DeleteStmt: "_delete", ReplaceStmt: "_replace",
         CreateStmt: "_create"}
#: ``explain``'s name for each relation class a retrieve can yield.
_RESULT_KINDS = {Relation: "static", HistoricalRelation: "historical",
                 TemporalRelation: "temporal"}


def _has_aggregates(targets: Sequence[TargetItem]) -> bool:
    return any(isinstance(target.expr, AggCall) for target in targets)


def _earliest_open(rows: List[BitemporalRow]) -> List[BitemporalRow]:
    """*rows* holding each fact open once, as a temporal relation does: of
    two (projected) rows holding one fact open, the earlier-opened alone —
    the other's transaction period lies inside it, adding to no state."""
    first: Dict[Any, BitemporalRow] = {}
    for row in rows:
        fact = row[:2]
        if row.tt.hi == math.inf and row.tt.lo <= first.get(fact, row).tt.lo:
            first[fact] = row
    return [row for row in rows
            if row.tt.hi != math.inf or first[row[:2]] == row]


def _intersection(binding, slots: Sequence[int],
                  axis: int) -> Optional[Period]:
    """One time axis (1 = valid, 2 = transaction) intersected over the
    candidates at *slots*; ``None`` when empty or when a candidate lacks
    the axis."""
    current: Optional[Period] = None
    for slot in slots:
        period = binding[slot][axis]
        if period is None:
            return None
        current = period if current is None else current.intersect(period)
        if current is None:
            return None
    return current


def _periods(slots: Mapping[str, int], binding) -> Dict[str, Any]:
    """The valid periods of a binding's candidates, by range variable."""
    return {variable: binding[slot][1] for variable, slot in slots.items()}


class Evaluator:
    """Executes statements against one database and a range environment.

    ``plan`` selects the access path for every range variable:
    ``"auto"`` (the rule of :func:`plan_of`, the default) or a forced
    ``"naive"``/``"index"``/``"columnar"`` for debugging and differential
    testing.  Only ``auto`` consults the result cache — forced plans must
    exercise their path, not a memo of it.
    """

    def __init__(self, database: Database, ranges: Mapping[str, str],
                 plan: str = "auto") -> None:
        self._db = database
        self._ranges = dict(ranges)
        self._plan = plan_mode(plan)

    # -- dispatch ------------------------------------------------------------------

    def execute(self, statement: Statement) -> Result:
        """Execute one (already analyzed) statement."""
        if isinstance(statement, RangeStmt):
            self._ranges[statement.variable] = statement.relation
            return None
        if isinstance(statement, DestroyStmt):
            return self._db.drop(statement.relation)
        run = _RUNS.get(type(statement))
        if run is None:
            raise TQuelSemanticError(f"cannot execute {statement!r}")
        return getattr(self, run)(statement)

    # -- candidate streams ------------------------------------------------------------

    def _columnar_stream(self, chunk: Any, variable: str,
                         as_of: Optional[Instant], through: Optional[Instant],
                         now: Instant, conjuncts: Sequence[Expression],
                         kernel: Optional[_WhenKernel]
                         ) -> PyTuple[int, PyTuple[Any, ...]]:
        """Source one variable's stream through the columnar kernels.

        Returns ``(pre-pushdown count, filtered candidates)``, *kernel*
        applied.  Filter order matches the naive path — visibility,
        then pushed conjuncts in clause order restricted to surviving
        rows, then the ``when`` kernel — so error behavior (an untypable
        comparison, say) is identical row for row.
        """
        rows = chunk.rows
        make = None  # a temporal chunk's rows are candidates as stored
        if chunk.tt is None:  # historical: candidates are all recorded facts
            indices = chunk.mask_indices(chunk.all_mask())
            make = lambda row: (row.data, row.valid, None)  # noqa: E731
        else:
            if through is not None:
                mask = chunk.tt_overlap_mask(
                    Period.from_inclusive(as_of, through))
            else:
                # No as-of: the current state, which is exactly the rows
                # whose transaction time contains now (open partition).
                mask = chunk.tt_stab_mask(as_of if as_of is not None else now)
            indices = chunk.mask_indices(mask)
            if chunk.valid is None:
                # rollback: a static result, one candidate per tuple
                first: Dict[Tuple, int] = {}
                for i in indices:
                    first.setdefault(rows[i].data, i)
                indices = list(first.values())
                make = lambda row: (row.data, None, None)  # noqa: E731
        pre_count = len(indices)
        for conjunct in conjuncts:
            spec = columnar_compare_spec(conjunct, variable)
            if spec is not None:
                name, op, value, attr_on_left = spec
                indices = chunk.compare_select(indices, name, op, value,
                                               attr_on_left)
            else:
                # Every chunk row carries its data tuple first, as a
                # candidate does.
                keep = self._filter(variable, [conjunct])
                indices = [i for i in indices if keep(rows[i])]
        if kernel is not None:
            if chunk.valid is None or kernel.constant is None:
                # No valid axis / empty constant: the predicate is false
                # for every row (eval_temporal_predicate on None periods).
                indices = []
            else:
                mask = chunk.when_mask(kernel.op, kernel.constant,
                                       kernel.var_on_left)
                indices = [i for i in indices if mask[i]]
        selected = (rows[i] for i in indices)
        return pre_count, tuple(map(make, selected) if make else selected)

    # -- compiling and sourcing a statement ------------------------------------------

    def _resolver(self, slots: Mapping[str, Optional[int]]) -> Resolver:
        """Attribute references as positional getters, resolved once.

        *slots* maps each bound range variable to its place in a binding —
        or to ``None`` when the bound row is that variable's candidate
        itself (a pushed conjunct filters one stream before the product).
        """
        def resolve(variable: Optional[str], name: str):
            slot = slots[variable]
            position = self._db.schema(self._ranges[variable]).position(name)
            if slot is None:
                return lambda candidate: candidate[0].values[position]
            return lambda binding: binding[slot][0].values[position]
        return resolve

    def _filter(self, variable: str, conjuncts: Sequence[Expression]
                ) -> Callable[[Any], Any]:
        """Conjuncts over one variable as one test over its candidate."""
        return functools.reduce(And, conjuncts).compile(
            self._resolver({variable: None}))

    def _prepare(self, statement: RetrieveStmt, cache: Any) -> _Prepared:
        """Settle everything a retrieve fixes before rows flow — the one
        code path behind :meth:`retrieve` and :meth:`explain`: read the
        clock, fold the transaction-time bounds and the ``when``, split
        the ``where`` for pushdown, then plan and source each range
        variable's candidate stream, through *cache* (the result cache,
        keyed ``(relation, as-of pin, predicate fingerprint)``) if given.
        """
        shape = self.shape(statement)
        now = self._db.now()
        as_of = through = None
        if statement.as_of is not None:
            as_of = eval_bound(statement.as_of, {}, now)
        if statement.as_of_through is not None:
            through = eval_bound(statement.as_of_through, {}, now)
            if as_of is not None and through is not None and through < as_of:
                raise TQuelSemanticError(
                    f"as of {as_of} through {through}: the range runs "
                    f"backwards"
                )
        db = self._db
        # Selection pushdown: single-variable conjuncts filter their
        # stream before the product is formed.
        pushdown, residual = partition_pushdown(statement.where)
        when = (fold_temporal(statement.when, now)
                if statement.when is not None else None)
        folded_kernel = when_kernel(when)
        streams = {}
        for variable in shape.slots:
            relation = self._ranges[variable]
            conjuncts = pushdown.get(variable, [])
            keyed = self._keyed(relation, variable, conjuncts, now, as_of,
                                through)
            if keyed is not None:
                # One probe is cheaper than looking its answer up in the
                # result cache.
                plan = AccessPlan("index", "key lookup: " + ", ".join(
                    db.schema(relation).key) + " bound by =")
                streams[variable] = self._stream(plan, keyed, variable,
                                                 conjuncts)
                continue
            chunk = kernel = None
            if self._plan == "columnar" and db.columnar_cache is not None:
                chunk = db.columnar_cache.chunk(relation)
            if (chunk is not None and folded_kernel is not None
                    and folded_kernel.variable == variable):
                kernel, when = folded_kernel, None  # (the stream answers it)
            stream = key = None
            if cache is not None and not (kernel is not None
                                          and kernel.clock_dependent):
                # (a clock-dependent stream goes stale without any commit)
                tt_key = (f"{as_of if as_of is not None else 'now'}"
                          f"|{through if through is not None else '-'}")
                when_part = (
                    f"{kernel.op}:{kernel.constant}:{kernel.var_on_left}"
                    if kernel is not None else "-")
                key = (relation, tt_key, "|".join(
                    [str(db.kind), self._plan,
                     ";".join(repr(c) for c in conjuncts), when_part]))
                stream = cache.get(*key)
            if stream is None and chunk is not None:
                stream = (plan_of(self._plan, "columnar"),
                          *self._columnar_stream(chunk, variable, as_of,
                                                 through, now, conjuncts,
                                                 kernel),
                          db.access(as_of, through))
            elif stream is None:
                read = db.read(relation, now, as_of, through,
                               indexed=self._plan in ("auto", "index"))
                stream = self._stream(
                    plan_of(self._plan, "index" if read.indexed else "naive"),
                    read, variable, conjuncts)
            else:
                key = None  # (a hit: nothing to put back)
            if key is not None:
                cache.put(*key, stream, self._immutable_result(
                    relation, as_of, through, stream[2]))
            streams[variable] = stream
        return _Prepared(shape, now, as_of, through, pushdown, residual,
                         when, streams)

    def _keyed(self, relation: str, variable: str,
               conjuncts: Sequence[Expression], now: Instant,
               as_of: Optional[Instant], through: Optional[Instant]
               ) -> Optional[Read]:
        """The store's read under the key the conjuncts pin, where a probe
        answers (:func:`key_binding`): a narrowing the conjuncts still
        run over.  Never under a forced plan (``naive`` is its oracle)."""
        bound = (key_binding(self._db.schema(relation), conjuncts, variable)
                 if self._plan == "auto" else None)
        return bound and self._db.read(relation, now, as_of, through, bound)

    def _stream(self, plan: AccessPlan, read: Read, variable: str,
                conjuncts: Sequence[Expression]
                ) -> PyTuple[AccessPlan, int, PyTuple[Any, ...], str]:
        """One variable's stream from a store's read: the plan, the
        candidates examined, those the pushed conjuncts keep, and the
        access path in ``explain``'s words."""
        candidates = read.candidates
        if conjuncts:
            candidates = filter(self._filter(variable, conjuncts), candidates)
        return plan, len(read.candidates), tuple(candidates), read.access

    def _immutable_result(self, relation: str, as_of: Optional[Instant],
                          through: Optional[Instant],
                          candidates: Sequence[Any]) -> bool:
        """Can this stream never change again (cache-forever eligible)?

        Two conditions (see ``docs/QUERY_PLANNING.md``):

        - the transaction-time pin lies at or before the relation's last
          commit — commit times strictly increase, so every future commit
          happens strictly after the pin and can neither add rows visible
          at it nor remove any;
        - every contributing transaction period is already closed — an
          *open* row stays visible at the pin after it closes, but its
          recorded transaction period changes from ``[s, ∞)`` to
          ``[s, t)``, which §4.4 requires the result to retain.
        """
        pin = through if through is not None else as_of
        if pin is None or not pin.is_finite:
            return False
        last = self._db.last_change(relation)
        if last is None:
            return False
        try:
            if not pin <= last:
                return False
        except Exception:  # incomparable granularities: stay epoch-bound
            return False
        # A store lists its open rows last: from that end, the first row
        # usually answers.
        return not any(tt is not None and tt.hi == math.inf
                       for _, _, tt in reversed(candidates))

    # -- explain -------------------------------------------------------------------------

    def explain(self, statement: RetrieveStmt) -> Dict[str, Any]:
        """Describe how a retrieve would run, without running the product.

        Returns a plain dict: the candidate source per range variable
        (with counts before/after selection pushdown), the residual
        predicate, the temporal clauses in force, and the result kind.
        ``Session.explain`` renders it as text.  The streams come from the
        very code :meth:`retrieve` runs (short of the result cache), so
        what is reported is what would execute.
        """
        if not isinstance(statement, RetrieveStmt):
            raise TQuelSemanticError("only retrieve statements are explained")
        prepared = self._prepare(statement, None)
        as_of, through = prepared.as_of, prepared.through
        variables = {}
        product = 1
        for variable, (plan, examined, candidates,
                       access) in prepared.streams.items():
            variables[variable] = {
                "relation": self._ranges[variable],
                "candidates": examined,
                "after_pushdown": len(candidates),
                "pushed_conjuncts": len(prepared.pushdown.get(variable, [])),
                "index": access,
                "plan": plan.path,
                "plan_reason": plan.reason,
            }
            product *= len(candidates)
        return {
            "database_kind": str(self._db.kind),
            "planner_mode": self._plan,
            "variables": variables,
            "product_size": product,
            "residual_conjuncts": len(prepared.residual),
            "when": statement.when is not None,
            "valid_clause": statement.valid is not None,
            "as_of": str(as_of) if as_of is not None else None,
            "through": str(through) if through is not None else None,
            "result_kind": (
                "static (aggregate)" if _has_aggregates(statement.targets)
                else _RESULT_KINDS[prepared.shape.result_type]),
        }

    # -- retrieve ------------------------------------------------------------------------

    def retrieve(self, statement: RetrieveStmt) -> Result:
        """Run a retrieve: compile the statement once, then one straight
        loop over the bindings, whatever the kind, the number of range
        variables or the targets."""
        prepared = self._prepare(
            statement, self._db.result_cache if self._plan == "auto" else None)
        metrics = _obs.current().metrics
        for plan, _, _, _ in prepared.streams.values():
            metrics.counter(f"tquel.plan.{plan.path}").inc()
        metrics.counter("tquel.candidates_enumerated").inc(
            sum(stream[1] for stream in prepared.streams.values()))

        shape = prepared.shape
        resolve = self._resolver(shape.slots)
        bindings = itertools.product(
            *(stream[2] for stream in prepared.streams.values()))
        if prepared.residual:
            bindings = filter(functools.reduce(And, prepared.residual)
                              .compile(resolve), bindings)
        if prepared.when is not None:
            bindings = filter(compile_when(prepared.when, shape.slots,
                                           prepared.now), bindings)
        # Every binding is tested before any row is assembled: a failing
        # test is reported ahead of a failing target.
        bindings = list(bindings)

        if _has_aggregates(statement.targets):
            rows = self._aggregate_rows(statement.targets, shape.schema,
                                        resolve, bindings)
        else:
            rows = self._rows(statement, resolve, prepared, bindings)
        try:
            result = shape.result_type(shape.schema, rows)
        except ConstraintViolation:  # (a temporal result opening a fact twice)
            result = TemporalRelation(shape.schema, _earliest_open(rows))
        if statement.sort_by and shape.result_type is Relation:
            result = result.sort(list(statement.sort_by))
        metrics.counter("tquel.rows_emitted").inc(len(result))
        if statement.into is not None:
            self._materialize(statement.into, result)
        return result

    def shape(self, statement: RetrieveStmt) -> RetrieveShape:
        """*statement*'s shape, as its analysis filed it; else built now."""
        template = getattr(statement, "template", None)
        if template is not None:
            filed = template[0].get(shape_key(self._db, self._ranges))
            if filed is not None:
                return filed[1]
        slots = {variable: slot for slot, variable
                 in enumerate(self._used_variables(statement))}
        db = self._db
        schema = self._result_schema(statement.targets)
        return RetrieveShape(
            slots,
            tuple(sorted({slots[variable] for variable
                          in self._target_variables(statement.targets)
                          if variable is not None} or slots.values())),
            schema,
            Relation if (_has_aggregates(statement.targets)
                         or not db.supports_historical_queries)
            else TemporalRelation if db.supports_rollback
            else HistoricalRelation,
            self._projection(statement, schema, slots))

    def _used_variables(self, statement: RetrieveStmt) -> List[str]:
        """Every range variable the statement mentions, first mention first
        (targets, ``where``, ``when``, ``valid``)."""
        found = self._target_variables(statement.targets)
        if statement.where is not None:
            found += [variable for variable, _
                      in statement.where.references()]
        valid = statement.valid
        for clause in (statement.when,) + (
                (valid.at, valid.from_, valid.to) if valid is not None else ()):
            if clause is not None:
                found += sorted(temporal_variables(clause))
        return [variable for variable in dict.fromkeys(found)
                if variable is not None]

    @staticmethod
    def _target_variables(targets: Sequence[TargetItem]) -> List[str]:
        found: List[str] = []
        for target in targets:
            expr = (target.expr.operand
                    if isinstance(target.expr, AggCall) else target.expr)
            if expr is not None:
                found += [variable for variable, _ in expr.references()]
        return found

    # -- result assembly -------------------------------------------------------------------

    def _result_schema(self, targets: Sequence[TargetItem]) -> Schema:
        attributes = []
        for target in targets:
            if isinstance(target.expr, AggCall):
                domain = (Domain.INTEGER if target.expr.func == "count"
                          else Domain.FLOAT)
            else:
                domain = self._infer_domain(target.expr)
            attributes.append(Attribute(target.name, domain, nullable=True))
        return Schema(attributes)

    def _infer_domain(self, expr: Expression) -> Domain:
        if isinstance(expr, AttrRef) and expr.variable is not None:
            schema = self._db.schema(self._ranges[expr.variable])
            return schema.attribute(expr.name).domain
        if isinstance(expr, Const):
            return next((domain for kind, domain in _CONST_DOMAINS
                         if isinstance(expr.value, kind)), Domain.ANY)
        if isinstance(expr, (Comparison, And, Or, Not, IsNull)):
            return Domain.BOOLEAN
        if isinstance(expr, BinaryOp):
            left = self._infer_domain(expr.left)
            right = self._infer_domain(expr.right)
            if Domain.STRING in (left, right):
                return Domain.STRING
            if left == Domain.INTEGER and right == Domain.INTEGER \
                    and expr.op != "/":
                return Domain.INTEGER
            if {left, right} <= {Domain.INTEGER, Domain.FLOAT}:
                return Domain.FLOAT
            return Domain.ANY
        return Domain.ANY

    def _projection(self, statement: RetrieveStmt, schema: Schema,
                    slots: Mapping[str, int]
                    ) -> Optional[Callable[[Any], Any]]:
        """For a **projection** — one range variable, no ``valid`` clause,
        every target a bare attribute of it whose result domain *is* (not
        ``==``: equal domains may admit different values) the stored one,
        against which each value was checked when stored — one C-level
        getter from a stored tuple's ``values`` to the row's; else None."""
        if len(slots) != 1 or statement.valid is not None:
            return None
        (variable,) = slots
        stored = self._db.schema(self._ranges[variable])
        positions = []
        for target, attribute in zip(statement.targets, schema):
            expr = target.expr
            if not (isinstance(expr, AttrRef) and expr.variable == variable
                    and attribute.domain is stored.attribute(expr.name).domain):
                return None
            positions.append(stored.position(expr.name))
        start, stop = positions[0], positions[0] + len(positions)
        if positions == list(range(start, stop)):  # (a slice of one, too)
            return operator.itemgetter(slice(start, stop))
        return operator.itemgetter(*positions)

    def _rows(self, statement: RetrieveStmt, resolve: Resolver,
              prepared: _Prepared, bindings) -> List[Any]:
        """The result rows: one straight loop over the bindings, its row
        values, row constructor and period sources chosen per statement.

        A row is its values — a projection's copied (:meth:`_projection`),
        other targets compiled to positional getters and checked against
        the result schema — and, with valid time, the derived periods: the
        ``valid`` clause, else the intersection of the valid times of the
        target list's range variables (§4.3; of every variable, if the
        targets name none; of one, its candidate's own), and on a temporal
        database the intersection of their transaction times, retained,
        not clipped (§4.4).  A row of one candidate and no ``valid``
        clause takes that candidate's periods, all rows in one C-level
        pass.
        """
        shape = prepared.shape
        schema, slots = shape.schema, shape.row_slots
        if len(slots) == 1:
            candidates = list(map(operator.itemgetter(*slots), bindings))

            def axis(number: int) -> Iterator[Any]:
                return map(operator.itemgetter(number), candidates)
        else:
            def axis(number: int) -> Iterator[Any]:
                return map(_intersection, bindings, itertools.repeat(slots),
                           itertools.repeat(number))
        if shape.projection is not None:  # (one variable: *candidates*)
            values, make = shape.projection, Tuple.from_checked
            sources = [candidate[0].values for candidate in candidates]
        else:
            targets = [target.expr.compile(resolve)
                       for target in statement.targets]
            sources, make = bindings, Tuple.from_sequence

            def values(binding) -> List[Any]:
                return [value(binding) for value in targets]
        if shape.result_type is Relation:
            return list(map(make, itertools.repeat(schema),
                            map(values, sources)))

        valid, now = statement.valid, prepared.now
        if valid is not None:
            if valid.is_event:
                bounds = [fold_temporal(valid.at, now, eval_bound)]

                def period(at: Instant) -> Optional[Period]:
                    return Period.at(at) if at.is_finite else None
            else:
                bounds = [fold_temporal(valid.from_, now, eval_bound),
                          fold_temporal(valid.to, now, eval_bound)
                          if valid.to is not None else _Folded(POS_INF)]

                def period(start: Instant, end: Instant) -> Optional[Period]:
                    return Period(start, end) if start < end else None

            def clause(binding) -> Optional[Period]:
                periods = _periods(shape.slots, binding)
                return _lifted(period, [eval_bound(bound, periods, now)
                                        for bound in bounds])
            valids = map(clause, bindings)
        elif bindings and all(bindings[0][slot][1] is None for slot in slots):
            # No valid-time axis (a stream's candidates share one shape).
            valids = itertools.repeat(Period.always())
        else:
            valids = axis(1)
        historical = shape.result_type is HistoricalRelation
        if valid is None and len(slots) == 1:
            # Each row's periods are its candidate's, never empty.
            data = map(make, itertools.repeat(schema), map(values, sources))
            return list(map(tuple.__new__, itertools.repeat(
                HistoricalRow if historical else BitemporalRow),
                zip(data, valids) if historical
                else zip(data, valids, axis(2))))
        tts = itertools.repeat(None) if historical else axis(2)
        rows: List[Any] = []
        for source, validity, tt in zip(sources, valids, tts):
            if validity is None:
                continue
            data = make(schema, values(source))
            if historical:
                rows.append(HistoricalRow(data, validity))
            elif tt is not None:
                rows.append(BitemporalRow(data, validity, tt))
        return rows

    def _aggregate_rows(self, targets: Sequence[TargetItem], schema: Schema,
                        resolve: Resolver, bindings) -> List[Tuple]:
        """Group the bindings by the non-aggregate targets and apply the
        aggregates to each group, all before any row is domain-checked
        (the error raised must not hang on the plan's candidate order)."""
        group_targets = [t for t in targets if not isinstance(t.expr, AggCall)]
        keys = [t.expr.compile(resolve) for t in group_targets]
        aggregates = [
            (t.name, t.expr, (t.expr.operand.compile(resolve)
                              if t.expr.operand is not None else None))
            for t in targets if isinstance(t.expr, AggCall)]
        groups: Dict[PyTuple[Any, ...], List[Any]] = {}
        for binding in bindings:
            groups.setdefault(tuple([key(binding) for key in keys]),
                              []).append(binding)
        if not group_targets and not groups:
            groups[()] = []
        computed = []
        for key, members in groups.items():
            values: Dict[str, Any] = dict(zip(
                (t.name for t in group_targets), key))
            for name, call, operand in aggregates:
                values[name] = self._apply_aggregate(call, operand, members)
            computed.append(values)
        return [Tuple(schema, values) for values in computed]

    @staticmethod
    def _apply_aggregate(call: AggCall, operand, members: List[Any]) -> Any:
        if operand is None:
            return len(members)
        values = [value for value in map(operand, members)
                  if value is not None]
        if call.unique:
            values = list(dict.fromkeys(values))
        try:
            return REDUCERS[call.func](values)
        except KeyError:
            raise TQuelSemanticError(
                f"unknown aggregate {call.func!r}") from None

    def _materialize(self, name: str, result: Result) -> None:
        """Store a derived relation under a new name (``retrieve into``)."""
        self._db.define(name, result.schema)
        if isinstance(result, Relation):
            bounds = ({"valid_from": NEG_INF}
                      if self._db.kind.supports_historical_queries else {})
            inserts = [(dict(row), bounds) for row in result]
        else:
            # Historical / temporal results: re-insert with their validity.
            rows = (result.rows if isinstance(result, HistoricalRelation)
                    else result.current().rows)
            inserts = [(dict(row.data), {"valid_from": row.valid.start,
                                         "valid_to": row.valid.end})
                       for row in rows]

        def expand(batch: Transaction) -> None:
            for values, valid in inserts:
                self._db.insert(name, values, txn=batch, **valid)

        if inserts:
            self._db.commit_unit(expand)

    # -- updates -----------------------------------------------------------------------------

    def _valid_arguments(self, valid: Optional[ValidClause],
                         now: Instant) -> Dict[str, Any]:
        if valid is None:
            return {}
        if valid.is_event:
            return {"valid_at": eval_bound(valid.at, {}, now)}
        arguments: Dict[str, Any] = {
            "valid_from": eval_bound(valid.from_, {}, now)}
        if valid.to is not None:
            arguments["valid_to"] = eval_bound(valid.to, {}, now)
        return arguments

    def _coerce_values(self, relation: str,
                       raw: Mapping[str, Any]) -> Dict[str, Any]:
        """Parse string literals into non-string domains (dates, numbers)."""
        schema = self._db.schema(relation)
        coerced = {}
        for name, value in raw.items():
            domain = schema.attribute(name).domain
            if isinstance(value, str) and not domain.contains(value):
                coerced[name] = domain.parse(value)
            else:
                coerced[name] = value
        return coerced

    def _append(self, statement: AppendStmt) -> Instant:
        values = {name: expr.evaluate({})
                  for name, expr in statement.assignments}
        values = self._coerce_values(statement.relation, values)
        arguments = self._valid_arguments(statement.valid, self._db.now())
        return self._db.insert(statement.relation, values, **arguments)

    def _matching_rows(self, statement) -> List[Tuple]:
        variable = statement.variable
        relation = self._ranges[variable]
        conjuncts = split_conjuncts(statement.where)
        now = self._db.now()
        read = (self._keyed(relation, variable, conjuncts, now, None, None)
                or self._db.read(relation, now))
        candidates = read.candidates
        if conjuncts:
            candidates = filter(self._filter(variable, conjuncts), candidates)
        return list(dict.fromkeys(candidate[0] for candidate in candidates))

    def _delete(self, statement: DeleteStmt) -> Optional[Instant]:
        relation = self._ranges[statement.variable]
        arguments = self._valid_arguments(statement.valid, self._db.now())

        def expand(batch: Transaction) -> None:
            for row in self._matching_rows(statement):
                self._db.delete(relation, dict(row), txn=batch, **arguments)

        return self._db.commit_unit(expand)

    def _replace(self, statement: ReplaceStmt) -> Optional[Instant]:
        relation = self._ranges[statement.variable]
        arguments = self._valid_arguments(statement.valid, self._db.now())

        def expand(batch: Transaction) -> None:
            for row in self._matching_rows(statement):
                env = {statement.variable: row}
                updates = {name: expr.evaluate(env)
                           for name, expr in statement.assignments}
                updates = self._coerce_values(relation, updates)
                self._db.replace(relation, dict(row), updates, txn=batch,
                                 **arguments)

        return self._db.commit_unit(expand)

    def _create(self, statement: CreateStmt) -> Instant:
        attributes = []
        for name, type_name in statement.attributes:
            if type_name == "date":
                domain = Domain.user_defined_time(name)
            else:
                domain = _TYPE_MAP[type_name]
            attributes.append(Attribute(name, domain))
        schema = Schema(attributes, key=statement.key or None)
        if statement.event:
            return self._db.define(statement.relation, schema, event=True)
        return self._db.define(statement.relation, schema)
