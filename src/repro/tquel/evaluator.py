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

**Access paths and the equivalence obligation.**  Candidate rows can be
sourced three ways — a naive row-at-a-time scan, an interval-tree probe,
or the vectorized mask kernels of :mod:`repro.core.columnar` — chosen per
range variable by :mod:`repro.tquel.planner` (or forced via the ``plan``
knob).  The naive path is the executable specification: every other path
must yield the *same candidate multiset* for the same statement, and
every vectorized kernel (transaction-time stab/overlap, ``when``
comparison, attribute-comparison pushdown, compiled projection) owes
row-for-row agreement with its scalar twin, including null semantics and
raised error types.  The randomized differential suite
(``tests/tquel/test_differential.py``) runs every query shape under all
forced plans and asserts identical results.

In ``auto`` mode the evaluator also consults the database's
:class:`~repro.core.resultcache.ResultCache`: filtered candidate streams
keyed by ``(relation, as-of pin, predicate fingerprint)`` are cached
forever when the pin lies in the immutable (closed) past and
epoch-invalidated otherwise, so a commit to an open store can never
serve a stale as-of answer.
"""

from __future__ import annotations

import itertools
from typing import (Any, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Set, Tuple as PyTuple, Union)

from repro.core.base import Database
from repro.core.historical import HistoricalDatabase, HistoricalRelation, HistoricalRow
from repro.core.rollback import RollbackDatabase
from repro.core.temporal import BitemporalRow, TemporalDatabase, TemporalRelation
from repro.core.transaction_time import TransactionTimeStore
from repro.errors import TQuelSemanticError
from repro.obs import runtime as _obs
from repro.relational.domain import Domain
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, IsNull, Not, Or,
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
from repro.tquel import planner as _planner
from repro.txn.transaction import OperationRecorder

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


class _Candidate(NamedTuple):
    """One candidate binding for a range variable."""

    data: Tuple
    valid: Optional[Period]
    tt: Optional[Period]


# ---------------------------------------------------------------------------
# Temporal expression / predicate evaluation
# ---------------------------------------------------------------------------

def eval_period(expr: TemporalExpr, periods: Mapping[str, Period],
                now: Instant) -> Optional[Period]:
    """Evaluate a temporal expression to a period (None = empty overlap)."""
    if isinstance(expr, TVar):
        return periods[expr.variable]
    if isinstance(expr, TNow):
        return Period.at(now)
    if isinstance(expr, TConst):
        if expr.literal == "forever":
            raise TQuelSemanticError(
                "'forever' may only appear as a valid/as-of bound"
            )
        if expr.literal == "beginning":
            raise TQuelSemanticError(
                "'beginning' may only appear as a valid/as-of bound"
            )
        return Period.at(Instant.parse(expr.literal))
    if isinstance(expr, TStartOf):
        inner = eval_period(expr.operand, periods, now)
        if inner is None:
            return None
        if not inner.start.is_finite:
            raise TQuelSemanticError(
                f"start of {inner} is unbounded"
            )
        return inner.start_of()
    if isinstance(expr, TEndOf):
        inner = eval_period(expr.operand, periods, now)
        if inner is None:
            return None
        if not inner.end.is_finite:
            raise TQuelSemanticError(f"end of {inner} is unbounded")
        return inner.end_of()
    if isinstance(expr, TOverlap):
        left = eval_period(expr.left, periods, now)
        right = eval_period(expr.right, periods, now)
        if left is None or right is None:
            return None
        return left.intersect(right)
    if isinstance(expr, TExtend):
        left = eval_period(expr.left, periods, now)
        right = eval_period(expr.right, periods, now)
        if left is None or right is None:
            return None
        return left.extend(right)
    raise TQuelSemanticError(f"unknown temporal expression {expr!r}")


def eval_bound(expr: TemporalExpr, periods: Mapping[str, Period],
               now: Instant) -> Optional[Instant]:
    """Evaluate a temporal expression as an instant bound.

    Uniform rule: a bound is the **start** of the denoted period;
    ``forever``/``beginning`` denote the infinities.  Returns ``None`` when
    an ``overlap(...)`` operand is empty (the candidate is filtered out).
    """
    if isinstance(expr, TConst) and expr.literal == "forever":
        return POS_INF
    if isinstance(expr, TConst) and expr.literal == "beginning":
        return NEG_INF
    if isinstance(expr, TEndOf):
        # `to end of e` should cover e's last chronon: resolve to e.end.
        inner = eval_period(expr.operand, periods, now)
        if inner is None:
            return None
        if not inner.end.is_finite:
            return POS_INF
        return inner.end
    period = eval_period(expr, periods, now)
    if period is None:
        return None
    return period.start


def eval_temporal_predicate(predicate: TemporalPredicate,
                            periods: Mapping[str, Period],
                            now: Instant) -> bool:
    """Evaluate a ``when`` predicate under the row's valid periods."""
    if isinstance(predicate, TPCompare):
        left = eval_period(predicate.left, periods, now)
        right = eval_period(predicate.right, periods, now)
        if left is None or right is None:
            return False
        # The paper's three operators...
        if predicate.op == "overlap":
            return left.overlaps(right)
        if predicate.op == "precede":
            return left.precedes(right)
        if predicate.op == "equal":
            return left == right
        # ...and the Allen-style extensions:
        # meets    — left ends exactly where right begins;
        # before   — strictly earlier, with a gap (precede minus meets);
        # after    — the converse of before;
        # during   — left contained in right (shared endpoints allowed);
        # starts   — contained and sharing the start;
        # finishes — contained and sharing the end.
        if predicate.op == "meets":
            return left.meets(right)
        if predicate.op == "before":
            return left.precedes(right) and not left.meets(right)
        if predicate.op == "after":
            return right.precedes(left) and not right.meets(left)
        if predicate.op == "during":
            return right.contains_period(left)
        if predicate.op == "starts":
            return right.contains_period(left) and left.start == right.start
        if predicate.op == "finishes":
            return right.contains_period(left) and left.end == right.end
        raise TQuelSemanticError(f"unknown temporal operator {predicate.op!r}")
    if isinstance(predicate, TPAnd):
        return (eval_temporal_predicate(predicate.left, periods, now)
                and eval_temporal_predicate(predicate.right, periods, now))
    if isinstance(predicate, TPOr):
        return (eval_temporal_predicate(predicate.left, periods, now)
                or eval_temporal_predicate(predicate.right, periods, now))
    if isinstance(predicate, TPNot):
        return not eval_temporal_predicate(predicate.operand, periods, now)
    raise TQuelSemanticError(f"unknown temporal predicate {predicate!r}")


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
        if len(variables) == 1:
            (variable,) = variables
            if variable is not None:
                per_variable.setdefault(variable, []).append(conjunct)
                continue
        residual.append(conjunct)
    return per_variable, residual


def temporal_variables(node) -> Set[str]:
    """Every range variable a temporal expression/predicate mentions."""
    if isinstance(node, TVar):
        return {node.variable}
    if isinstance(node, (TStartOf, TEndOf)):
        return temporal_variables(node.operand)
    if isinstance(node, (TOverlap, TExtend, TPCompare, TPAnd, TPOr)):
        return temporal_variables(node.left) | temporal_variables(node.right)
    if isinstance(node, TPNot):
        return temporal_variables(node.operand)
    return set()


def contains_now(node) -> bool:
    """Does a temporal expression read the clock (``now``)?

    A clock-dependent kernel constant makes a cached stream stale the
    moment the clock moves, even without a commit — so such streams are
    never result-cached.
    """
    if isinstance(node, TNow):
        return True
    if isinstance(node, (TStartOf, TEndOf, TPNot)):
        return contains_now(node.operand)
    if isinstance(node, (TOverlap, TExtend, TPCompare, TPAnd, TPOr)):
        return contains_now(node.left) or contains_now(node.right)
    return False


#: The ``when`` operators with a vectorized kernel in
#: :meth:`repro.core.columnar.ColumnarChunk.when_mask` — exactly the set
#: :func:`eval_temporal_predicate` accepts, so an unknown operator always
#: raises through the naive path instead of a kernel ``KeyError``.
_WHEN_KERNEL_OPS = frozenset((
    "overlap", "precede", "equal", "meets", "before", "after", "during",
    "starts", "finishes",
))


class _WhenKernel(NamedTuple):
    """A compiled, kernel-eligible ``when`` clause.

    Eligible means: the clause is a single ``TPCompare`` with exactly one
    side being a bare range variable and the other side a constant
    temporal expression (no range variables), so the predicate can run
    as one vectorized mask over that variable's valid column.  ``constant
    is None`` records an empty ``overlap(...)`` constant — the predicate
    is then false for every row, exactly as
    :func:`eval_temporal_predicate` would report.
    """

    variable: str
    op: str
    constant: Optional[Period]
    var_on_left: bool
    #: Did the constant read ``now``?  Clock-dependent streams are never
    #: result-cached (the clock can move without a commit).
    clock_dependent: bool


def when_kernel_spec(statement: RetrieveStmt,
                     now: Instant) -> Optional[_WhenKernel]:
    """Compile the ``when`` clause to a :class:`_WhenKernel`, if eligible."""
    when = statement.when
    if not isinstance(when, TPCompare) or when.op not in _WHEN_KERNEL_OPS:
        return None
    left_is_var = isinstance(when.left, TVar)
    right_is_var = isinstance(when.right, TVar)
    if left_is_var == right_is_var:
        return None
    var_side, const_side = ((when.left, when.right) if left_is_var
                            else (when.right, when.left))
    if temporal_variables(const_side):
        return None
    try:
        constant = eval_period(const_side, {}, now)
    except TQuelSemanticError:
        # Constants eval_period rejects (bare `forever` etc.) must raise
        # identically per row — leave them to the naive predicate.
        return None
    return _WhenKernel(var_side.variable, when.op, constant, left_is_var,
                       contains_now(const_side))


def columnar_compare_spec(conjunct: Expression, variable: str
                          ) -> Optional[PyTuple[str, str, Any, bool]]:
    """The ``(attr, op, value, attr_on_left)`` kernel form of a conjunct.

    Only a direct attribute-vs-literal comparison vectorizes; anything
    else (arithmetic, attr-vs-attr, ``is null``, disjunctions) runs
    per-row through the expression AST on the already-selected indices.
    """
    if not isinstance(conjunct, Comparison):
        return None
    left, right = conjunct.left, conjunct.right
    if (isinstance(left, AttrRef) and left.variable == variable
            and isinstance(right, Const)):
        return (left.name, conjunct.op, right.value, True)
    if (isinstance(right, AttrRef) and right.variable == variable
            and isinstance(left, Const)):
        return (right.name, conjunct.op, left.value, False)
    return None


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class Evaluator:
    """Executes statements against one database and a range environment.

    ``plan`` selects the access path for every range variable:
    ``"auto"`` (cost-based, the default) or a forced
    ``"naive"``/``"index"``/``"columnar"`` for debugging and differential
    testing.  Only ``auto`` consults the result cache — forced plans must
    exercise their path, not a memo of it.
    """

    def __init__(self, database: Database, ranges: Mapping[str, str],
                 plan: str = "auto") -> None:
        self._db = database
        self._ranges = dict(ranges)
        self.plan = plan

    @property
    def plan(self) -> str:
        """The plan mode (one of :data:`repro.tquel.planner.PLAN_MODES`)."""
        return self._plan

    @plan.setter
    def plan(self, mode: str) -> None:
        if mode not in _planner.PLAN_MODES:
            raise ValueError(
                f"plan must be one of {', '.join(_planner.PLAN_MODES)}; "
                f"got {mode!r}")
        self._plan = mode

    # -- dispatch ------------------------------------------------------------------

    def execute(self, statement: Statement) -> Result:
        """Execute one (already analyzed) statement."""
        if isinstance(statement, RangeStmt):
            self._ranges[statement.variable] = statement.relation
            return None
        if isinstance(statement, RetrieveStmt):
            return self.retrieve(statement)
        if isinstance(statement, AppendStmt):
            return self._append(statement)
        if isinstance(statement, DeleteStmt):
            return self._delete(statement)
        if isinstance(statement, ReplaceStmt):
            return self._replace(statement)
        if isinstance(statement, CreateStmt):
            return self._create(statement)
        if isinstance(statement, DestroyStmt):
            return self._db.drop(statement.relation)
        raise TQuelSemanticError(f"cannot execute {statement!r}")

    # -- candidate streams ------------------------------------------------------------

    def _candidates(self, relation: str, as_of: Optional[Instant],
                    through: Optional[Instant] = None) -> List[_Candidate]:
        """The candidate rows of one relation, per database kind.

        ``through`` (with ``as_of``) selects the transaction-time *range*
        form: everything that was part of some state between the two
        instants, inclusive.
        """
        db = self._db
        if isinstance(db, TemporalDatabase):
            if through is not None:
                ranged = db.rollback_range(relation, as_of, through)
                return [_Candidate(row.data, row.valid, row.tt)
                        for row in ranged.rows]
            when = as_of if as_of is not None else db.now()
            # db.visible stabs the transaction-time index when the
            # database keeps one (O(log n + k)); otherwise it scans.
            return [
                _Candidate(row.data, row.valid, row.tt)
                for row in db.visible(relation, when)
            ]
        if isinstance(db, HistoricalDatabase):
            return [_Candidate(row.data, row.valid, None)
                    for row in db.history(relation).rows]
        if isinstance(db, RollbackDatabase):
            if through is not None:
                base = db.rollback_range(relation, as_of, through)
            elif as_of is not None:
                base = db.rollback(relation, as_of)
            else:
                base = db.snapshot(relation)
            return [_Candidate(row, None, None) for row in base]
        return [_Candidate(row, None, None)
                for row in db.snapshot(relation)]

    def _candidates_naive(self, relation: str, as_of: Optional[Instant],
                          through: Optional[Instant] = None
                          ) -> List[_Candidate]:
        """The raw-scan twin of :meth:`_candidates`.

        Same rows in store order, but sourced by walking every stored row
        and testing the temporal clauses per row — never through an
        interval tree.  This is the executable specification the index
        and columnar paths are differentially tested against.
        """
        db = self._db
        store = db.store(relation) if isinstance(db, Database) else None
        if isinstance(store, TransactionTimeStore):
            if through is None:
                when = as_of if as_of is not None else db.now()
                rows = [row for row in store.rows if row.tt.contains(when)]
            elif as_of is None:  # degenerate bound: mirror the legacy path
                return self._candidates(relation, as_of, through)
            else:
                window = Period.from_inclusive(as_of, through)
                rows = [row for row in store.rows if row.tt.overlaps(window)]
            if isinstance(store, TemporalRelation):
                return [_Candidate(row.data, row.valid, row.tt)
                        for row in rows]
            # Relation construction dedups tuples (first occurrence);
            # mirror it so counts and multiplicity match.
            return [_Candidate(data, None, None)
                    for data in dict.fromkeys(row.data for row in rows)]
        if isinstance(store, HistoricalRelation):
            return [_Candidate(row.data, row.valid, None)
                    for row in store.rows]
        # A static relation, the StateSequence cube, the sharded facade:
        # the representation's own walk *is* the naive scan (no
        # partition, no index, no chunk).
        return self._candidates(relation, as_of, through)

    def _columnar_stream(self, relation: str, as_of: Optional[Instant],
                         through: Optional[Instant],
                         conjuncts: Sequence[Expression], variable: str,
                         kernel: Optional[_WhenKernel], now: Instant
                         ) -> Optional[PyTuple[int, PyTuple[_Candidate, ...],
                                               bool]]:
        """Source one variable's stream through the columnar kernels.

        Returns ``(pre-pushdown count, filtered candidates, when
        applied?)``, or ``None`` when no chunk exists for the relation
        (the caller then degrades to the naive scan).  Filter order
        matches the naive path — visibility, then pushed conjuncts in
        clause order restricted to surviving rows, then the ``when``
        kernel — so error behavior (an untypable comparison, say) is
        identical row for row.
        """
        cache = getattr(self._db, "columnar_cache", None)
        if cache is None:
            return None
        chunk = cache.chunk(relation)
        if chunk is None or (through is not None and as_of is None):
            return None
        rows = chunk.rows
        if chunk.tt is None:  # historical: candidates are all recorded facts
            indices = chunk.mask_indices(chunk.all_mask())

            def make(row) -> _Candidate:
                return _Candidate(row.data, row.valid, None)
        else:
            if through is not None:
                mask = chunk.tt_overlap_mask(
                    Period.from_inclusive(as_of, through))
            else:
                # No as-of: the current state, which is exactly the rows
                # whose transaction time contains now (open partition).
                mask = chunk.tt_stab_mask(
                    as_of if as_of is not None else now)
            indices = chunk.mask_indices(mask)
            if chunk.valid is not None:  # temporal: both axes survive

                def make(row) -> _Candidate:
                    return _Candidate(row.data, row.valid, row.tt)
            else:  # rollback: a static result, one candidate per tuple
                first: Dict[Tuple, int] = {}
                for i in indices:
                    first.setdefault(rows[i].data, i)
                indices = list(first.values())

                def make(row) -> _Candidate:
                    return _Candidate(row.data, None, None)
        pre_count = len(indices)
        for conjunct in conjuncts:
            spec = columnar_compare_spec(conjunct, variable)
            if spec is not None:
                name, op, value, attr_on_left = spec
                indices = chunk.compare_select(indices, name, op, value,
                                               attr_on_left)
            else:
                indices = [i for i in indices
                           if conjunct.evaluate({variable: rows[i].data})]
        when_applied = False
        if kernel is not None:
            when_applied = True
            if chunk.valid is None or kernel.constant is None:
                # No valid axis / empty constant: the predicate is false
                # for every row (eval_temporal_predicate on None periods).
                indices = []
            else:
                mask = chunk.when_mask(kernel.op, kernel.constant,
                                       kernel.var_on_left)
                indices = [i for i in indices if mask[i]]
        return pre_count, tuple(make(rows[i]) for i in indices), when_applied

    # -- planning and the per-variable stream ----------------------------------

    def _plan_for(self, relation: str, variable: str,
                  as_of: Optional[Instant], through: Optional[Instant],
                  conjuncts: Sequence[Expression],
                  when_spec: Optional[_WhenKernel]) -> _planner.AccessPlan:
        prof = _planner.profile(self._db, relation)
        vectorizable = sum(
            1 for c in conjuncts
            if columnar_compare_spec(c, variable) is not None)
        clauses = _planner.Clauses(
            as_of is not None, through is not None, len(conjuncts),
            vectorizable,
            when_spec is not None and when_spec.variable == variable)
        return _planner.choose(prof, clauses, self._plan)

    def _stream(self, variable: str, relation: str,
                as_of: Optional[Instant], through: Optional[Instant],
                conjuncts: Sequence[Expression],
                when_spec: Optional[_WhenKernel],
                plan: _planner.AccessPlan, now: Instant
                ) -> PyTuple[int, PyTuple[_Candidate, ...], bool]:
        """One variable's filtered candidate stream, result-cached in auto.

        Returns ``(pre-pushdown candidate count, candidates after
        pushdown, when-clause already applied?)``.
        """
        kernel = (when_spec
                  if (when_spec is not None
                      and when_spec.variable == variable
                      and plan.path == "columnar")
                  else None)
        cache = (getattr(self._db, "result_cache", None)
                 if self._plan == "auto" else None)
        if cache is not None and kernel is not None and kernel.clock_dependent:
            cache = None  # the clock can move without a commit
        key = None
        if cache is not None:
            tt_key = (f"{as_of if as_of is not None else 'now'}"
                      f"|{through if through is not None else '-'}")
            when_part = (f"{kernel.op}:{kernel.constant}:{kernel.var_on_left}"
                         if kernel is not None else "-")
            fingerprint = "|".join(
                [str(self._db.kind), plan.path,
                 ";".join(repr(c) for c in conjuncts), when_part])
            key = (relation, tt_key, fingerprint)
            hit = cache.get(*key)
            if hit is not None:
                return hit
        result = self._stream_compute(variable, relation, as_of, through,
                                      conjuncts, kernel, plan, now)
        if cache is not None:
            cache.put(*key, result,
                      self._immutable_result(relation, as_of, through,
                                             result[1]))
        return result

    def _stream_compute(self, variable: str, relation: str,
                        as_of: Optional[Instant],
                        through: Optional[Instant],
                        conjuncts: Sequence[Expression],
                        kernel: Optional[_WhenKernel],
                        plan: _planner.AccessPlan, now: Instant
                        ) -> PyTuple[int, PyTuple[_Candidate, ...], bool]:
        if plan.path == "columnar":
            out = self._columnar_stream(relation, as_of, through, conjuncts,
                                        variable, kernel, now)
            if out is not None:
                return out
            # No chunk after all (e.g. the relation was redefined as an
            # unsupported representation): degrade to the naive twin.
        if plan.path == "index":
            candidates = self._candidates(relation, as_of, through)
        else:
            candidates = self._candidates_naive(relation, as_of, through)
        pre_count = len(candidates)
        if conjuncts:
            candidates = [
                candidate for candidate in candidates
                if all(conjunct.evaluate({variable: candidate.data})
                       for conjunct in conjuncts)]
        return pre_count, tuple(candidates), False

    def _immutable_result(self, relation: str, as_of: Optional[Instant],
                          through: Optional[Instant],
                          candidates: Sequence[_Candidate]) -> bool:
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
        return all(candidate.tt is None or candidate.tt.end.is_finite
                   for candidate in candidates)

    def _index_decision(self, as_of: Optional[Instant],
                        through: Optional[Instant]) -> str:
        """How :meth:`_candidates` would source one relation's rows.

        Mirrors the dispatch in :meth:`_candidates` without running it:
        which access path (index stab, index range overlap, or scan) the
        evaluator will take for the statement's temporal clauses.
        """
        db = self._db
        indexed = db.index_cache is not None
        if isinstance(db, TemporalDatabase):
            if not indexed:
                return "scan (index disabled)"
            if through is not None:
                return "bitemporal index: transaction-time range overlap"
            return "bitemporal index: transaction-time stab"
        if isinstance(db, HistoricalDatabase):
            return "scan of recorded facts"
        if isinstance(db, RollbackDatabase):
            if as_of is None and through is None:
                return "snapshot scan"
            if not indexed:
                return "scan (index disabled)"
            if through is not None:
                return "rollback index: transaction-time range overlap"
            return "rollback index: transaction-time stab"
        return "snapshot scan"

    # -- explain -------------------------------------------------------------------------

    def explain(self, statement: RetrieveStmt) -> Dict[str, Any]:
        """Describe how a retrieve would run, without running the product.

        Returns a plain dict: the candidate source per range variable
        (with counts before/after selection pushdown), the residual
        predicate, the temporal clauses in force, and the result kind.
        ``Session.explain`` renders it as text.
        """
        if not isinstance(statement, RetrieveStmt):
            raise TQuelSemanticError("only retrieve statements are explained")
        used = self._used_variables(statement)
        now = self._db.now()
        as_of = through = None
        if statement.as_of is not None:
            as_of = eval_bound(statement.as_of, {}, now)
        if statement.as_of_through is not None:
            through = eval_bound(statement.as_of_through, {}, now)

        pushdown, residual = partition_pushdown(statement.where)
        when_spec = (when_kernel_spec(statement, now)
                     if statement.when is not None else None)
        index_decision = self._index_decision(as_of, through)
        variables = {}
        product = 1
        for variable in used:
            candidates = self._candidates(self._ranges[variable], as_of,
                                          through)
            filtered = candidates
            if variable in pushdown:
                filtered = [c for c in candidates
                            if all(conjunct.evaluate({variable: c.data})
                                   for conjunct in pushdown[variable])]
            plan = self._plan_for(self._ranges[variable], variable, as_of,
                                  through, pushdown.get(variable, []),
                                  when_spec)
            variables[variable] = {
                "relation": self._ranges[variable],
                "candidates": len(candidates),
                "after_pushdown": len(filtered),
                "pushed_conjuncts": len(pushdown.get(variable, [])),
                "index": index_decision,
                "plan": plan.path,
                "estimated_rows": plan.estimated_rows,
                "plan_reason": plan.reason,
            }
            product *= len(filtered)

        if any(isinstance(t.expr, AggCall) for t in statement.targets):
            result_kind = "static (aggregate)"
        elif isinstance(self._db, TemporalDatabase):
            result_kind = "temporal"
        elif isinstance(self._db, HistoricalDatabase):
            result_kind = "historical"
        else:
            result_kind = "static"

        return {
            "database_kind": str(self._db.kind),
            "planner_mode": self._plan,
            "variables": variables,
            "product_size": product,
            "residual_conjuncts": len(residual),
            "when": statement.when is not None,
            "valid_clause": statement.valid is not None,
            "as_of": str(as_of) if as_of is not None else None,
            "through": str(through) if through is not None else None,
            "result_kind": result_kind,
        }

    # -- retrieve ------------------------------------------------------------------------

    def retrieve(self, statement: RetrieveStmt) -> Result:
        used = self._used_variables(statement)
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

        # Selection pushdown: single-variable conjuncts filter their
        # stream before the product is formed.
        pushdown, residual = partition_pushdown(statement.where)
        when_spec = (when_kernel_spec(statement, now)
                     if statement.when is not None else None)

        metrics = _obs.current().metrics
        streams: Dict[str, PyTuple[_Candidate, ...]] = {}
        total_candidates = 0
        when_handled = False
        for variable in used:
            relation = self._ranges[variable]
            conjuncts = pushdown.get(variable, [])
            plan = self._plan_for(relation, variable, as_of, through,
                                  conjuncts, when_spec)
            metrics.counter(f"tquel.plan.{plan.path}").inc()
            pre_count, candidates, when_applied = self._stream(
                variable, relation, as_of, through, conjuncts, when_spec,
                plan, now)
            total_candidates += pre_count
            streams[variable] = candidates
            when_handled = when_handled or when_applied
        metrics.counter("tquel.candidates_enumerated").inc(total_candidates)
        variables = list(used)

        has_aggregates = any(isinstance(t.expr, AggCall)
                             for t in statement.targets)
        target_vars = self._target_variables(statement.targets) or set(variables)

        check_when = statement.when is not None and not when_handled
        matched: List[Dict[str, _Candidate]] = []
        for combination in itertools.product(*(streams[v] for v in variables)):
            binding = dict(zip(variables, combination))
            env = {variable: candidate.data
                   for variable, candidate in binding.items()}
            if residual and not all(conjunct.evaluate(env)
                                    for conjunct in residual):
                continue
            if check_when:
                periods = {variable: candidate.valid
                           for variable, candidate in binding.items()}
                if not eval_temporal_predicate(statement.when, periods, now):
                    continue
            matched.append(binding)

        if has_aggregates:
            result: Result = self._aggregate_result(statement, matched)
        elif self._db.kind.supports_historical_queries:
            result = self._temporal_result(statement, matched, target_vars, now)
        else:
            result = self._static_result(statement, matched)

        result = self._sorted(result, statement.sort_by)
        metrics.counter("tquel.rows_emitted").inc(
            len(result) if isinstance(
                result, (Relation, HistoricalRelation, TemporalRelation))
            else 0)
        if statement.into is not None:
            self._materialize(statement.into, result)
        return result

    def _used_variables(self, statement: RetrieveStmt) -> List[str]:
        used: List[str] = []

        def note(variable: Optional[str]) -> None:
            if variable is not None and variable not in used:
                used.append(variable)

        for target in statement.targets:
            expr = (target.expr.operand
                    if isinstance(target.expr, AggCall) else target.expr)
            if expr is not None:
                for variable, _ in expr.references():
                    note(variable)
        if statement.where is not None:
            for variable, _ in statement.where.references():
                note(variable)
        if statement.when is not None:
            for variable in sorted(temporal_variables(statement.when)):
                note(variable)
        if statement.valid is not None:
            for clause_expr in (statement.valid.at, statement.valid.from_,
                                statement.valid.to):
                if clause_expr is not None:
                    for variable in sorted(temporal_variables(clause_expr)):
                        note(variable)
        return used

    @staticmethod
    def _target_variables(targets: Sequence[TargetItem]) -> Set[str]:
        result: Set[str] = set()
        for target in targets:
            expr = (target.expr.operand
                    if isinstance(target.expr, AggCall) else target.expr)
            if expr is not None:
                result.update(variable for variable, _ in expr.references()
                              if variable is not None)
        return result

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
            value = expr.value
            if isinstance(value, bool):
                return Domain.BOOLEAN
            if isinstance(value, int):
                return Domain.INTEGER
            if isinstance(value, float):
                return Domain.FLOAT
            if isinstance(value, str):
                return Domain.STRING
            if isinstance(value, Instant):
                return Domain.DATE
            return Domain.ANY
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

    def _row_values(self, targets: Sequence[TargetItem],
                    env: Mapping[Optional[str], Tuple]) -> List[Any]:
        return [target.expr.evaluate(env) for target in targets]

    def _static_result(self, statement: RetrieveStmt,
                       matched: List[Dict[str, _Candidate]]) -> Relation:
        schema = self._result_schema(statement.targets)
        rows = []
        for binding in matched:
            env = {variable: candidate.data
                   for variable, candidate in binding.items()}
            rows.append(Tuple.from_sequence(
                schema, self._row_values(statement.targets, env)))
        return Relation(schema, rows)

    def _temporal_result(self, statement: RetrieveStmt,
                         matched: List[Dict[str, _Candidate]],
                         target_vars: Set[str],
                         now: Instant) -> Union[HistoricalRelation,
                                                TemporalRelation]:
        schema = self._result_schema(statement.targets)
        is_temporal = isinstance(self._db, TemporalDatabase)
        hist_rows: List[HistoricalRow] = []
        temp_rows: List[BitemporalRow] = []
        for binding in matched:
            env = {variable: candidate.data
                   for variable, candidate in binding.items()}
            periods = {variable: candidate.valid
                       for variable, candidate in binding.items()}
            validity = self._derived_validity(statement.valid, periods,
                                              target_vars, now)
            if validity is None:
                continue
            data = Tuple.from_sequence(
                schema, self._row_values(statement.targets, env))
            if is_temporal:
                tt = self._intersect_all(
                    [binding[v].tt for v in (target_vars or binding)])
                if tt is None:
                    continue
                temp_rows.append(BitemporalRow(data, validity, tt))
            else:
                hist_rows.append(HistoricalRow(data, validity))
        if is_temporal:
            return TemporalRelation(schema, temp_rows)
        return HistoricalRelation(schema, hist_rows)

    def _derived_validity(self, valid: Optional[ValidClause],
                          periods: Mapping[str, Period],
                          target_vars: Set[str],
                          now: Instant) -> Optional[Period]:
        if valid is not None:
            if valid.is_event:
                at = eval_bound(valid.at, periods, now)
                if at is None or not at.is_finite:
                    return None
                return Period.at(at)
            start = eval_bound(valid.from_, periods, now)
            end = (eval_bound(valid.to, periods, now)
                   if valid.to is not None else POS_INF)
            if start is None or end is None or not start < end:
                return None
            return Period(start, end)
        chosen = [periods[v] for v in sorted(target_vars) if periods.get(v)]
        if not chosen:
            chosen = [p for p in periods.values() if p is not None]
        if not chosen:
            return Period.always()
        return self._intersect_all(chosen)

    @staticmethod
    def _intersect_all(periods: Sequence[Optional[Period]]) -> Optional[Period]:
        current: Optional[Period] = None
        for period in periods:
            if period is None:
                return None
            current = period if current is None else current.intersect(period)
            if current is None:
                return None
        return current

    def _aggregate_result(self, statement: RetrieveStmt,
                          matched: List[Dict[str, _Candidate]]) -> Relation:
        schema = self._result_schema(statement.targets)
        group_targets = [t for t in statement.targets
                         if not isinstance(t.expr, AggCall)]
        agg_targets = [t for t in statement.targets
                       if isinstance(t.expr, AggCall)]
        groups: Dict[PyTuple[Any, ...], List[Mapping]] = {}
        for binding in matched:
            env = {variable: candidate.data
                   for variable, candidate in binding.items()}
            key = tuple(t.expr.evaluate(env) for t in group_targets)
            groups.setdefault(key, []).append(env)
        if not group_targets and not groups:
            groups[()] = []
        rows = []
        for key, envs in groups.items():
            values: Dict[str, Any] = dict(zip(
                (t.name for t in group_targets), key))
            for target in agg_targets:
                values[target.name] = self._apply_aggregate(target.expr, envs)
            rows.append(Tuple(schema, values))
        return Relation(schema, rows)

    @staticmethod
    def _apply_aggregate(call: AggCall, envs: List[Mapping]) -> Any:
        if call.operand is None:
            return len(envs)
        values = [call.operand.evaluate(env) for env in envs]
        values = [value for value in values if value is not None]
        if call.unique:
            values = list(dict.fromkeys(values))
        if call.func == "count":
            return len(values)
        if call.func == "sum":
            return sum(values)
        if not values:
            return None
        if call.func == "avg":
            return sum(values) / len(values)
        if call.func == "min":
            return min(values)
        if call.func == "max":
            return max(values)
        raise TQuelSemanticError(f"unknown aggregate {call.func!r}")

    def _sorted(self, result: Result, sort_by: Sequence[str]) -> Result:
        if not sort_by or not isinstance(result, Relation):
            return result
        return result.sort(list(sort_by))

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

        def expand(batch: OperationRecorder) -> None:
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
        relation = self._ranges[statement.variable]
        rows = []
        for candidate in self._candidates(relation, None):
            env = {statement.variable: candidate.data}
            if statement.where is None or statement.where.evaluate(env):
                rows.append(candidate.data)
        return list(dict.fromkeys(rows))

    def _delete(self, statement: DeleteStmt) -> Optional[Instant]:
        relation = self._ranges[statement.variable]
        arguments = self._valid_arguments(statement.valid, self._db.now())

        def expand(batch: OperationRecorder) -> None:
            for row in self._matching_rows(statement):
                self._db.delete(relation, dict(row), txn=batch, **arguments)

        return self._db.commit_unit(expand)

    def _replace(self, statement: ReplaceStmt) -> Optional[Instant]:
        relation = self._ranges[statement.variable]
        arguments = self._valid_arguments(statement.valid, self._db.now())

        def expand(batch: OperationRecorder) -> None:
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
