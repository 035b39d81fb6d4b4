"""Cross-kind temporal operations.

Operations that combine or compare the temporal value types — historical
joins with TQuel ``when`` semantics and snapshot-equivalence checking.
These are the building blocks the TQuel evaluator and the benchmark
harness share.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple as PyTuple

from repro.core.historical import HistoricalRelation, HistoricalRow
from repro.core.temporal import TemporalRelation
from repro.relational.relation import Relation
from repro.relational.tuple import Tuple
from repro.time.instant import Instant
from repro.time.period import Period

#: A temporal join condition: given the two valid periods, keep the pair?
PeriodPredicate = Callable[[Period, Period], bool]


def when_join(left: HistoricalRelation, right: HistoricalRelation,
              when: PeriodPredicate,
              where: Optional[Callable[[Tuple, Tuple], bool]] = None,
              prefix_left: str = "l", prefix_right: str = "r",
              validity: str = "intersect") -> HistoricalRelation:
    """Join two historical relations under a temporal predicate.

    ``when`` receives the two rows' valid periods (e.g.
    ``lambda a, b: a.overlaps(b)`` — TQuel's ``when l overlap r``);
    ``where`` optionally filters on the data tuples.  The result validity
    is controlled by ``validity``:

    - ``"intersect"`` — the overlap of the operand periods (the TQuel
      default for tuples that both contribute data);
    - ``"left"`` / ``"right"`` — the named operand's period (TQuel's
      semantics when only one variable appears in the target list);
    - ``"extend"`` — the smallest period covering both.
    """
    combined = left.schema.concat(right.schema, prefix_left, prefix_right)
    rows: List[HistoricalRow] = []
    for mine in left.rows:
        for theirs in right.rows:
            if not when(mine.valid, theirs.valid):
                continue
            if where is not None and not where(mine.data, theirs.data):
                continue
            if validity == "intersect":
                period = mine.valid.intersect(theirs.valid)
                if period is None:
                    continue
            elif validity == "left":
                period = mine.valid
            elif validity == "right":
                period = theirs.valid
            elif validity == "extend":
                period = mine.valid.extend(theirs.valid)
            else:
                raise ValueError(f"unknown validity rule {validity!r}")
            rows.append(HistoricalRow(mine.data.concat(theirs.data, combined),
                                      period))
    return HistoricalRelation(combined, rows)


def snapshot_equivalent(a: HistoricalRelation, b: HistoricalRelation,
                        probes: Optional[Iterable[Instant]] = None) -> bool:
    """True if the two historical relations agree at every valid instant.

    With ``probes=None`` this uses the coalesced canonical form (exact).
    Pass explicit probe instants to check the definition directly — the
    property suite does both and asserts they agree.
    """
    if probes is None:
        return a == b
    return all(a.timeslice(when) == b.timeslice(when) for when in probes)


def temporal_timeslice_matrix(relation: TemporalRelation,
                              valid_probes: Sequence[Instant],
                              txn_probes: Sequence[Instant]
                              ) -> Dict[PyTuple[Instant, Instant], Relation]:
    """Every (valid, transaction) bitemporal point over the probe grid.

    The full four-dimensional picture of Figure 7, sampled: entry
    ``(v, t)`` is the static relation of facts valid at ``v`` as the
    database believed as of ``t``.
    """
    matrix: Dict[PyTuple[Instant, Instant], Relation] = {}
    for txn_probe in txn_probes:
        state = relation.rollback(txn_probe)
        for valid_probe in valid_probes:
            matrix[(valid_probe, txn_probe)] = state.timeslice(valid_probe)
    return matrix


def history_series(relation: HistoricalRelation,
                   functions: Sequence,
                   by: Sequence[str] = ()) -> HistoricalRelation:
    """A time-varying aggregate: the trend-analysis query as one operation.

    Answers §4.1's motivating query — "How did the number of faculty
    change over the last 5 years?" — in closed form: the result is a
    *historical* relation whose tuples are aggregate values
    (:mod:`repro.relational.aggregate` functions, optionally grouped by
    ``by``) and whose valid periods are the maximal intervals over which
    those values hold.  Stepwise-constant by construction, coalesced, and
    — being historical — composable with every other historical operation.

    The series covers ``[first boundary, ∞)`` when any fact is open-ended,
    else ``[first boundary, last boundary)``; intervals where no fact is
    valid appear with their aggregate of the empty set (``count`` = 0).
    """
    from repro.relational.aggregate import aggregate as _aggregate
    from repro.time.instant import POS_INF

    boundaries = sorted({
        bound
        for row in relation.rows
        for bound in (row.valid.start, row.valid.end)
        if bound.is_finite
    })
    result_schema = _aggregate(Relation(relation.schema, ()),
                               list(functions), by=by).schema
    if not boundaries:
        return HistoricalRelation(result_schema)

    open_ended = any(row.valid.end.is_pos_inf for row in relation.rows)
    edges: List = list(boundaries)
    intervals = list(zip(edges, edges[1:]))
    if open_ended:
        intervals.append((edges[-1], POS_INF))

    rows: List[HistoricalRow] = []
    for start, end in intervals:
        snapshot = relation.timeslice(start)
        aggregated = _aggregate(snapshot, list(functions), by=by)
        for data in aggregated:
            rows.append(HistoricalRow(data, Period(start, end)))
    return HistoricalRelation(result_schema, rows).coalesce()


def diff_states(database, name: str, earlier, later):
    """What changed between two transaction-time instants — the audit diff.

    Works on any database with rollback support.  Returns a pair
    ``(appeared, disappeared)``:

    - on a **static rollback** database these are static relations of
      tuples that entered/left the stored state between the instants;
    - on a **temporal** database they are *historical* relations of
      (fact, validity) beliefs adopted/abandoned between the instants —
      so a retroactive correction shows up as one belief abandoned and
      two adopted, exactly the Figure-8 story.

    Raises the usual taxonomy error on kinds without transaction time.
    """
    database.require_rollback("diff_states")
    before = database.rollback(name, earlier)
    after = database.rollback(name, later)
    if isinstance(before, HistoricalRelation):
        before_rows = set(before.rows)
        after_rows = set(after.rows)
        appeared = HistoricalRelation(before.schema,
                                      [r for r in after.rows
                                       if r not in before_rows])
        disappeared = HistoricalRelation(before.schema,
                                         [r for r in before.rows
                                          if r not in after_rows])
        return appeared, disappeared
    return after.difference(before), before.difference(after)


def changed_instants(relation: HistoricalRelation) -> List[Instant]:
    """The finite valid-time boundaries of a historical relation, sorted.

    Probing timeslices at these instants (plus one before and after each)
    observes every distinct snapshot the relation has — used by the
    property suite to turn "equal at every instant" into a finite check.
    """
    boundaries = set()
    for row in relation.rows:
        if row.valid.start.is_finite:
            boundaries.add(row.valid.start)
            boundaries.add(row.valid.start - 1)
        if row.valid.end.is_finite:
            boundaries.add(row.valid.end)
            boundaries.add(row.valid.end - 1)
    return sorted(boundaries)
