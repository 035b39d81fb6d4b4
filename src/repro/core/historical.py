"""Historical databases (§4.3 of the paper).

A historical database "records a single historical state per relation,
storing the history as it is best known.  As errors are discovered, they
are corrected by modifying the database."  It incorporates **valid time**
— the time the stored information models reality — and supports
*historical queries* (TQuel ``when`` / ``valid``), but keeps no record of
its own past states: "it is not possible to view the database as it was in
the past".

The central value type here, :class:`HistoricalRelation`, is shared with
the temporal database (a temporal relation *is* a sequence of historical
states, §4.4).  The database keeps its one state in a
:class:`HistoricalStore` (Figure 8 without transaction time).

The update API is every kind's (:class:`~repro.core.base.Database`), and
its semantics is :func:`historical_delta`, the one delta every kind
commits through: a kind without valid time holds each fact over all time.
With valid time (all arbitrary modifications, per Figure 12's
``Append-Only: No`` for valid time):

- ``insert(values, valid_from, valid_to)`` — a new fact with its validity;
- ``delete(match, valid_from, valid_to)`` — remove the matching facts'
  validity *within* the given period (splitting rows as needed);
- ``replace(match, updates, valid_from, valid_to)`` — within the period,
  the matching facts' attributes change to *updates*; outside it they are
  untouched.  This is how a promotion is recorded: replace rank to
  ``full`` from 12/01/82 onward turns one ``associate [09/01/77, ∞)`` row
  into ``associate [09/01/77, 12/01/82)`` + ``full [12/01/82, ∞)`` —
  exactly Figure 6.
"""

from __future__ import annotations

from typing import (Any, Callable, Container, Dict, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple as PyTuple)

from repro.core.base import Database, InstantLike
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import StateStore, itself
from repro.errors import ConstraintViolation, JournalError
from repro.relational.constraints import Constraint, KeyConstraint, check_all
from repro.relational.relation import Predicate, Relation, as_callable
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.chronon import require_same_granularity
from repro.time.element import TemporalElement
from repro.time.instant import NEG_INF, POS_INF, instant as _coerce
from repro.time.period import Period, chronon_number, first_unit
from repro.txn.transaction import Operation

class HistoricalRow(NamedTuple):
    """One fact plus the valid-time period during which it models reality."""

    data: Tuple
    valid: Period


class HistoricalRelation:
    """A valid-time relation (Figure 6): an immutable value object.

    Rows pair a data tuple with a valid period.  Derived historical
    relations (from selections, projections, timeslices of temporal
    relations, TQuel retrieves) are the same type — the closure property
    the paper requires ("the derived relation is also an historical
    relation").
    """

    __slots__ = ("_schema", "_rows", "_coalesced")

    def __init__(self, schema: Schema,
                 rows: Iterable[HistoricalRow] = ()) -> None:
        self._schema = schema
        self._rows: PyTuple[HistoricalRow, ...] = tuple(dict.fromkeys(rows))
        self._coalesced: Optional["HistoricalRelation"] = None

    @classmethod
    def _of_distinct(cls, schema: Schema, rows: PyTuple[HistoricalRow, ...]
                     ) -> "HistoricalRelation":
        """Internal constructor: *rows* are already duplicate-free (no
        re-hashing)."""
        value = cls.__new__(cls)
        value._schema = schema
        value._rows = rows
        value._coalesced = None
        return value

    # -- accessors ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The explicit (non-temporal) schema."""
        return self._schema

    @property
    def rows(self) -> PyTuple[HistoricalRow, ...]:
        """All (fact, valid period) rows."""
        return self._rows

    @property
    def is_empty(self) -> bool:
        """True if no facts are recorded."""
        return not self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    # -- queries -------------------------------------------------------------------

    def timeslice(self, valid_at: InstantLike) -> Relation:
        """The facts valid at an instant (:func:`facts_valid_at`)."""
        return facts_valid_at(self._schema, self._rows, valid_at)

    def during(self, period: Period) -> "HistoricalRelation":
        """The facts restricted (and clipped) to a valid period."""
        clipped = []
        for row in self._rows:
            common = row.valid.intersect(period)
            if common is not None:
                clipped.append(HistoricalRow(row.data, common))
        return HistoricalRelation(self._schema, clipped)

    def select(self, predicate: Predicate) -> "HistoricalRelation":
        """Facts whose data satisfies the predicate (validity untouched)."""
        test = as_callable(predicate)
        return HistoricalRelation(
            self._schema, (row for row in self._rows if test(row.data)))

    def project(self, names: Sequence[str],
                coalesce: bool = True) -> "HistoricalRelation":
        """Project the data attributes; by default coalesce the result.

        Projection can make distinct facts equal, so their validities merge
        — the standard temporal-projection semantics.
        """
        projected_schema = self._schema.project(names)
        projected = HistoricalRelation(
            projected_schema,
            (HistoricalRow(row.data.project(names), row.valid)
             for row in self._rows))
        return projected.coalesce() if coalesce else projected

    def rename(self, mapping: Mapping[str, str]) -> "HistoricalRelation":
        """Rename data attributes."""
        renamed_schema = self._schema.rename(mapping)
        return HistoricalRelation(
            renamed_schema,
            (HistoricalRow(row.data.cast(renamed_schema), row.valid)
             for row in self._rows))

    def union(self, other: "HistoricalRelation") -> "HistoricalRelation":
        """Temporal union: a fact holds when it holds in either operand.

        Snapshot-homomorphic: ``(a ∪ b).timeslice(t) ==
        a.timeslice(t) ∪ b.timeslice(t)`` for every instant (property-
        tested, as for :meth:`intersect` and :meth:`difference`).
        """
        return HistoricalRelation(self._schema, self._rows + other._rows)

    def intersect(self, other: "HistoricalRelation") -> "HistoricalRelation":
        """Temporal intersection: a fact holds when both operands say so."""
        by_fact: Dict[Tuple, TemporalElement] = {}
        for row in other.coalesce().rows:
            element = by_fact.get(row.data, TemporalElement.empty())
            by_fact[row.data] = element | row.valid
        rows: List[HistoricalRow] = []
        for row in self._rows:
            theirs = by_fact.get(row.data)
            if theirs is None:
                continue
            for period in (TemporalElement([row.valid]) & theirs).periods:
                rows.append(HistoricalRow(row.data, period))
        return HistoricalRelation(self._schema, rows)

    def difference(self, other: "HistoricalRelation") -> "HistoricalRelation":
        """Temporal difference: a fact's validity minus the other's claim."""
        by_fact: Dict[Tuple, TemporalElement] = {}
        for row in other.coalesce().rows:
            element = by_fact.get(row.data, TemporalElement.empty())
            by_fact[row.data] = element | row.valid
        rows: List[HistoricalRow] = []
        for row in self._rows:
            theirs = by_fact.get(row.data)
            if theirs is None:
                rows.append(row)
                continue
            for period in (TemporalElement([row.valid]) - theirs).periods:
                rows.append(HistoricalRow(row.data, period))
        return HistoricalRelation(self._schema, rows)

    def coalesce(self) -> "HistoricalRelation":
        """Merge value-equivalent rows with overlapping or adjacent validity.

        The canonical form: per distinct fact, validity becomes a minimal
        set of disjoint, non-adjacent periods.  Coalescing never changes
        any timeslice (property-tested).  Memoized — the value is
        immutable and equality/hashing lean on the canonical form.
        """
        if self._coalesced is not None:
            return self._coalesced
        by_fact: Dict[Tuple, List[Period]] = {}
        order: List[Tuple] = []
        for row in self._rows:
            if row.data not in by_fact:
                order.append(row.data)
            by_fact.setdefault(row.data, []).append(row.valid)
        merged: List[HistoricalRow] = []
        for fact in order:
            element = TemporalElement(by_fact[fact])
            for period in element.periods:
                merged.append(HistoricalRow(fact, period))
        canonical = HistoricalRelation(self._schema, merged)
        canonical._coalesced = canonical  # its own canonical form
        self._coalesced = canonical
        return canonical

    def validity_of(self, predicate: Predicate) -> TemporalElement:
        """The total valid time during which any matching fact holds."""
        return TemporalElement(
            row.valid for row in self.select(predicate).rows)

    def lifespan(self) -> TemporalElement:
        """The union of every row's validity."""
        return TemporalElement(row.valid for row in self._rows)

    def storage_cells(self) -> int:
        """Stored cells: rows × (attributes + 2 timestamps).  For benches."""
        return len(self._rows) * (len(self._schema) + 2)

    def pretty(self, title: Optional[str] = None, event: bool = False) -> str:
        """Render like Figure 6 (or Figure 9's ``(at)`` style for events)."""
        from repro.tquel.printer import render_historical  # local: avoid cycle
        return render_historical(self, title, event=event)

    # -- equality ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Snapshot equivalence: equal iff every timeslice agrees.

        Implemented as equality of the coalesced row sets, which is the
        same thing (proved by the property suite).
        """
        if not isinstance(other, HistoricalRelation):
            return NotImplemented
        if self._schema.names != other._schema.names:
            return False
        return (frozenset(self.coalesce().rows)
                == frozenset(other.coalesce().rows))

    def __hash__(self) -> int:
        return hash((self._schema.names, frozenset(self.coalesce().rows)))

    def __repr__(self) -> str:
        return (f"HistoricalRelation({', '.join(self._schema.names)}; "
                f"{len(self._rows)} rows)")


def facts_valid_at(schema: Schema, rows: Sequence[Any],
                   when: InstantLike) -> Relation:
    """The facts of the *rows* (``(data, valid, …)``) valid at *when*: one
    pass on chronon numbers, in the unit of the first period that has one
    (a row or *when* at another raises ``GranularityError``).  Valid time
    is modified arbitrarily, so this scan is its timeslice: no index."""
    unit = first_unit(row[1] for row in rows)
    point = chronon_number(_coerce(when), unit, "take a timeslice")
    return Relation(schema, [
        row[0] for row in rows
        if ((valid := row[1]).unit is unit or valid.unit is None
            or require_same_granularity(unit, valid.unit, "take a timeslice"))
        and valid.lo <= point < valid.hi])


# ---------------------------------------------------------------------------
# Operation semantics, shared with the temporal database
# ---------------------------------------------------------------------------

def _period_from_args(arguments: Mapping[str, Any]) -> Period:
    """Build the valid period from operation arguments.

    Accepts ``valid_at`` (event semantics: a single chronon) or
    ``valid_from``/``valid_to`` (interval semantics; both optional,
    defaulting to ``[-∞, ∞)``... in practice ``valid_from`` is required
    for inserts by the databases).
    """
    if "valid_at" in arguments and arguments["valid_at"] is not None:
        return Period.at(_coerce(arguments["valid_at"]))
    start = arguments.get("valid_from")
    end = arguments.get("valid_to")
    return ALL_TIME if start is None and end is None else Period(
        NEG_INF if start is None else start, POS_INF if end is None else end)


#: The validity of an update naming neither end, and of every fact a kind
#: without valid time records.
ALL_TIME = Period(NEG_INF, POS_INF)


def historical_delta(schema: Schema, op: Operation,
                     candidates: Iterable[Any], present: Container[Any],
                     fact: Callable[[Tuple, Period], Any] = HistoricalRow,
                     ) -> PyTuple[List[Any], List[Any]]:
    """The elements one insert/delete/replace removes from and adds to a
    state, each a ``fact(data, valid)``.

    The valid-time operations are per-fact interval splits (Mkaouar et
    al.): a matching row overlapping the operation's period is removed and
    its pieces outside the period (and, for ``replace``, the updated fact
    inside it) are added.  *candidates* are the rows of the state the
    operation's ``match`` can touch — any superset will do, each is
    tested — as objects with ``data`` and ``valid``; *present* answers
    whether an element is in the state.  A state is a set, so a produced
    element that is already there is not added, and one produced again by
    its own split is not removed.
    """
    arguments = op.arguments
    if op.action == "insert":
        row = fact(Tuple(schema, arguments["values"]),
                   _period_from_args(arguments))
        return [], ([] if row in present else [row])
    if op.action not in ("delete", "replace"):
        raise JournalError(f"stores do not understand {op.action!r}")
    match = arguments["match"]
    updates = arguments.get("updates")
    period = _period_from_args(arguments)
    removed: List[Any] = []
    produced: Dict[Any, None] = {}
    for row in candidates:
        if not Database._matches(row.data, match):
            continue
        common = row.valid.intersect(period)
        if common is None:
            continue
        removed.append(fact(row.data, row.valid))
        for piece in row.valid.difference(period):
            produced[fact(row.data, piece)] = None
        if updates is not None:
            produced[fact(row.data.replace(**updates), common)] = None
    return ([row for row in removed if row not in produced],
            [row for row in produced if row not in present])


def check_sequenced_key(relation: HistoricalRelation) -> None:
    """Enforce the sequenced key: at no valid instant may two distinct
    facts share the key.  (Coalesce-equal duplicates are merged first, so
    re-asserting the same fact is not a violation.)"""
    key = relation.schema.key
    if not key:
        return
    canonical = relation.coalesce()
    by_key: Dict[PyTuple[Any, ...], List[HistoricalRow]] = {}
    for row in canonical.rows:
        by_key.setdefault(tuple(row.data[name] for name in key), []).append(row)
    for key_value, rows in by_key.items():
        for index, mine in enumerate(rows):
            for other in rows[index + 1:]:
                if mine.data != other.data and mine.valid.overlaps(other.valid):
                    raise ConstraintViolation(
                        f"sequenced key violation: key {key_value!r} has two "
                        f"facts valid simultaneously during "
                        f"{mine.valid.intersect(other.valid)}"
                    )


def check_historical_constraints(relation: HistoricalRelation,
                                 constraints: Sequence[Constraint],
                                 now=None) -> None:
    """Apply declared constraints to the state, plus the sequenced key.

    Ordinary :class:`~repro.relational.constraints.Constraint`\\ s check the
    data tuples; :class:`~repro.core.temporal_constraints.
    TemporalConstraint`\\ s (when *now* is given) check the valid times.
    """
    facts = Relation(relation.schema, (row.data for row in relation.rows))
    data_constraints = [c for c in constraints
                        if isinstance(c, Constraint)
                        and not isinstance(c, KeyConstraint)]
    check_all(facts, data_constraints)
    check_sequenced_key(relation)
    if now is not None:
        from repro.core.temporal_constraints import check_temporal_constraints
        check_temporal_constraints(relation, constraints, now)


class HistoricalStore(StateStore):
    """The historical state (Figure 6): each :class:`HistoricalRow` is its
    own element and row; a removed row is forgotten (no index keeps it)."""

    __slots__ = ()

    _element = staticmethod(itself)

    def state_of(self, rows: Iterable[HistoricalRow]) -> HistoricalRelation:
        """The historical relation holding the facts of *rows*."""
        return HistoricalRelation(self._schema, rows)

    def state_in_force(self, rows: Iterable[HistoricalRow]
                       ) -> HistoricalRelation:
        """The historical relation of distinct *rows*, no fact hashed."""
        return HistoricalRelation._of_distinct(self._schema, tuple(rows))

    def as_candidates(self, rows: Iterable[HistoricalRow]) -> List[Any]:
        return [(row.data, row.valid, None) for row in rows]


class HistoricalDatabase(Database):
    """The historical database: valid time, arbitrary modification, no rollback."""

    kind = DatabaseKind.HISTORICAL
