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
states, §4.4), as is the operation semantics in
:func:`apply_historical_operation`.

Update semantics (all arbitrary modifications, per Figure 12's
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

from typing import (Any, Callable, Container, Dict, Iterable,
                    Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple as PyTuple, Union)

from repro.core.base import Database, InstantLike
from repro.core.lineage import extend_log, version_delta
from repro.core.taxonomy import DatabaseKind
from repro.errors import ConstraintViolation, JournalError
from repro.obs import runtime as _obs
from repro.relational.constraints import (CheckConstraint, Constraint,
                                          KeyConstraint, NotNullConstraint,
                                          check_all)
from repro.relational.expression import Expression
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.element import TemporalElement
from repro.time.instant import Instant, NEG_INF, POS_INF, instant as _coerce
from repro.time.period import Period
from repro.txn.transaction import Operation, Transaction

Predicate = Union[Expression, Callable[[Tuple], bool]]


class HistoricalRow(NamedTuple):
    """One fact plus the valid-time period during which it models reality."""

    data: Tuple
    valid: Period

    def valid_at(self, when: Instant) -> bool:
        """Does this fact hold at valid-time instant *when*?"""
        return self.valid.contains(when)


class HistoricalRelation:
    """A valid-time relation (Figure 6): an immutable value object.

    Rows pair a data tuple with a valid period.  Derived historical
    relations (from selections, projections, timeslices of temporal
    relations, TQuel retrieves) are the same type — the closure property
    the paper requires ("the derived relation is also an historical
    relation").

    The versions :func:`apply_historical_operation` derives from one
    another also share a lineage (:mod:`repro.core.lineage`): the rows
    each operation removed and added are logged, so an index or a
    constraint check can follow a commit without diffing two states.
    """

    __slots__ = ("_schema", "_rows", "_coalesced", "_lineage", "_closed_log",
                 "_closed_len", "_opened_log", "_opened_len")

    def __init__(self, schema: Schema,
                 rows: Iterable[HistoricalRow] = ()) -> None:
        self._schema = schema
        self._rows: PyTuple[HistoricalRow, ...] = tuple(dict.fromkeys(rows))
        self._coalesced: Optional["HistoricalRelation"] = None
        self._lineage: Optional[object] = None  # related to no other value

    @classmethod
    def _of_distinct(cls, schema: Schema, rows: PyTuple[HistoricalRow, ...],
                     lineage: Optional[object] = None,
                     closed_log: Sequence[HistoricalRow] = (),
                     opened_log: Sequence[HistoricalRow] = (),
                     ) -> "HistoricalRelation":
        """Internal constructor: *rows* are already duplicate-free (no
        re-hashing), optionally as the next version of a lineage."""
        value = cls.__new__(cls)
        value._schema = schema
        value._rows = rows
        value._coalesced = None
        value._lineage = lineage
        value._closed_log = closed_log
        value._closed_len = len(closed_log)
        value._opened_log = opened_log
        value._opened_len = len(opened_log)
        return value

    def _under_keys(self, keys: Container[PyTuple[Any, ...]]
                    ) -> Iterator[HistoricalRow]:
        """The rows whose schema-key value is one of *keys* (a scan)."""
        return (row for row in self._rows if row.data.key() in keys)

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
        """The static relation of facts valid at an instant."""
        when = _coerce(valid_at)
        return Relation(self._schema,
                        (row.data for row in self._rows if row.valid_at(when)))

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
        if isinstance(predicate, Expression):
            test = lambda row: bool(predicate.evaluate(row))
        else:
            test = predicate
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
    return Period(NEG_INF if start is None else start,
                  POS_INF if end is None else end)


def historical_delta(schema: Schema, op: Operation,
                     candidates: Iterable[Any],
                     present: Container[HistoricalRow],
                     ) -> PyTuple[List[HistoricalRow], List[HistoricalRow]]:
    """The rows one insert/delete/replace removes from and adds to a state.

    The valid-time operations are per-fact interval splits (Mkaouar et
    al.): a matching row overlapping the operation's period is removed and
    its pieces outside the period (and, for ``replace``, the updated fact
    inside it) are added.  *candidates* are the rows of the state the
    operation's ``match`` can touch — any superset will do, each is
    tested — as objects with ``data`` and ``valid``; *present* answers
    whether a row is in the state.  A state is a set, so a produced row
    that is already there is not added, and a row produced again by its
    own split is not removed.
    """
    arguments = op.arguments
    if op.action == "insert":
        row = HistoricalRow(Tuple(schema, arguments["values"]),
                            _period_from_args(arguments))
        return [], ([] if row in present else [row])
    if op.action not in ("delete", "replace"):
        raise JournalError(
            f"historical stores do not understand {op.action!r}")
    match = arguments["match"]
    updates = arguments.get("updates")
    period = _period_from_args(arguments)
    removed: List[HistoricalRow] = []
    produced: Dict[HistoricalRow, None] = {}
    for row in candidates:
        if not Database._matches(row.data, match):
            continue
        common = row.valid.intersect(period)
        if common is None:
            continue
        removed.append(HistoricalRow(row.data, row.valid))
        for piece in row.valid.difference(period):
            produced[HistoricalRow(row.data, piece)] = None
        if updates is not None:
            produced[HistoricalRow(row.data.replace(**updates), common)] = None
    return ([row for row in removed if row not in produced],
            [row for row in produced if row not in present])


def apply_historical_operation(relation: HistoricalRelation,
                               op: Operation) -> HistoricalRelation:
    """Apply one insert/delete/replace to a historical relation value.

    Pure function: :func:`historical_delta` applied to the state, which is
    what makes a temporal relation literally "a sequence of historical
    states" (§4.4) — :class:`~repro.core.temporal.TemporalDatabase`
    records the same delta on the transaction-time axis.  The result is
    the next version of *relation*'s lineage (*relation* itself when
    nothing changed).
    """
    rows = relation.rows
    removed, added = historical_delta(relation.schema, op, rows, set(rows))
    _obs.current().metrics.counter("commit.rows_examined").inc(len(rows))
    if not removed and not added:
        return relation
    if removed:
        # What a split produces takes the place of the first row it
        # removes, so a fact's history stays together in display order.
        gone = set(removed)
        at = next(i for i, row in enumerate(rows) if row in gone)
        rows = (rows[:at] + tuple(added)
                + tuple(row for row in rows[at:] if row not in gone))
    else:
        rows = rows + tuple(added)
    if relation._lineage is None:
        lineage, closed_log, opened_log = object(), list(removed), list(added)
    else:
        lineage = relation._lineage
        closed_log = extend_log(relation._closed_log, relation._closed_len,
                                removed)
        opened_log = extend_log(relation._opened_log, relation._opened_len,
                                added)
    return HistoricalRelation._of_distinct(relation.schema, rows, lineage,
                                           closed_log, opened_log)


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
                        and not _is_key_constraint(c)]
    check_all(facts, data_constraints)
    check_sequenced_key(relation)
    if now is not None:
        from repro.core.temporal_constraints import check_temporal_constraints
        check_temporal_constraints(relation, constraints, now)


def _is_key_constraint(constraint: Constraint) -> bool:
    return isinstance(constraint, KeyConstraint)


def _local_to_key(constraints: Sequence[Any], key: Sequence[str]) -> bool:
    """Can *constraints* be re-checked on the rows of the touched
    schema-key values alone?

    True when every rule judges one row, one fact, or one group of rows
    no wider than the schema key.  Only the exact built-in types qualify:
    a user-defined subclass may look at anything.
    """
    from repro.core import temporal_constraints as rules
    local = (KeyConstraint, NotNullConstraint, CheckConstraint,
             rules.NoFutureValidity, rules.BoundedValidity,
             rules.ValidityDuration)
    return all(set(key) <= set(rule.key)
               if type(rule) is rules.ContiguousHistory
               else type(rule) in local
               for rule in constraints)


def check_commit(installed: Any, staged: Any,
                 constraints: Sequence[Constraint], now: Instant) -> None:
    """Enforce *constraints* on the state a commit is about to install.

    *installed* is the version that passed its checks (``None`` for a new
    relation), *staged* the one a batch derived from it — a
    :class:`HistoricalRelation`, or a :class:`~repro.core.temporal.
    TemporalRelation` standing for its current state.  When the relation
    has a key and every constraint groups within it, an untouched key's
    rows are exactly the rows already checked, so only the rows under the
    keys in the batch's delta are re-examined.  Otherwise — unrelated
    versions (a redefine, a non-canonical value), no key, a constraint
    that may look across keys — the whole state is.
    """
    schema = staged.schema
    delta = None if installed is None else version_delta(installed, staged)
    if (delta is not None and schema.key
            and _local_to_key(constraints, schema.key)):
        touched = {row.data.key() for rows in delta for row in rows}
        state = HistoricalRelation._of_distinct(
            schema, tuple(HistoricalRow(row.data, row.valid)
                          for row in staged._under_keys(touched)))
    elif isinstance(staged, HistoricalRelation):
        state = staged
    else:
        state = staged.current()
    _obs.current().metrics.counter("commit.rows_examined").inc(len(state))
    check_historical_constraints(state, constraints, now)


# ---------------------------------------------------------------------------
# The valid-time update API, and the database kind
# ---------------------------------------------------------------------------

class ValidTimeDatabase(Database):
    """The update API of the kinds with valid time (Figure 10, right).

    Facts are recorded, removed and changed *within a valid period*
    (:func:`historical_delta`); whether the beliefs an update supersedes
    survive (on the transaction-time axis) is the concrete kind's store.
    """

    def insert(self, name: str, values: Mapping[str, Any],
               valid_from: Optional[InstantLike] = None,
               valid_to: Optional[InstantLike] = None,
               valid_at: Optional[InstantLike] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Record a fact with its valid time.

        Interval relations take ``valid_from`` (required) and ``valid_to``
        (default ∞); event relations take ``valid_at``.
        """
        checked = self._checked_values(name, values)
        arguments = self._valid_args(name, valid_from, valid_to, valid_at,
                                     for_insert=True)
        arguments["values"] = checked
        return self._submit(Operation("insert", name, arguments), txn)

    def delete(self, name: str, match: Optional[Mapping[str, Any]] = None,
               valid_from: Optional[InstantLike] = None,
               valid_to: Optional[InstantLike] = None,
               valid_at: Optional[InstantLike] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Remove matching facts' validity within the given period.

        With no period, the facts are removed entirely — including from
        the past.  A historical database keeps no record of the
        correction; a temporal one keeps the previous belief on the
        transaction-time axis ("errors ... cannot be forgotten").
        """
        arguments = self._valid_args(name, valid_from, valid_to, valid_at,
                                     for_insert=False)
        arguments["match"] = self._checked_match(name, match or {})
        return self._submit(Operation("delete", name, arguments), txn)

    def replace(self, name: str, match: Mapping[str, Any],
                updates: Mapping[str, Any],
                valid_from: Optional[InstantLike] = None,
                valid_to: Optional[InstantLike] = None,
                valid_at: Optional[InstantLike] = None,
                txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Change matching facts' attributes within the given period."""
        arguments = self._valid_args(name, valid_from, valid_to, valid_at,
                                     for_insert=False)
        arguments["match"] = self._checked_match(name, match)
        arguments["updates"] = self._checked_match(name, updates)
        return self._submit(Operation("replace", name, arguments), txn)

    def _valid_args(self, name: str, valid_from, valid_to, valid_at,
                    for_insert: bool) -> Dict[str, Any]:
        if valid_at is not None:
            if valid_from is not None or valid_to is not None:
                raise ConstraintViolation(
                    "give either valid_at or valid_from/valid_to, not both"
                )
            return {"valid_at": _coerce(valid_at)}
        if name in self._event_relations and for_insert:
            raise ConstraintViolation(
                f"{name!r} is an event relation; inserts take valid_at"
            )
        if for_insert and valid_from is None:
            raise ConstraintViolation(
                f"inserting into a {self.kind} relation requires valid_from "
                "(the instant the fact began to hold)"
            )
        arguments: Dict[str, Any] = {}
        if valid_from is not None:
            arguments["valid_from"] = _coerce(valid_from)
        if valid_to is not None:
            arguments["valid_to"] = _coerce(valid_to)
        return arguments

    def _check_store(self, name: str, installed: Any, staged: Any) -> None:
        # The commit being applied has already ticked the clock, so the
        # manager's last reading is this transaction's commit instant.
        # The schema key is enforced as a sequenced key inside
        # check_historical_constraints (via the relation's schema.key).
        check_commit(installed, staged, self._constraints[name],
                     self._manager.clock.last)


class HistoricalDatabase(ValidTimeDatabase):
    """The historical database: valid time, arbitrary modification, no rollback."""

    kind = DatabaseKind.HISTORICAL

    # -- queries --------------------------------------------------------------------------

    def history(self, name: str) -> HistoricalRelation:
        """The single historical state of the relation."""
        return self.store(name)

    def snapshot(self, name: str) -> Relation:
        """The facts valid *now* (the historical DB always views 'as of now')."""
        return self.timeslice(name, self.now())

    def timeslice(self, name: str, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None) -> Relation:
        """The facts valid at an instant, as a static relation (no
        *as_of*: a historical database keeps no transaction time)."""
        self.require_historical("timeslice")
        if as_of is not None:
            self.require_rollback("as of")
        self._require_defined(name)
        return self.index_cache.historical(name).timeslice(valid_at)

    _scan_access = "scan of recorded facts"

    def _scanned(self, name: str) -> List[Any]:
        # (valid time only: its tree answers `timeslice`, not a read)
        return [(row.data, row.valid, None) for row in self.history(name).rows]

    # -- applier hooks ----------------------------------------------------------------------

    def _create_store(self, staged: Dict[str, HistoricalRelation], name: str,
                      schema: Schema) -> None:
        staged[name] = HistoricalRelation(schema)

    def _apply_dml(self, staged: Dict[str, HistoricalRelation], op: Operation,
                   commit_time: Instant) -> None:
        staged[op.relation] = apply_historical_operation(
            self._staged_store(staged, op.relation), op)
