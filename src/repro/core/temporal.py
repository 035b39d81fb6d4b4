"""Temporal databases (§4.4 of the paper): both transaction and valid time.

"While a static rollback database views tuples valid at some time as of
that time, and a historical database always views tuples valid at some
moment as of now, a temporal DBMS makes it possible to view tuples valid
at some moment seen as of some other moment, completely capturing the
history of retroactive/postactive changes."

A :class:`TemporalRelation` is implemented as the paper conceptualizes it:
**a sequence of historical states**.  Each committed transaction takes the
current historical state, applies the same valid-time operations a
historical database understands (:func:`~repro.core.historical.
apply_historical_operation`), and records the difference — rows that
disappeared get their transaction time closed at the commit instant, rows
that appeared open at it.  Hence temporal relations are append-only in
transaction time, and ``rollback(t)`` reconstructs exactly the historical
state any moment ``t`` saw.

The stored form is the four-timestamp table of Figure 8:
``(data ‖ valid from, valid to ‖ transaction start, transaction end)``.

Physically, a :class:`TemporalRelation` is *partitioned* along the
transaction-time axis: rows whose transaction period has closed belong to
the immutable past and live in an append-only log shared structurally
between successive versions, while the open rows (transaction end = ∞) —
exactly the current historical state — live in a map keyed by
``(data, valid)``, with an index by schema-key value beside it.  The unit
that flows through a commit is the **row delta**: the valid-time
operation reports the rows it removes and adds among the rows its match
can touch (:func:`~repro.core.historical.historical_delta`), the
partition closes the former and opens the latter, the constraint check
re-examines only the keys the delta touched, and the indexes are patched
from the two log slices that record it (:mod:`repro.core.lineage`).  A
commit therefore costs O(Δ) — the rows under the keys it touches — plus
two C-speed dict copies, not O(current state) and never O(all rows ever
written).  The value semantics (``rows``, ``rollback``, ``current``,
equality) are unchanged; :func:`naive_advance` keeps the original
whole-relation diff as the executable specification the delta path is
property-tested against.
"""

from __future__ import annotations

import itertools
from typing import (Any, Collection, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Set, Tuple as PyTuple)

from repro.core.base import Database, InstantLike
from repro.core.historical import (HistoricalRelation, HistoricalRow,
                                   apply_historical_operation, check_commit,
                                   historical_delta)
from repro.core.lineage import extend_log, withdraw
from repro.core.taxonomy import DatabaseKind
from repro.errors import ConstraintViolation, UnknownRelationError
from repro.obs import runtime as _obs
from repro.relational.constraints import Constraint
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant, POS_INF, instant as _coerce
from repro.time.period import Period
from repro.txn.transaction import Operation, Transaction


class BitemporalRow(NamedTuple):
    """One fact with its valid period and its transaction-time period."""

    data: Tuple
    valid: Period
    tt: Period

    def visible_at(self, as_of: Instant) -> bool:
        """Was this row part of the historical state as of *as_of*?"""
        return self.tt.contains(as_of)


#: The current-state key: a fact plus its valid period.  At most one open
#: row per key exists in any store the database maintains.
_OpenKey = PyTuple[Tuple, Period]


#: The by-key index: schema-key value -> the open rows under it.
_KeyIndex = Dict[PyTuple[Any, ...], PyTuple[BitemporalRow, ...]]


class TemporalRelation:
    """A bitemporal relation (Figure 8): an immutable value object.

    Internally partitioned into an append-only *closed* log (rows whose
    transaction time has ended) and an *open* map keyed by
    ``(data, valid)`` (the current historical state).  Successive
    versions produced by :meth:`TemporalDatabase._advance` share the
    closed log structurally, so a commit never copies the past; they
    also share an *opened* log of every row that ever entered the open
    map, so the difference between two versions is two list slices
    (:mod:`repro.core.lineage`).
    """

    __slots__ = ("_schema", "_closed_log", "_closed_len", "_opened_log",
                 "_opened_len", "_open", "_by_key", "_open_extra", "_lineage",
                 "_rows_cache", "_current_cache", "_times_cache")

    def __init__(self, schema: Schema,
                 rows: Iterable[BitemporalRow] = ()) -> None:
        closed: List[BitemporalRow] = []
        open_map: Dict[_OpenKey, BitemporalRow] = {}
        extra: List[BitemporalRow] = []
        for row in rows:
            if row.tt.end.is_pos_inf:
                key = (row.data, row.valid)
                if key in open_map:
                    extra.append(row)  # derived values may repeat a row
                else:
                    open_map[key] = row
            else:
                closed.append(row)
        self._init_parts(schema, closed, [], open_map, None, extra, object())

    def _init_parts(self, schema: Schema, closed_log: List[BitemporalRow],
                    opened_log: List[BitemporalRow],
                    open_map: Dict[_OpenKey, BitemporalRow],
                    by_key: Optional[_KeyIndex],
                    extra: List[BitemporalRow], lineage: object) -> None:
        self._schema = schema
        # Versions descending from the same original value share a lineage
        # token and both logs; a version sees a prefix of each.
        self._closed_log = closed_log
        self._closed_len = len(closed_log)
        self._opened_log = opened_log
        self._opened_len = len(opened_log)
        self._open = open_map
        self._by_key = by_key  # built on first use, see _key_index
        self._open_extra = extra
        self._lineage = lineage
        self._rows_cache: Optional[PyTuple[BitemporalRow, ...]] = None
        self._current_cache: Optional[HistoricalRelation] = None
        self._times_cache: Optional[List[Instant]] = None

    @classmethod
    def _from_parts(cls, schema: Schema, closed_log: List[BitemporalRow],
                    opened_log: List[BitemporalRow],
                    open_map: Dict[_OpenKey, BitemporalRow],
                    by_key: Optional[_KeyIndex],
                    lineage: object) -> "TemporalRelation":
        """Internal constructor for :meth:`TemporalDatabase._advance`."""
        value = cls.__new__(cls)
        value._init_parts(schema, closed_log, opened_log, open_map, by_key,
                          [], lineage)
        return value

    # -- the open partition, by key ---------------------------------------------

    def _key_index(self) -> Optional[_KeyIndex]:
        """The open rows by schema-key value; ``None`` without a key.

        Built once per lineage (the first commit after a load or a
        recovery); every later version gets its predecessor's outer dict
        copied at C speed with only the touched keys' entries rebuilt.
        """
        if self._by_key is None and self._schema.key:
            index: Dict[PyTuple[Any, ...], List[BitemporalRow]] = {}
            for row in self._open.values():
                index.setdefault(row.data.key(), []).append(row)
            self._by_key = {key: tuple(rows) for key, rows in index.items()}
        return self._by_key

    def _key_index_after(self, gone: Iterable[BitemporalRow],
                         opened: Iterable[BitemporalRow]
                         ) -> Optional[_KeyIndex]:
        """The successor's key index: a C-speed copy of the outer dict
        with the entries of the keys that lost (*gone*, rows of this
        version's open map) or gained rows rebuilt."""
        index = self._key_index()
        if index is None:
            return None
        index = dict(index)
        for row in gone:
            key = row.data.key()
            rest = tuple(other for other in index[key] if other is not row)
            if rest:
                index[key] = rest
            else:
                del index[key]
        for row in opened:
            key = row.data.key()
            index[key] = index.get(key, ()) + (row,)
        return index

    def _candidates(self, op: Operation) -> Collection[BitemporalRow]:
        """The open rows *op*'s ``match`` can touch.

        A match binding every key attribute (a keyed update, or the
        full-row match TQuel's ``replace`` expands to) is answered by one
        lookup; a key-less or partial-key match scans the open map.
        """
        if op.action == "insert":
            return ()
        index = self._key_index()
        if index is not None:
            match = op.arguments["match"]
            try:
                return index.get(
                    tuple(match[name] for name in self._schema.key), ())
            except (KeyError, TypeError):
                pass  # a partial key, or a value no stored key can equal
        return self._open.values()

    def _under_keys(self, keys: Iterable[PyTuple[Any, ...]]
                    ) -> Iterator[BitemporalRow]:
        """The open rows whose schema-key value is one of *keys*."""
        index = self._key_index()
        return itertools.chain.from_iterable(
            index.get(key, ()) for key in keys)

    def open_rows(self) -> Iterator[BitemporalRow]:
        """The rows of the current historical state (transaction end = ∞)."""
        return itertools.chain(self._open.values(), self._open_extra)

    # -- accessors ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The explicit (non-temporal) schema."""
        return self._schema

    @property
    def rows(self) -> PyTuple[BitemporalRow, ...]:
        """Every bitemporal row, past and current."""
        if self._rows_cache is None:
            self._rows_cache = tuple(self._iter_rows())
        return self._rows_cache

    def _iter_rows(self) -> Iterator[BitemporalRow]:
        return itertools.chain(
            itertools.islice(self._closed_log, self._closed_len),
            self._open.values(), self._open_extra)

    def __len__(self) -> int:
        return self._closed_len + len(self._open) + len(self._open_extra)

    def __iter__(self):
        return self._iter_rows()

    # -- the two time axes ------------------------------------------------------

    def rollback(self, as_of: InstantLike) -> HistoricalRelation:
        """The historical state as of a transaction time (§4.4's rollback)."""
        when = _coerce(as_of)
        return HistoricalRelation(
            self._schema,
            (HistoricalRow(row.data, row.valid)
             for row in self._iter_rows() if row.visible_at(when)))

    def current(self) -> HistoricalRelation:
        """The most recent historical state (transaction end = ∞).

        The state is exactly the open partition — duplicate-free by
        construction, so nothing is re-hashed unless a derived value
        repeats a row.  Memoized (the value is immutable, so the memo is
        per relation version).  A commit never calls this.
        """
        if self._current_cache is None:
            rows = (HistoricalRow(row.data, row.valid)
                    for row in self.open_rows())
            self._current_cache = (
                HistoricalRelation(self._schema, rows) if self._open_extra
                else HistoricalRelation._of_distinct(self._schema,
                                                     tuple(rows)))
        return self._current_cache

    def visible_during(self, period: Period) -> "TemporalRelation":
        """The rows belonging to any historical state during the period.

        Backs TQuel's ``as of t1 through t2`` on temporal databases; the
        result keeps both time axes (it is itself a temporal relation).
        """
        return TemporalRelation(
            self._schema,
            (row for row in self._iter_rows() if row.tt.overlaps(period)))

    def timeslice(self, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None) -> Relation:
        """Facts valid at one instant, seen as of another (a bitemporal point)."""
        state = self.current() if as_of is None else self.rollback(as_of)
        return state.timeslice(valid_at)

    def commit_times(self) -> List[Instant]:
        """Every transaction time at which this relation changed, ascending."""
        if self._times_cache is None:
            times = {row.tt.start for row in self._iter_rows()}
            times.update(row.tt.end for row in self._iter_rows()
                         if row.tt.end.is_finite)
            self._times_cache = sorted(times)
        return list(self._times_cache)

    def historical_states(self) -> List[PyTuple[Instant, HistoricalRelation]]:
        """The full sequence of historical states (Figure 7's cube)."""
        return [(when, self.rollback(when)) for when in self.commit_times()]

    def select(self, predicate) -> "TemporalRelation":
        """Rows whose data satisfies the predicate (both times untouched)."""
        from repro.relational.expression import Expression
        if isinstance(predicate, Expression):
            test = lambda row: bool(predicate.evaluate(row))
        else:
            test = predicate
        return TemporalRelation(
            self._schema, (row for row in self._iter_rows() if test(row.data)))

    def storage_cells(self) -> int:
        """Stored cells: rows × (attributes + 4 timestamps).  For benches."""
        return len(self) * (len(self._schema) + 4)

    def pretty(self, title: Optional[str] = None, event: bool = False) -> str:
        """Render like Figure 8 (or Figure 9's event style)."""
        from repro.tquel.printer import render_temporal  # local: avoid cycle
        return render_temporal(self, title, event=event)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalRelation):
            return NotImplemented
        return (self._schema.names == other._schema.names
                and frozenset(self.rows) == frozenset(other.rows))

    def __hash__(self) -> int:
        return hash((self._schema.names, frozenset(self.rows)))

    def __repr__(self) -> str:
        return (f"TemporalRelation({', '.join(self._schema.names)}; "
                f"{len(self)} rows)")


# ---------------------------------------------------------------------------
# The database kind
# ---------------------------------------------------------------------------

_Store = Dict[str, TemporalRelation]


class TemporalDatabase(Database):
    """The temporal database: transaction time *and* valid time.

    The update API is the historical database's (facts with valid-time
    arguments); the difference is that every change is also recorded on
    the transaction-time axis, so nothing is ever physically forgotten.
    """

    kind = DatabaseKind.TEMPORAL

    def __init__(self, clock=None, index: bool = True) -> None:
        super().__init__(clock, index=index)
        self._store: _Store = {}

    # -- DML API (same shape as HistoricalDatabase) --------------------------------------

    def insert(self, name: str, values: Mapping[str, Any],
               valid_from: Optional[InstantLike] = None,
               valid_to: Optional[InstantLike] = None,
               valid_at: Optional[InstantLike] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Record a fact with its valid time (transaction time is assigned)."""
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
        """Remove matching facts' validity within the period — logically.

        The current historical state loses the validity; the previous
        belief remains on the transaction-time axis ("errors ... cannot be
        forgotten").
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
        """Change matching facts' attributes within the period — logically."""
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
                "inserting into a temporal relation requires valid_from "
                "(the instant the fact began to hold)"
            )
        arguments: Dict[str, Any] = {}
        if valid_from is not None:
            arguments["valid_from"] = _coerce(valid_from)
        if valid_to is not None:
            arguments["valid_to"] = _coerce(valid_to)
        return arguments

    # -- queries --------------------------------------------------------------------------

    def temporal(self, name: str) -> TemporalRelation:
        """The full bitemporal relation (Figure 8)."""
        self._require_defined(name)
        return self._store[name]

    def history(self, name: str) -> HistoricalRelation:
        """The current historical state (what a historical DB would hold)."""
        return self.temporal(name).current()

    def rollback(self, name: str, as_of: InstantLike) -> HistoricalRelation:
        """The historical state as of a past transaction time."""
        self.require_rollback("rollback")
        cache = self.index_cache
        if cache is not None:
            self._require_defined(name)
            return cache.bitemporal(name).rollback(as_of)
        return self.temporal(name).rollback(as_of)

    def rollback_range(self, name: str, from_: InstantLike,
                       through: InstantLike) -> TemporalRelation:
        """Rows of every historical state over the inclusive tt range."""
        self.require_rollback("rollback")
        period = Period.from_inclusive(_coerce(from_), _coerce(through))
        cache = self.index_cache
        if cache is not None:
            self._require_defined(name)
            return TemporalRelation(self._store[name].schema,
                                    cache.bitemporal(name).visible_during(period))
        return self.temporal(name).visible_during(period)

    def visible(self, name: str, as_of: InstantLike) -> List[BitemporalRow]:
        """The bitemporal rows visible as of a transaction time.

        The TQuel evaluator's relation access: with the index cache on,
        this is a stab (O(log n + k)) instead of a scan of every row ever
        written.
        """
        self._require_defined(name)
        cache = self.index_cache
        if cache is not None:
            return cache.bitemporal(name).visible(as_of)
        when = _coerce(as_of)
        return [row for row in self._store[name]
                if row.visible_at(when)]

    def snapshot(self, name: str) -> Relation:
        """Facts valid now, as of now."""
        cache = self.index_cache
        if cache is not None:
            self._require_defined(name)
            return cache.historical(name).timeslice(self.now())
        return self.history(name).timeslice(self.now())

    def timeslice(self, name: str, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None) -> Relation:
        """Facts valid at an instant, optionally seen as of a past moment."""
        self.require_historical("timeslice")
        cache = self.index_cache
        if cache is not None:
            self._require_defined(name)
            if as_of is None:
                return cache.historical(name).timeslice(valid_at)
            return cache.bitemporal(name).timeslice(valid_at, as_of)
        return self.temporal(name).timeslice(valid_at, as_of)

    # -- applier hooks ----------------------------------------------------------------------

    def _stage(self) -> _Store:
        return dict(self._store)

    def _install(self, staged: _Store) -> None:
        now = self._manager.clock.last
        for name, relation in staged.items():
            # Only relations this batch actually replaced need re-checking:
            # an untouched store is the very same (immutable) value that
            # passed its checks when it was installed, and no declared
            # constraint tightens as `now` advances.
            installed = self._store.get(name)
            if name in self._schemas and relation is not installed:
                check_commit(installed, relation, self._constraints[name],
                             now)
        self._store = staged

    def _create_store(self, staged: _Store, name: str, schema: Schema) -> None:
        staged[name] = TemporalRelation(schema)

    def _drop_store(self, staged: _Store, name: str) -> None:
        staged.pop(name, None)

    def _apply_dml(self, staged: _Store, op: Operation,
                   commit_time: Instant) -> None:
        if op.relation not in staged:
            raise UnknownRelationError(f"no relation {op.relation!r}")
        staged[op.relation] = self._advance(staged[op.relation], op, commit_time)

    @staticmethod
    def _advance(relation: TemporalRelation, op: Operation,
                 commit_time: Instant) -> TemporalRelation:
        """Apply a valid-time operation and record the row delta.

        The operation's delta is computed over the rows its match can
        touch only; the removed rows are closed at *commit_time* (or
        withdrawn without trace, if this very transaction created them),
        the added rows open at it, and both are appended to the logs the
        next version shares with this one.  Cost is O(Δ) — the rows under
        the touched key — plus C-speed copies of the open map and the key
        index; a key-less or partial-key match scans the open map.
        Semantically identical to :func:`naive_advance` (property-tested),
        which also handles the one case the partition cannot: a derived
        value holding duplicate open rows.
        """
        metrics = _obs.current().metrics
        if relation._open_extra:
            metrics.counter("commit.fallback_naive").inc()
            return naive_advance(relation, op, commit_time)
        candidates = relation._candidates(op)
        removed, added = historical_delta(relation.schema, op, candidates,
                                          relation._open)
        metrics.counter("commit.rows_examined").inc(len(candidates))
        if not removed and not added:
            return relation
        open_map = dict(relation._open)
        gone = [open_map.pop(row) for row in removed]
        # A row created and superseded within one transaction was never
        # part of a committed state: withdrawn, not closed.
        withdrawn = [row for row in gone if row.tt.start == commit_time]
        closed = [row._replace(tt=Period(row.tt.start, commit_time))
                  for row in gone if row.tt.start != commit_time]
        from_now_on = Period(commit_time, POS_INF)
        opened = [BitemporalRow(new.data, new.valid, from_now_on)
                  for new in added]
        open_map.update(zip(added, opened))
        by_key = relation._key_index_after(gone, opened)
        closed_log = extend_log(relation._closed_log, relation._closed_len,
                                closed)
        opened_log = extend_log(relation._opened_log, relation._opened_len,
                                opened)
        if withdrawn:
            withdraw(opened_log, withdrawn, commit_time)
        metrics.counter("commit.rows_closed").inc(len(closed))
        metrics.counter("commit.rows_opened").inc(len(opened))
        return TemporalRelation._from_parts(relation.schema, closed_log,
                                            opened_log, open_map, by_key,
                                            relation._lineage)


def naive_advance(relation: TemporalRelation, op: Operation,
                  commit_time: Instant) -> TemporalRelation:
    """The whole-relation advance: the executable specification.

    Materializes the full old and new historical states, walks every row
    ever written, and rebuilds the relation — O(n) per commit.  Kept as
    the reference the incremental :meth:`TemporalDatabase._advance` is
    property-tested against, and as the fallback for non-canonical values
    (duplicate open rows in a derived relation).
    """
    old_state = relation.current()
    new_state = apply_historical_operation(old_state, op)
    old_rows: Set[HistoricalRow] = set(old_state.rows)
    new_rows: Set[HistoricalRow] = set(new_state.rows)

    result: List[BitemporalRow] = []
    for row in relation.rows:
        if not row.tt.end.is_pos_inf:
            result.append(row)  # already part of the immutable past
            continue
        if HistoricalRow(row.data, row.valid) in new_rows:
            result.append(row)  # survives this transaction
            continue
        if row.tt.start == commit_time:
            continue  # created and superseded within one transaction
        result.append(BitemporalRow(row.data, row.valid,
                                    Period(row.tt.start, commit_time)))
    for hist_row in new_state.rows:
        if hist_row not in old_rows:
            result.append(BitemporalRow(hist_row.data, hist_row.valid,
                                        Period(commit_time, POS_INF)))
    return TemporalRelation(relation.schema, result)
