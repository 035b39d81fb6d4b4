"""Static rollback databases (§4.2 of the paper).

A static rollback database "stores all past states, indexed by time, of
the static database as it evolves" — it incorporates **transaction time**
and supports the **rollback** operation: a vertical slice of the cube in
Figure 3 yielding the static relation as of some past moment.

Two representations are implemented, exactly the two the paper discusses:

- :class:`StateSequence` — the conceptual cube of Figure 3: a literal
  sequence of complete static relations, one appended per transaction.
  The paper calls this "impractical, due to excessive duplication" — a
  claim the benchmark ``bench_storage_duplication.py`` quantifies.
- :class:`RollbackRelation` — the practical representation of Figure 4:
  each tuple carries the start and end of its transaction time, "the
  points in time when the tuple was in the database".

The two are observationally equivalent — ``rollback(t)`` agrees for every
``t`` — which the property-based test suite verifies over arbitrary
transaction sequences.

Transaction time is append-only: "once a transaction has completed, the
static relations in the static rollback relation may not be altered".
There is *no* API that edits a past state; updates apply to the most
recent state only, and errors in past states "can sometimes be overridden
(if they are in the current state) but they cannot be forgotten".
"""

from __future__ import annotations

import bisect
import itertools
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple as PyTuple)

from repro.core.base import Database, InstantLike
from repro.core.lineage import extend_log, withdraw
from repro.core.taxonomy import DatabaseKind
from repro.errors import JournalError, UnknownRelationError
from repro.obs import runtime as _obs
from repro.relational.constraints import KeyConstraint, check_all
from repro.relational.relation import Predicate, Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant, POS_INF, instant as _coerce
from repro.time.period import Period
from repro.txn.transaction import Operation, Transaction


class TransactionTimeRow(NamedTuple):
    """One tuple plus its transaction-time period ``[start, end)``.

    ``end`` is ``∞`` while the tuple is in the current state — the paper's
    ``∞`` entries in Figure 4.
    """

    data: Tuple
    tt: Period

    def visible_at(self, when: Instant) -> bool:
        """Was this tuple in the database state as of *when*?"""
        return self.tt.contains(when)


class RollbackRelation:
    """The interval-stamped representation (Figure 4): immutable value object.

    Like :class:`~repro.core.temporal.TemporalRelation`, the rows are
    partitioned along transaction time: closed rows live in an append-only
    segment shared structurally between successive versions; open rows
    (the current state) live in a map keyed by their data tuple.  A commit
    therefore costs O(current state + Δ), never O(history).
    """

    __slots__ = ("_schema", "_closed_log", "_closed_len", "_opened_log",
                 "_opened_len", "_open", "_open_extra", "_lineage",
                 "_rows_cache", "_current_cache")

    def __init__(self, schema: Schema,
                 rows: Iterable[TransactionTimeRow] = ()) -> None:
        closed: List[TransactionTimeRow] = []
        open_map: Dict[Tuple, TransactionTimeRow] = {}
        extra: List[TransactionTimeRow] = []
        for row in rows:
            if row.tt.end.is_pos_inf:
                if row.data in open_map:
                    extra.append(row)  # derived values may repeat a tuple
                else:
                    open_map[row.data] = row
            else:
                closed.append(row)
        self._init_parts(schema, closed, [], open_map, extra, object())

    def _init_parts(self, schema: Schema,
                    closed_log: List[TransactionTimeRow],
                    opened_log: List[TransactionTimeRow],
                    open_map: Dict[Tuple, TransactionTimeRow],
                    extra: List[TransactionTimeRow], lineage: object) -> None:
        self._schema = schema
        # Both logs are shared by the versions of a lineage
        # (repro.core.lineage); a version sees a prefix of each.
        self._closed_log = closed_log
        self._closed_len = len(closed_log)
        self._opened_log = opened_log
        self._opened_len = len(opened_log)
        self._open = open_map
        self._open_extra = extra
        self._lineage = lineage
        self._rows_cache: Optional[PyTuple[TransactionTimeRow, ...]] = None
        self._current_cache: Optional[Relation] = None

    @classmethod
    def _from_parts(cls, schema: Schema,
                    closed_log: List[TransactionTimeRow],
                    opened_log: List[TransactionTimeRow],
                    open_map: Dict[Tuple, TransactionTimeRow],
                    lineage: object) -> "RollbackRelation":
        """Internal constructor for :meth:`RollbackDatabase._advance`."""
        value = cls.__new__(cls)
        value._init_parts(schema, closed_log, opened_log, open_map, [],
                          lineage)
        return value

    @property
    def schema(self) -> Schema:
        """The explicit (non-temporal) schema."""
        return self._schema

    @property
    def rows(self) -> PyTuple[TransactionTimeRow, ...]:
        """Every timestamped row, current and past."""
        if self._rows_cache is None:
            self._rows_cache = tuple(self._iter_rows())
        return self._rows_cache

    def _iter_rows(self):
        return itertools.chain(
            itertools.islice(self._closed_log, self._closed_len),
            self._open.values(), self._open_extra)

    def rollback(self, as_of: InstantLike) -> Relation:
        """The static relation as of a transaction time (the vertical slice)."""
        when = _coerce(as_of)
        return Relation(self._schema,
                        (row.data for row in self._iter_rows()
                         if row.visible_at(when)))

    def current(self) -> Relation:
        """The most recent static state (rows whose transaction end is ∞).

        Exactly the open partition — O(current state), memoized per
        version.
        """
        if self._current_cache is None:
            self._current_cache = Relation(
                self._schema,
                (row.data for row in itertools.chain(self._open.values(),
                                                     self._open_extra)))
        return self._current_cache

    def visible_during(self, period: Period) -> Relation:
        """Every tuple that was in *some* state during the period.

        This backs TQuel's ``as of t1 through t2``: the union of the
        rollback states over the transaction-time range.
        """
        return Relation(self._schema,
                        (row.data for row in self._iter_rows()
                         if row.tt.overlaps(period)))

    def storage_cells(self) -> int:
        """Stored cells: tuples × (attributes + 2 timestamps).  For benches."""
        return len(self) * (len(self._schema) + 2)

    def pretty(self, title: Optional[str] = None) -> str:
        """Render like Figure 4: data columns ‖ transaction (start, end)."""
        from repro.tquel.printer import render_rollback  # local: avoid cycle
        return render_rollback(self, title)

    def __len__(self) -> int:
        return self._closed_len + len(self._open) + len(self._open_extra)

    def __repr__(self) -> str:
        return (f"RollbackRelation({', '.join(self._schema.names)}; "
                f"{len(self)} timestamped rows)")


class StateSequence:
    """The conceptual cube (Figure 3): one full static relation per transaction."""

    __slots__ = ("_schema", "_times", "_states")

    def __init__(self, schema: Schema,
                 states: Iterable[PyTuple[Instant, Relation]] = ()) -> None:
        self._schema = schema
        pairs = list(states)
        self._times: List[Instant] = [time for time, _ in pairs]
        self._states: List[Relation] = [state for _, state in pairs]

    @property
    def schema(self) -> Schema:
        """The explicit (non-temporal) schema."""
        return self._schema

    @property
    def states(self) -> PyTuple[PyTuple[Instant, Relation], ...]:
        """Every ``(commit time, static relation)`` pair, oldest first."""
        return tuple(zip(self._times, self._states))

    def rollback(self, as_of: InstantLike) -> Relation:
        """The newest state with commit time ≤ *as_of* (empty before the first)."""
        when = _coerce(as_of)
        position = bisect.bisect_right(self._times, when)
        if position == 0:
            return Relation.empty(self._schema)
        return self._states[position - 1]

    def current(self) -> Relation:
        """The most recent state."""
        if not self._states:
            return Relation.empty(self._schema)
        return self._states[-1]

    def visible_during(self, period: Period) -> Relation:
        """Every tuple present in some state during the period.

        A state stamped at commit ``c_i`` is in force over
        ``[c_i, c_{i+1})`` (the last one to ∞); the union of states whose
        in-force interval overlaps *period* is returned.  Equivalent to
        :meth:`RollbackRelation.visible_during` (property-tested).
        """
        union = Relation.empty(self._schema)
        for index, (commit, state) in enumerate(zip(self._times, self._states)):
            next_commit = (self._times[index + 1]
                           if index + 1 < len(self._times) else POS_INF)
            in_force = Period(commit, next_commit)
            if in_force.overlaps(period):
                union = union.union(state)
        return union

    def storage_cells(self) -> int:
        """Stored cells across all duplicated states.  For benches."""
        return sum(len(state) * len(self._schema) for state in self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (f"StateSequence({', '.join(self._schema.names)}; "
                f"{len(self._states)} states)")


#: Representation selector for :class:`RollbackDatabase`.
INTERVAL = "interval"
STATES = "states"

_Store = Dict[str, Any]  # name -> RollbackRelation | StateSequence


class RollbackDatabase(Database):
    """The static rollback database: transaction time, append-only.

    ``representation`` selects between the practical interval-stamped store
    (:data:`INTERVAL`, the default) and the duplicating cube
    (:data:`STATES`).  The two answer every query identically.
    """

    kind = DatabaseKind.STATIC_ROLLBACK

    def __init__(self, clock=None, representation: str = INTERVAL,
                 index: bool = True) -> None:
        if representation not in (INTERVAL, STATES):
            raise ValueError(
                f"representation must be {INTERVAL!r} or {STATES!r}"
            )
        super().__init__(clock, index=index)
        self._representation = representation
        self._store: _Store = {}

    @property
    def representation(self) -> str:
        """Which physical representation this database uses."""
        return self._representation

    # -- DML API (identical to the static database: updates hit the newest state) --

    def insert(self, name: str, values: Mapping[str, Any],
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Insert into the current state; the old state remains retrievable."""
        checked = self._checked_values(name, values)
        return self._submit(Operation("insert", name, {"values": checked}), txn)

    def delete(self, name: str, match: Optional[Mapping[str, Any]] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Delete from the current state (past states keep the tuples)."""
        checked = self._checked_match(name, match or {})
        return self._submit(Operation("delete", name, {"match": checked}), txn)

    def replace(self, name: str, match: Mapping[str, Any],
                updates: Mapping[str, Any],
                txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Replace in the current state (recorded as delete + insert in time)."""
        checked_match = self._checked_match(name, match)
        checked_updates = self._checked_match(name, updates)
        return self._submit(
            Operation("replace", name,
                      {"match": checked_match, "updates": checked_updates}),
            txn)

    def delete_where(self, name: str, predicate: Predicate,
                     txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Delete by predicate, resolved now against the current state."""
        matched = self.snapshot(name).select(predicate)
        if txn is not None:
            for row in matched:
                self.delete(name, dict(row), txn=txn)
            return None
        with self.begin() as batch:
            for row in matched:
                self.delete(name, dict(row), txn=batch)
        return batch.commit_time

    # -- queries ------------------------------------------------------------------------

    def snapshot(self, name: str) -> Relation:
        """The current static state."""
        self._require_defined(name)
        return self._store[name].current()

    def rollback(self, name: str, as_of: InstantLike) -> Relation:
        """The static relation as of a past transaction time.

        The result is "a pure static relation" (§4.2): it can be queried
        with the ordinary algebra but carries no temporal columns.
        """
        self.require_rollback("rollback")
        self._require_defined(name)
        cache = self.index_cache
        if cache is not None and isinstance(self._store[name],
                                            RollbackRelation):
            return cache.rollback(name).rollback(as_of)
        return self._store[name].rollback(as_of)

    def rollback_range(self, name: str, from_: InstantLike,
                       through: InstantLike) -> Relation:
        """Tuples in any state over the inclusive transaction-time range.

        TQuel's ``as of t1 through t2``: the union of every rollback state
        between the two instants.
        """
        self.require_rollback("rollback")
        self._require_defined(name)
        period = Period.from_inclusive(_coerce(from_), _coerce(through))
        cache = self.index_cache
        if cache is not None and isinstance(self._store[name],
                                            RollbackRelation):
            return cache.rollback(name).visible_during(period)
        return self._store[name].visible_during(period)

    def store(self, name: str):
        """The underlying representation object (for display and benches)."""
        self._require_defined(name)
        return self._store[name]

    # -- applier hooks ----------------------------------------------------------------------

    def _stage(self) -> Dict[str, Any]:
        # Stage as {name: (current Relation, base store)}; reassembled on install.
        return {"store": dict(self._store), "currents": {}, "touched": set()}

    def _current_of(self, staged: Dict[str, Any], name: str) -> Relation:
        if name not in staged["currents"]:
            staged["currents"][name] = staged["store"][name].current()
        return staged["currents"][name]

    def _set_current(self, staged: Dict[str, Any], name: str,
                     relation: Relation) -> None:
        staged["currents"][name] = relation
        staged["touched"].add(name)

    def _install(self, staged: Dict[str, Any]) -> None:
        # Constraint-check every touched new state first (abort-safe), then
        # append the new states to the history.
        for name in staged["touched"]:
            if name in self._schemas:
                self._check_state(name, staged["currents"][name])
        self._store = staged["store"]

    def _check_state(self, name: str, relation: Relation) -> None:
        declared = list(self._constraints[name])
        if self._schemas[name].key:
            declared.append(KeyConstraint(self._schemas[name].key))
        check_all(relation, declared)

    def _create_store(self, staged: Dict[str, Any], name: str,
                      schema: Schema) -> None:
        if self._representation == INTERVAL:
            staged["store"][name] = RollbackRelation(schema)
        else:
            staged["store"][name] = StateSequence(schema)

    def _drop_store(self, staged: Dict[str, Any], name: str) -> None:
        staged["store"].pop(name, None)
        staged["currents"].pop(name, None)
        staged["touched"].discard(name)

    def _apply_dml(self, staged: Dict[str, Any], op: Operation,
                   commit_time: Instant) -> None:
        if op.relation not in staged["store"]:
            raise UnknownRelationError(f"no relation {op.relation!r}")
        current = self._current_of(staged, op.relation)
        schema = current.schema
        if op.action == "insert":
            new = current.with_tuple(Tuple(schema, op.arguments["values"]))
        elif op.action == "delete":
            match = op.arguments["match"]
            new = current.select(lambda row: not self._matches(row, match))
        elif op.action == "replace":
            match = op.arguments["match"]
            updates = op.arguments["updates"]
            new = Relation(schema, (
                row.replace(**updates) if self._matches(row, match) else row
                for row in current
            ))
        else:
            raise JournalError(
                f"rollback databases do not understand {op.action!r}"
            )
        self._set_current(staged, op.relation, new)
        # Fold the new current state into the staged store immediately so a
        # later op in the same transaction sees it; the commit time stamps
        # the whole batch.
        staged["store"][op.relation] = self._advance(
            staged["store"][op.relation], new, commit_time)

    def _advance(self, store, new_current: Relation, commit_time: Instant):
        """Record *new_current* as the state from *commit_time* on.

        Interval representation: close the open rows that vanished from
        the state, open rows for the tuples that appeared — O(current
        state + Δ) against the open partition, never re-reading the
        closed past (see :func:`naive_rollback_advance` for the original
        whole-relation walk, kept as the executable specification).
        """
        if isinstance(store, StateSequence):
            states = [pair for pair in store.states if pair[0] < commit_time]
            states.append((commit_time, new_current))
            return StateSequence(store.schema, states)
        metrics = _obs.current().metrics
        if store._open_extra:
            metrics.counter("commit.fallback_naive").inc()
            return naive_rollback_advance(store, new_current, commit_time)
        new_set = set(new_current.tuples)
        old_open = store._open
        new_open: Dict[Tuple, TransactionTimeRow] = {}
        closed: List[TransactionTimeRow] = []
        withdrawn: List[TransactionTimeRow] = []
        for data, row in old_open.items():
            if data in new_set:
                new_open[data] = row  # survives this transaction
            elif row.tt.start == commit_time:
                withdrawn.append(row)  # opened and removed within one txn
            else:
                closed.append(TransactionTimeRow(
                    data, Period(row.tt.start, commit_time)))
        opened = [TransactionTimeRow(data, Period(commit_time, POS_INF))
                  for data in new_current.tuples if data not in old_open]
        for row in opened:
            new_open[row.data] = row
        closed_log = extend_log(store._closed_log, store._closed_len, closed)
        opened_log = extend_log(store._opened_log, store._opened_len, opened)
        if withdrawn:
            withdraw(opened_log, withdrawn, commit_time)
        metrics.counter("commit.rows_closed").inc(len(closed))
        metrics.counter("commit.rows_opened").inc(len(opened))
        return RollbackRelation._from_parts(store.schema, closed_log,
                                            opened_log, new_open,
                                            store._lineage)


def naive_rollback_advance(store: RollbackRelation, new_current: Relation,
                           commit_time: Instant) -> RollbackRelation:
    """The original whole-relation advance: O(n) per commit.

    The reference the incremental :meth:`RollbackDatabase._advance` is
    property-tested against, and the fallback for non-canonical values
    (duplicate open tuples in a derived relation).
    """
    rows: List[TransactionTimeRow] = []
    new_set = set(new_current.tuples)
    carried = set()
    for row in store.rows:
        if not row.tt.end.is_pos_inf:
            rows.append(row)
            continue
        if row.data in new_set:
            rows.append(row)
            carried.add(row.data)
        else:
            if row.tt.start == commit_time:
                continue  # opened and removed within one transaction
            rows.append(TransactionTimeRow(
                row.data, Period(row.tt.start, commit_time)))
    for data in new_current.tuples:
        if data not in carried and not any(
                r.data == data and r.tt.end.is_pos_inf for r in rows):
            rows.append(TransactionTimeRow(data, Period(commit_time, POS_INF)))
    return RollbackRelation(store.schema, rows)
