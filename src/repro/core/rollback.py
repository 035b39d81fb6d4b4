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
import operator
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple as PyTuple)

from repro.core.base import InstantLike, Read
from repro.core.static import StaticStateDatabase, StaticStore
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import TransactionTimeStore, index_access
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant, POS_INF, instant as _coerce
from repro.time.period import Period


class TransactionTimeRow(NamedTuple):
    """One tuple plus its transaction-time period ``[start, end)``.

    ``end`` is ``∞`` while the tuple is in the current state — the paper's
    ``∞`` entries in Figure 4.
    """

    data: Tuple
    tt: Period


class RollbackRelation(TransactionTimeStore):
    """The interval-stamped representation (Figure 4): immutable value object.

    A :class:`~repro.core.transaction_time.TransactionTimeStore` whose
    state element is the data tuple: ``rollback(t)`` is the static
    relation as of *t* (the vertical slice of Figure 3's cube).
    """

    __slots__ = ()

    _element = operator.itemgetter(0)
    _stamp = TransactionTimeRow

    def state_of(self, rows: Iterable[TransactionTimeRow]) -> Relation:
        """The static relation holding the tuples of *rows*."""
        return Relation(self._schema, map(self._element, rows))

    #: ``as of … through`` is the union of the rollback states over the
    #: range: every tuple that was in some state, as a static relation.
    range_of = state_of

    def as_candidates(self, rows):
        """Each tuple of *rows* once (a range may hold it twice)."""
        return [(data, None, None)
                for data in dict.fromkeys(map(self._element, rows))]

    def storage_cells(self) -> int:
        """Stored cells: tuples × (attributes + 2 timestamps).  For benches."""
        return len(self) * (len(self._schema) + 2)

    def pretty(self, title: Optional[str] = None) -> str:
        """Render like Figure 4: data columns ‖ transaction (start, end)."""
        from repro.tquel.printer import render_rollback  # local: avoid cycle
        return render_rollback(self, title)


class StateSequence(StaticStore):
    """The conceptual cube (Figure 3): one full static relation per
    transaction — the static store, plus a copy of its current state
    appended by every commit (the duplication the paper calls
    impractical, kept by definition); its pairs outlive commits."""

    __slots__ = ("_pairs",)

    def __init__(self, schema: Schema,
                 states: Iterable[PyTuple[Instant, Relation]] = ()) -> None:
        pairs = [(time, state) for time, state in states]
        super().__init__(schema, pairs[-1][1] if pairs else ())
        self._pairs: List[PyTuple[Instant, Relation]] = pairs

    @property
    def states(self) -> PyTuple[PyTuple[Instant, Relation], ...]:
        """Every ``(commit time, static relation)`` pair, oldest first."""
        return tuple(self._pairs)

    def rollback(self, as_of: InstantLike) -> Relation:
        """The newest state with commit time ≤ *as_of* (empty before the first)."""
        when = _coerce(as_of)
        position = bisect.bisect_right(self._pairs, when,
                                       key=operator.itemgetter(0))
        if position == 0:
            return Relation.empty(self._schema)
        return self._pairs[position - 1][1]

    def advance(self, removed, added, commit_time: Instant, touched=None,
                mine: bool = False) -> "StateSequence":
        """The static store's advance, then the cube with its current
        state as the state from *commit_time* on (one state per
        transaction: a later operation of the same transaction replaces
        the state its predecessor recorded)."""
        successor = super().advance(removed, added, commit_time, touched,
                                    mine)
        if successor is self and not mine:
            successor = self._copy()  # (the states change regardless)
        kept = bisect.bisect_left(self._pairs, commit_time,
                                  key=operator.itemgetter(0))
        successor._pairs = self._pairs[:kept] + [(commit_time,
                                                  successor.current())]
        return successor

    def visible_during(self, period: Period) -> Relation:
        """Every tuple present in some state during the period.

        A state stamped at commit ``c_i`` is in force over
        ``[c_i, c_{i+1})`` (the last one to ∞); the union of states whose
        in-force interval overlaps *period* is returned.  Equivalent to
        :meth:`RollbackRelation.visible_during
        <repro.core.transaction_time.TransactionTimeStore.visible_during>`
        (property-tested).
        """
        union = Relation.empty(self._schema)
        for index, (commit, state) in enumerate(self._pairs):
            next_commit = (self._pairs[index + 1][0]
                           if index + 1 < len(self._pairs) else POS_INF)
            in_force = Period(commit, next_commit)
            if in_force.overlaps(period):
                union = union.union(state)
        return union

    def read(self, index: Any, access: str, now: Instant,
             as_of: Optional[Instant], through: Optional[Instant], key: Any,
             indexed: bool) -> Optional[Read]:
        """:meth:`TransactionTimeStore.read <repro.core.transaction_time.
        TransactionTimeStore.read>` of the cube: a bisect of its states is
        its own index, so no tree answers, and there is no key probe."""
        if key is not None:
            return None
        state = (self.rollback(as_of) if through is None else
                 self.visible_during(Period.from_inclusive(as_of, through)))
        return Read(access, False, [(row, None, None) for row in state])

    def storage_cells(self) -> int:
        """Stored cells across all duplicated states.  For benches."""
        return sum(len(state) * len(self._schema) for _, state in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.states == other.states

    def __hash__(self) -> int:
        return hash(self.states)

    def __repr__(self) -> str:
        return (f"StateSequence({', '.join(self._schema.names)}; "
                f"{len(self._pairs)} states)")


#: Representation selector for :class:`RollbackDatabase`.
INTERVAL = "interval"
STATES = "states"


class RollbackDatabase(StaticStateDatabase):
    """The static rollback database: transaction time, append-only.

    The update API is the static database's (updates hit the newest
    state); every superseded state stays retrievable.  ``representation``
    selects between the practical interval-stamped store
    (:data:`INTERVAL`, the default) and the duplicating cube
    (:data:`STATES`).  The two answer every query identically.
    """

    kind = DatabaseKind.STATIC_ROLLBACK

    def __init__(self, clock=None, representation: str = INTERVAL) -> None:
        if representation not in (INTERVAL, STATES):
            raise ValueError(
                f"representation must be {INTERVAL!r} or {STATES!r}"
            )
        super().__init__(clock)
        self._representation = representation

    @property
    def representation(self) -> str:
        """Which physical representation this database uses."""
        return self._representation

    # -- queries ------------------------------------------------------------------------

    def _indexed(self, name: str):
        """The store of *name*, behind its transaction-time tree (the
        cube is its own index: a bisect)."""
        store = self.store(name)
        return (store if isinstance(store, StateSequence)
                else self.index_cache.transaction_time(name))

    def access(self, as_of: Optional[Instant] = None,
               through: Optional[Instant] = None) -> str:
        return (self._scan_access if as_of is None
                else index_access("rollback index", through))

    def read(self, name: str, now: Instant, as_of: Optional[Instant] = None,
             through: Optional[Instant] = None, key: Any = None,
             indexed: bool = True) -> Optional[Read]:
        """Transaction time alone: the store's read, but the current state
        is the snapshot (scanned) unless a key probe answers."""
        if as_of is None and key is None:
            return super().read(name, now)
        return self.store(name).read(
            lambda: self.index_cache.transaction_time(name),
            self.access(as_of, through), now, as_of, through, key, indexed)

    def rollback_range(self, name: str, from_: InstantLike,
                       through: InstantLike) -> Relation:
        """Tuples in any state over the inclusive transaction-time range.

        TQuel's ``as of t1 through t2``: the union of every rollback state
        between the two instants.
        """
        self.require_rollback("rollback")
        period = Period.from_inclusive(_coerce(from_), _coerce(through))
        return self._indexed(name).visible_during(period)

    # -- applier hooks ----------------------------------------------------------------------

    def _create_store(self, staged: Dict[str, Any], name: str,
                      schema: Schema) -> None:
        staged[name] = (RollbackRelation(schema)
                        if self._representation == INTERVAL
                        else StateSequence(schema))
