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
historical_delta`), and records the difference — rows that disappeared
get their transaction time closed at the commit instant, rows that
appeared open at it.  Hence temporal relations are append-only in
transaction time, and ``rollback(t)`` reconstructs exactly the historical
state any moment ``t`` saw.

The stored form is the four-timestamp table of Figure 8:
``(data ‖ valid from, valid to ‖ transaction start, transaction end)``.

Transaction time itself — the closed-log / open-map partition, the O(Δ)
``advance`` and its whole-relation oracle — is not written here: a
:class:`TemporalRelation` is a
:class:`~repro.core.transaction_time.TransactionTimeStore` whose state
element is a fact with its valid period, exactly as a
:class:`~repro.core.rollback.RollbackRelation` is one whose element is a
bare tuple.  The commit path is every kind's
(:meth:`~repro.core.base.Database._apply_dml`): the valid-time operation
reports the rows it removes and adds among the rows its match can touch,
the store closes the former and opens the latter, the constraint check
re-examines only the keys the delta touched, and the transaction-time
index is patched with the rows the commit closed.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, NamedTuple, Optional, Tuple as PyTuple

from repro.core.base import InstantLike, Read
from repro.core.historical import (HistoricalRelation, HistoricalRow,
                                   ValidTimeDatabase)
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import TransactionTimeStore, index_access
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant, instant as _coerce
from repro.time.period import Period


class BitemporalRow(NamedTuple):
    """One fact with its valid period and its transaction-time period."""

    data: Tuple
    valid: Period
    tt: Period


class TemporalRelation(TransactionTimeStore):
    """A bitemporal relation (Figure 8): an immutable value object.

    A :class:`~repro.core.transaction_time.TransactionTimeStore` whose
    state element is ``(data, valid)``: ``rollback(t)`` is the historical
    state as of *t*, and at most one open row per fact-and-period exists
    in any store the database maintains.
    """

    __slots__ = ()

    _element = operator.itemgetter(0, 1)

    @staticmethod
    def _stamp(element: PyTuple[Tuple, Period], tt: Period) -> BitemporalRow:
        return BitemporalRow(element[0], element[1], tt)

    def state_of(self, rows: Iterable[BitemporalRow]) -> HistoricalRelation:
        """The historical relation holding the facts of *rows*."""
        return HistoricalRelation(
            self._schema, (HistoricalRow(row.data, row.valid) for row in rows))

    def state_in_force(self, rows: Iterable[BitemporalRow]
                       ) -> HistoricalRelation:
        """The historical state of distinct *rows*, no fact hashed."""
        return HistoricalRelation._of_distinct(
            self._schema,
            tuple([HistoricalRow(row.data, row.valid) for row in rows]))

    def range_of(self, rows: Iterable[BitemporalRow]) -> "TemporalRelation":
        """``as of … through`` keeps both time axes: a temporal relation."""
        return TemporalRelation(self._schema, rows)

    #: A bitemporal row is a TQuel read's candidate ``(data, valid, tt)``.
    as_candidates = staticmethod(lambda rows: rows)

    # -- the two time axes ------------------------------------------------------

    def timeslice(self, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None) -> Relation:
        """Facts valid at one instant, seen as of another (a bitemporal point)."""
        state = self.current() if as_of is None else self.rollback(as_of)
        return state.timeslice(valid_at)

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


# ---------------------------------------------------------------------------
# The database kind
# ---------------------------------------------------------------------------

class TemporalDatabase(ValidTimeDatabase):
    """The temporal database: transaction time *and* valid time.

    The update API is the historical database's (facts with valid-time
    arguments); the difference is that every change is also recorded on
    the transaction-time axis, so nothing is ever physically forgotten.
    """

    kind = DatabaseKind.TEMPORAL

    # -- queries --------------------------------------------------------------------------

    def temporal(self, name: str) -> TemporalRelation:
        """The full bitemporal relation (Figure 8)."""
        return self.store(name)

    def rollback_range(self, name: str, from_: InstantLike,
                       through: InstantLike) -> TemporalRelation:
        """Rows of every historical state over the inclusive tt range."""
        return self.store(name).range_of(self._indexed(name).overlapping(
            Period.from_inclusive(_coerce(from_), _coerce(through))))

    def access(self, as_of: Optional[Instant] = None,
               through: Optional[Instant] = None) -> str:
        return index_access("bitemporal index", through)

    def read(self, name: str, now: Instant, as_of: Optional[Instant] = None,
             through: Optional[Instant] = None, key: Any = None,
             indexed: bool = True) -> Optional[Read]:
        """Both times: the store's read, the current state a stab at now."""
        return self.store(name).read(
            lambda: self.index_cache.transaction_time(name),
            self.access(as_of, through), now, as_of, through, key, indexed)

    # -- applier hooks ----------------------------------------------------------------------

    def _create_store(self, staged: Dict[str, TemporalRelation], name: str,
                      schema: Schema) -> None:
        staged[name] = TemporalRelation(schema)
