"""Temporal databases (§4.4 of the paper): both transaction and valid time.

"While a static rollback database views tuples valid at some time as of
that time, and a historical database always views tuples valid at some
moment as of now, a temporal DBMS makes it possible to view tuples valid
at some moment seen as of some other moment, completely capturing the
history of retroactive/postactive changes."

A :class:`TemporalRelation` is implemented as the paper conceptualizes it:
**a sequence of historical states**.  Each committed transaction takes the
current historical state, applies the valid-time operations of the one
update API (:func:`~repro.core.historical.historical_delta`), and records
the difference — rows that disappeared get their transaction time closed
at the commit instant, rows that appeared open at it.  Hence temporal relations are append-only in
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
from typing import Iterable, NamedTuple, Optional, Tuple as PyTuple

from repro.core.base import Database, InstantLike
from repro.core.historical import HistoricalRelation, HistoricalRow
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import TransactionTimeStore
from repro.relational.relation import Predicate, Relation, as_callable
from repro.relational.tuple import Tuple
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

    def select(self, predicate: Predicate) -> "TemporalRelation":
        """Rows whose data satisfies the predicate (both times untouched)."""
        test = as_callable(predicate)
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

class TemporalDatabase(Database):
    """The temporal database: transaction time *and* valid time — every
    change is also recorded on the transaction-time axis, so nothing is
    ever physically forgotten."""

    kind = DatabaseKind.TEMPORAL
