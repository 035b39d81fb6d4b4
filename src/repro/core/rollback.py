"""Static rollback databases (§4.2 of the paper).

A static rollback database "stores all past states, indexed by time, of
the static database as it evolves" — it incorporates **transaction time**
and supports the **rollback** operation: a vertical slice of the cube in
Figure 3 yielding the static relation as of some past moment.

The paper gives the sequence of states (Figure 3) as the conceptual
model and calls storing it "impractical, due to excessive duplication";
each tuple is stored once, stamped with the start and end of its
transaction time (Figure 4, :class:`RollbackRelation`).  The sequence of
states is a view of those stamps
(:meth:`~repro.core.transaction_time.TransactionTimeStore.states`), and
:meth:`RollbackRelation.cube_cells` counts what storing it would cost —
a number ``bench_storage_duplication.py`` prints beside the stamped
table's.

Transaction time is append-only: "once a transaction has completed, the
static relations in the static rollback relation may not be altered".
There is *no* API that edits a past state; updates (every kind's API,
:class:`~repro.core.base.Database`) apply to the most recent state only,
and errors in past states "can sometimes be overridden (if they are in
the current state) but they cannot be forgotten".
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Optional

from repro.core.base import Database
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import TransactionTimeStore
from repro.relational.relation import Relation
from repro.relational.tuple import Tuple
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

    def cube_cells(self) -> int:
        """The cells Figure 3's cube of :meth:`states` would store:
        Σ|stateᵢ| × attributes.  For benches."""
        return sum(len(state) for _, state in self.states()) * len(
            self._schema)

    def pretty(self, title: Optional[str] = None) -> str:
        """Render like Figure 4: data columns ‖ transaction (start, end)."""
        from repro.tquel.printer import render_rollback  # local: avoid cycle
        return render_rollback(self, title)


class RollbackDatabase(Database):
    """The static rollback database: transaction time, append-only; every
    superseded state stays retrievable, each relation stored as a
    :class:`RollbackRelation`."""

    kind = DatabaseKind.STATIC_ROLLBACK
