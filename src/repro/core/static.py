"""Static databases (§4.1 of the paper).

A static database "models the real world, as it changes dynamically, by a
snapshot at a particular point in time".  Updates (insertion, deletion,
replacement) take effect at commit and *destroy* the previous state: "past
states of the database, and those of the real world, are discarded and
forgotten completely" — its :class:`StaticStore` keeps no row a commit
removed.

Consequently a static database supports neither rollback (no transaction
time is kept) nor historical queries (no valid time is kept) — asking for
either raises the corresponding taxonomy error.

The update API is every kind's (:class:`~repro.core.base.Database`): a
static fact is a fact valid over all time, so the valid-time arguments
are refused and an update replaces whole facts.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.core.base import Database
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import StateStore, itself
from repro.relational.relation import Relation
from repro.relational.tuple import Tuple


class StaticStore(StateStore):
    """The current state alone (Figure 2): each data tuple is its own
    element and its own row."""

    __slots__ = ()

    _element = _data = staticmethod(itself)

    def state_of(self, rows: Iterable[Tuple]) -> Relation:
        """The static relation holding *rows*."""
        return Relation(self._schema, rows)

    def as_candidates(self, rows: Iterable[Tuple]) -> List[Any]:
        return [(row, None, None) for row in rows]


class StaticDatabase(Database):
    """The conventional snapshot database: one current state, no history."""

    kind = DatabaseKind.STATIC
