"""Static databases (§4.1 of the paper), and the static update API.

A static database "models the real world, as it changes dynamically, by a
snapshot at a particular point in time".  Updates (insertion, deletion,
replacement) take effect at commit and *destroy* the previous state: "past
states of the database, and those of the real world, are discarded and
forgotten completely" — its :class:`StaticStore` keeps no row a commit
removed.

Consequently a static database supports neither rollback (no transaction
time is kept) nor historical queries (no valid time is kept) — asking for
either raises the corresponding taxonomy error from the base class.

The update API and its semantics live in :class:`StaticStateDatabase` and
:func:`static_delta`, shared with the static *rollback* database
(:mod:`repro.core.rollback`): Figure 10's left column differs only in
whether the states an update supersedes are kept.
"""

from __future__ import annotations

from typing import (Any, Container, Dict, Iterable, List, Mapping, Optional,
                    Tuple as PyTuple)

from repro.core.base import Database
from repro.core.taxonomy import DatabaseKind
from repro.core.transaction_time import StateStore, itself
from repro.errors import JournalError
from repro.relational.constraints import KeyConstraint, check_all
from repro.relational.relation import Predicate, Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant
from repro.txn.transaction import Operation, Transaction


def static_delta(schema: Schema, op: Operation, candidates: Iterable[Tuple],
                 present: Container[Tuple],
                 ) -> PyTuple[List[Tuple], List[Tuple]]:
    """The tuples one insert/delete/replace removes from and adds to a state.

    The static counterpart of :func:`~repro.core.historical.
    historical_delta`: *candidates* are the tuples of the state the
    operation's ``match`` can touch — any superset will do, each is
    tested — and *present* answers whether a tuple is in the state.  A
    state is a set, so a produced tuple that is already there is not
    added, and a tuple produced again by another's replacement is not
    removed.
    """
    arguments = op.arguments
    if op.action == "insert":
        row = Tuple(schema, arguments["values"])
        return [], ([] if row in present else [row])
    if op.action not in ("delete", "replace"):
        raise JournalError(f"static stores do not understand {op.action!r}")
    match = arguments["match"]
    removed = [row for row in candidates if Database._matches(row, match)]
    if op.action == "delete":
        return removed, []
    updates = arguments["updates"]
    produced = dict.fromkeys(row.replace(**updates) for row in removed)
    return ([row for row in removed if row not in produced],
            [row for row in produced if row not in present])


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


class StaticStateDatabase(Database):
    """The update API of the kinds without valid time (Figure 10, left).

    Updates address the newest state only; whether the superseded states
    survive (on the transaction-time axis) is the concrete kind's store.
    """

    def insert(self, name: str, values: Mapping[str, Any],
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Insert one tuple (a no-op if an identical tuple exists: set semantics)."""
        checked = self._checked_values(name, values)
        return self._submit(Operation("insert", name, {"values": checked}), txn)

    def delete(self, name: str, match: Optional[Mapping[str, Any]] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Delete every tuple agreeing with *match* (all tuples if ``None``)."""
        checked = self._checked_match(name, match or {})
        return self._submit(Operation("delete", name, {"match": checked}), txn)

    def replace(self, name: str, match: Mapping[str, Any],
                updates: Mapping[str, Any],
                txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Replace attributes of every tuple agreeing with *match*."""
        checked_match = self._checked_match(name, match)
        checked_updates = self._checked_match(name, updates)
        return self._submit(
            Operation("replace", name,
                      {"match": checked_match, "updates": checked_updates}),
            txn)

    def delete_where(self, name: str, predicate: Predicate,
                     txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Delete by predicate.

        The predicate is resolved against the *current* snapshot into
        concrete full-tuple matches, so the journaled operations are plain
        values and replay exactly.  Without *txn* the match and the commit
        are one atomic unit (:meth:`~repro.core.base.Database.
        commit_unit`): no other writer can slip in between them.
        """
        def expand(batch: Transaction) -> None:
            for row in self.snapshot(name).select(predicate):
                self.delete(name, dict(row), txn=batch)

        if txn is None:
            return self.commit_unit(expand)
        expand(txn)
        return None

    def snapshot(self, name: str) -> Relation:
        """The current static state."""
        return self.store(name).current()

    def _delta(self, store: StateStore, op: Operation, candidates: Any
               ) -> PyTuple[List[Tuple], List[Tuple]]:
        return static_delta(store.schema, op, map(store._data, candidates),
                            store.open_elements)

    def _check_state(self, name: str, state: Relation) -> None:
        """Enforce the declared constraints and the schema key."""
        declared = list(self._constraints[name])
        if self._schemas[name].key:
            declared.append(KeyConstraint(self._schemas[name].key))
        check_all(state, declared)


class StaticDatabase(StaticStateDatabase):
    """The conventional snapshot database: one current state, no history."""

    kind = DatabaseKind.STATIC

    def _create_store(self, staged: Dict[str, StaticStore], name: str,
                      schema: Schema) -> None:
        staged[name] = StaticStore(schema)
