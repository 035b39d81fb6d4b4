"""Static databases (§4.1 of the paper), and the static update API.

A static database "models the real world, as it changes dynamically, by a
snapshot at a particular point in time".  Updates (insertion, deletion,
replacement) take effect at commit and *destroy* the previous state: "past
states of the database, and those of the real world, are discarded and
forgotten completely".

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
from repro.errors import JournalError
from repro.obs import runtime as _obs
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


def apply_static_operation(relation: Relation, op: Operation) -> Relation:
    """Apply one insert/delete/replace to a static relation value.

    Pure function: :func:`static_delta` applied to the state (*relation*
    itself when nothing changed).  What a replace produces takes the
    place of the first tuple it removes, so a replaced tuple keeps its
    row in the printed table.
    """
    rows = relation.tuples
    removed, added = static_delta(relation.schema, op, rows, relation)
    _obs.current().metrics.counter("commit.rows_examined").inc(len(rows))
    if not removed and not added:
        return relation
    if removed:
        gone = set(removed)
        at = next(i for i, row in enumerate(rows) if row in gone)
        rows = (rows[:at] + tuple(added)
                + tuple(row for row in rows[at:] if row not in gone))
    else:
        rows = rows + tuple(added)
    return Relation(relation.schema, rows)


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

    def _check_state(self, name: str, relation: Relation) -> None:
        """Enforce the declared constraints and the schema key on a state
        (whole-state: the static kinds have no touched-keys check)."""
        _obs.current().metrics.counter("commit.rows_examined").inc(
            len(relation))
        declared = list(self._constraints[name])
        if self._schemas[name].key:
            declared.append(KeyConstraint(self._schemas[name].key))
        check_all(relation, declared)


class StaticDatabase(StaticStateDatabase):
    """The conventional snapshot database: one current state, no history."""

    kind = DatabaseKind.STATIC

    # Static snapshots have no temporal axis to index; the ``index`` knob
    # is accepted for API uniformity across the four kinds.

    def snapshot(self, name: str) -> Relation:
        """The current (and only) state of the relation."""
        return self.store(name)

    def _create_store(self, staged: Dict[str, Relation], name: str,
                      schema: Schema) -> None:
        staged[name] = Relation.empty(schema)

    def _check_store(self, name: str, installed: Optional[Relation],
                     staged: Relation) -> None:
        self._check_state(name, staged)

    def _apply_dml(self, staged: Dict[str, Relation], op: Operation,
                   commit_time: Instant) -> None:
        staged[op.relation] = apply_static_operation(
            self._staged_store(staged, op.relation), op)
