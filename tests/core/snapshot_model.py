"""The reference model of a rollback relation: Figure 3 by definition.

A static database that records a snapshot of every relation after each
of its commits — the sequence of states §4.2 describes, built by the
static kind alone, never by the transaction-time stores under test.
Tests hold a rollback database's ``rollback`` and ``states()`` to it.

The model keeps one state per *commit*, a commit that left a relation
as it was (a duplicate insert, a delete that matched nothing, a delete
and a reinsert of one tuple) included.  Figure 4's stamps cannot record
such a commit, so a stamped store's ``states()`` holds a state at
exactly the commits that changed the relation:
:meth:`SnapshotModel.changes` — :meth:`SnapshotModel.check_view`.
"""

from typing import Dict, List, Tuple as PyTuple

from repro.core import StaticDatabase
from repro.relational import Relation
from repro.time import Instant
from repro.time.instant import instant as _coerce

State = PyTuple[Instant, Relation]


class SnapshotModel(StaticDatabase):
    """A :class:`StaticDatabase` snapshotted after every commit."""

    def __init__(self, clock=None) -> None:
        super().__init__(clock)
        self.snapshots: List[PyTuple[Instant, Dict[str, Relation]]] = []
        self.manager.on_commit = self._record

    def _record(self, record) -> None:
        self.snapshots.append((record.commit_time, {
            name: self.snapshot(name) for name in self.relation_names()}))

    def states(self, name: str) -> List[State]:
        """``(commit time, state of name)`` after every commit, oldest first."""
        return [(when, relations[name]) for when, relations in self.snapshots
                if name in relations]

    def changes(self, name: str) -> List[State]:
        """:meth:`states` but the commits that left *name* as it was."""
        kept: List[State] = []
        previous = Relation.empty(self.schema(name))
        for when, state in self.states(name):
            if state != previous:
                kept.append((when, state))
            previous = state
        return kept

    def check_view(self, states: List[State], name: str) -> None:
        """*states*, a stamped store's ``states()`` for *name*, holds the
        model's state at each of its times, and its times are exactly
        those of the changes."""
        times = [when for when, _ in states]
        assert times == sorted(set(times))
        for when, state in states:
            assert state == self.state_at(name, when), when
        assert [when for when, _ in self.changes(name)] == times

    def state_at(self, name: str, as_of) -> Relation:
        """The newest state of *name* at or before *as_of* (Figure 3's
        vertical slice; the empty relation before the first)."""
        when = _coerce(as_of)
        state = Relation.empty(self.schema(name))
        for commit, current in self.states(name):
            if commit <= when:
                state = current
        return state
