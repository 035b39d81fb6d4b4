"""The whole-state commit path: the executable specification of the one
store's delta commit.

Each function rebuilds or walks the whole current state for one
operation — O(state) per commit, which is why the database does not run
them.  The differential suites replay a database's log through them and
hold every installed state, row order and commit verdict to their
answers.

- :func:`apply_static_operation` / :func:`apply_historical_operation`:
  one insert/delete/replace applied to the whole state value; what an
  operation produces takes the place of the first row it removes, so a
  replaced row keeps its place in the printed table.  The static one is
  whole-relation set semantics written here, sharing no code with the
  one delta every kind commits through;
- :func:`check_state`: a kind's declared constraints (and its key, plain
  or sequenced) on the whole state;
- :func:`naive_advance`: a transaction-time store's whole-relation diff
  to the state from a commit on.
"""

import math

from repro.core.historical import (HistoricalRelation,
                                   check_historical_constraints,
                                   historical_delta)
from repro.core.transaction_time import _closed
from repro.relational.constraints import KeyConstraint, check_all
from repro.relational.relation import Relation
from repro.relational.tuple import Tuple
from repro.time.instant import POS_INF
from repro.time.period import Period


def _splice(rows, removed, added):
    """*rows* with *removed* gone and *added* in the place of the first
    removed row (appended when nothing was removed)."""
    if not removed:
        return rows + tuple(added)
    gone = set(removed)
    at = next(i for i, row in enumerate(rows) if row in gone)
    return (rows[:at] + tuple(added)
            + tuple(row for row in rows[at:] if row not in gone))


def apply_static_operation(relation, op):
    """One insert/delete/replace applied to a static relation value: the
    set of tuples after it, each produced tuple where the first tuple it
    replaced was."""
    rows = relation.tuples
    arguments = op.arguments
    if op.action == "insert":
        row = Tuple(relation.schema, arguments["values"])
        removed, added = [], [row]
    else:
        match = arguments["match"].items()
        removed = [row for row in rows
                   if all(row[name] == value for name, value in match)]
        added = [row.replace(**arguments["updates"]) for row in removed
                 ] if op.action == "replace" else []
    kept, present = set(added), set(rows)
    removed = [row for row in removed if row not in kept]
    added = [row for row in dict.fromkeys(added) if row not in present]
    if not removed and not added:
        return relation
    return Relation(relation.schema, _splice(rows, removed, added))


def apply_historical_operation(relation, op):
    """One insert/delete/replace applied to a historical relation value."""
    rows = relation.rows
    removed, added = historical_delta(relation.schema, op, rows, set(rows))
    if not removed and not added:
        return relation
    return HistoricalRelation(relation.schema, _splice(rows, removed, added))


def check_state(state, constraints, now=None):
    """Enforce *constraints* on a whole state: a :class:`Relation` with
    its schema key as a plain key, or a :class:`HistoricalRelation` with
    it as a sequenced key (and the temporal rules as of *now*)."""
    if isinstance(state, HistoricalRelation):
        check_historical_constraints(state, constraints, now)
        return
    declared = list(constraints)
    if state.schema.key:
        declared.append(KeyConstraint(state.schema.key))
    check_all(state, declared)


def naive_advance(store, new_state, commit_time):
    """The whole-relation advance: the executable specification.

    Records *new_state* (the elements of the state from *commit_time* on)
    by walking every row ever written and rebuilding the store — O(n) per
    commit.  Kept as the reference ``TransactionTimeStore.advance`` is
    property-tested against.
    """
    element = store._element
    state = dict.fromkeys(new_state)
    carried = set()
    rows = []
    from_now_on = Period(commit_time, POS_INF)
    reopened = {}
    for row in store.rows:
        if row.tt.hi != math.inf:
            if row.tt.end == commit_time and element(row) in state:
                # closed by this very transaction, and back: its row again
                reopened[element(row)] = row._replace(
                    tt=Period(row.tt.start, POS_INF))
            else:
                rows.append(row)  # already part of the immutable past
        elif element(row) in state:
            rows.append(row)  # survives this transaction
            carried.add(element(row))
        elif row.tt != from_now_on:
            rows.append(_closed(row, commit_time))
        # else: opened and superseded within one transaction
    rows.extend(reopened[new] if new in reopened
                else store._stamp(new, from_now_on)
                for new in state if new not in carried)
    return type(store)(store.schema, rows)
