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
  replaced row keeps its place in the printed table;
- :func:`check_state`: a kind's declared constraints (and its key, plain
  or sequenced) on the whole state.
"""

from repro.core.historical import (HistoricalRelation,
                                   check_historical_constraints,
                                   historical_delta)
from repro.core.static import static_delta
from repro.relational.constraints import KeyConstraint, check_all
from repro.relational.relation import Relation


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
    """One insert/delete/replace applied to a static relation value."""
    rows = relation.tuples
    removed, added = static_delta(relation.schema, op, rows, relation)
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
