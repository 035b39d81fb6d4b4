"""Vacuuming: deliberately forgetting transaction history.

The paper is emphatic that transaction time is append-only — "errors can
sometimes be overridden ... but they cannot be forgotten".  Real systems
built on this taxonomy (Postgres's original time-travel, SQL:2011 system
versioning) nevertheless need a *controlled* escape hatch: reclaiming
storage for states older than some retention cutoff.  This module
implements that extension.

Vacuuming is explicitly **not** an update: it removes information that was
only visible to rollbacks earlier than the cutoff, and it refuses to run
with a cutoff in the future (which would amputate the current state).
After ``vacuum(relation, cutoff)``:

- ``rollback(t)`` for ``t >= cutoff`` is unchanged;
- ``rollback(t)`` for ``t < cutoff`` sees the null relation — that
  history has been discarded, and the store honestly reports knowing
  nothing about it.

A rollback relation and a temporal relation are both stamped stores
(Figure 4, Figure 8), so one function, :func:`vacuum_store`, serves
both.
"""

from __future__ import annotations

from repro.core.transaction_time import TransactionTimeStore
from repro.errors import AppendOnlyViolation
from repro.time.instant import Instant, POS_INF, instant as _coerce
from repro.time.period import Period


def _check_cutoff(cutoff: Instant, newest: Instant) -> None:
    if not cutoff.is_finite:
        raise AppendOnlyViolation("vacuum cutoff must be a finite instant")
    if newest.is_finite and cutoff > newest:
        raise AppendOnlyViolation(
            f"vacuum cutoff {cutoff} lies after the newest commit {newest}; "
            f"vacuuming may only discard the past, never the present"
        )


def vacuum_store(relation: TransactionTimeStore,
                 cutoff) -> TransactionTimeStore:
    """Drop transaction history before *cutoff* from an interval store
    (a rollback relation or a temporal relation).

    Rows that ended before the cutoff vanish; rows that started before it
    but were still in the database at the cutoff have their start clamped
    to the cutoff.  Valid time is untouched — vacuuming forgets what the
    database *used to believe*, never what is (currently believed to be)
    true.
    """
    when = _coerce(cutoff)
    _check_cutoff(when, max(relation.commit_times(), default=when))
    kept = Period(when, POS_INF)
    return type(relation)(relation.schema, (
        row._replace(tt=tt) for row in relation.rows
        if (tt := row.tt.intersect(kept)) is not None))
