"""Version lineages: how the successive values of one store share a past.

Every committed operation derives a new immutable relation value from
the previous one.  Values descending from the same original carry the
same *lineage* token and share two append-only logs: the rows that have
*left* the current state (for the transaction-time partitions, in their
closed form — these are rows of the relation) and the rows that have
*entered* it.  A version is a pair of log lengths, so the difference
between any two versions of a lineage is two list slices
(:func:`version_delta`), which the index patches consume.

Every :class:`~repro.core.transaction_time.StateStore` speaks this
protocol (``_lineage``, ``_closed_log`` / ``_closed_len``, ``_opened_log``
/ ``_opened_len``); the transaction-time and historical stores fill the
logs.  A value built from bare rows has a lineage of its own and is
related to nothing.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.time.period import Period


def extend_log(log: List[Any], seen: int, rows: Iterable[Any]) -> List[Any]:
    """Append *rows* for a successor of the version that sees *seen* entries.

    The log is shared by reference, so a sibling version — a batch that
    failed its constraint check, a ``rehearse`` — may already have written
    past *seen*.  The installed version's view of the log must survive
    that: the successor then diverges onto a private copy of the prefix.
    """
    if len(log) != seen:
        log = log[:seen]
    log.extend(rows)
    return log


def withdraw(opened_log: List[Any], rows: Sequence[Any],
             opened: Period) -> None:
    """Take back rows opened, then superseded, within one transaction.

    Such a row never belonged to a committed state, so it leaves no trace
    on either log.  Everything this transaction opened (stamped
    *opened*) sits at the tail of *opened_log* (commit times strictly
    increase), past every version installed before it.
    """
    start = len(opened_log)
    while start and opened_log[start - 1].tt == opened:
        start -= 1
    gone = set(rows)
    opened_log[start:] = [row for row in opened_log[start:]
                          if row not in gone]


def version_delta(old: Any, new: Any
                  ) -> Optional[Tuple[List[Any], List[Any]]]:
    """``(left, entered)``: the rows that left and entered the current
    state from version *old* to its descendant *new*, as two log slices.

    A row may appear in both (it entered, then left, in between).
    ``None`` when the two values are unrelated — different lineages (a
    drop/redefine, a deserialized overwrite, a derived value, a plain
    value with no lineage) — and the caller falls back to looking at the
    whole of *new*.
    """
    lineage = getattr(old, "_lineage", None)
    if (lineage is None or lineage is not getattr(new, "_lineage", None)
            or new._closed_len < old._closed_len
            or new._opened_len < old._opened_len):
        return None
    return (new._closed_log[old._closed_len:new._closed_len],
            new._opened_log[old._opened_len:new._opened_len])
