"""Migration between database kinds: moving up (and down) the taxonomy.

The paper ends by arguing that "future database management systems should
support all three times".  Real systems get there by *migrating*: a shop
with a static database starts keeping transaction time, a historical
database is upgraded to temporal.  This module provides that path:

:func:`migrate(database, target_class, clock=None)` builds a new database
of the target kind carrying over schemas, declared constraints,
event-relation flags, and as much content as the target can hold:

==================  =====================================================
upgrade             information carried
==================  =====================================================
static → rollback   the current snapshot becomes the first stored state
static → historical the snapshot becomes facts valid ``[migration, ∞)``
static → temporal   both of the above
rollback → temporal each past state replayed, preserving the original
                    commit instants (rollbacks keep working!); each
                    state's tuples become facts valid from their own
                    commit instant (valid time tracking transaction
                    time, the best a snapshot history can assert)
historical → temporal  the current history becomes the first historical
                    state
==================  =====================================================

Downgrades (any kind → static, temporal → historical, …) keep what the
target can represent — the current snapshot / current history — and
**discard the rest**; they raise unless ``allow_loss=True``, so nobody
drops an audit trail by accident.
"""

from __future__ import annotations

from typing import Type

from repro.core.base import Database
from repro.errors import TemporalSupportError
from repro.time.clock import SimulatedClock


def migrate(source: Database, target_class: Type[Database],
            clock=None, allow_loss: bool = False) -> Database:
    """Build a database of *target_class* from *source* (see module doc).

    ``clock`` defaults to a simulated clock resuming just after the
    source's last commit, so the migrated database's transaction times
    continue where the source's stopped.  Lossy migrations (dropping an
    axis the source has) require ``allow_loss=True``.
    """
    kind = target_class.kind
    lossy = (source.supports_rollback and not kind.supports_rollback
             or source.supports_historical_queries
             and not kind.supports_historical_queries)
    if lossy and not allow_loss:
        raise TemporalSupportError(
            f"migrating a {source.kind} database to {kind} "
            f"discards a time axis; pass allow_loss=True to proceed"
        )

    # A past kept without valid time is replayed into a target with both.
    replaying = (source.supports_rollback
                 and not source.supports_historical_queries
                 and kind.supports_rollback
                 and kind.supports_historical_queries)
    last = source.manager.clock.last
    if clock is None:
        if replaying:
            # The replay drives the clock through the source's original
            # commit instants, so it must start before the first of them.
            first = next(iter(source.log), None)
            clock = SimulatedClock((first.commit_time if first is not None
                                    else source.now()) - 1)
        else:
            resume_at = (last + 1) if last is not None else source.now()
            clock = SimulatedClock(resume_at)
    target = target_class(clock=clock)

    if replaying:
        _replay_rollback_history(source, target)
        return target

    # Generic path: one migration commit carrying the current content.
    for name in source.relation_names():
        target.define(name, source.schema(name),
                      constraints=source.constraints(name),
                      event=(target.supports_historical_queries
                             and source.is_event_relation(name)))
    for name in source.relation_names():
        _copy_current(source, target, name)
    return target


def _copy_current(source: Database, target: Database, name: str) -> None:
    """With valid time on both sides, the current history, validity
    preserved; else the snapshot, as facts valid from the migration on
    where the target keeps valid time (without it, facts hold always)."""
    since = target.now() if target.supports_historical_queries else None
    with target.begin() as txn:
        if (source.supports_historical_queries
                and target.supports_historical_queries):
            for row in source.history(name).rows:
                _insert_fact(target, name, dict(row.data), row.valid, txn)
        else:
            for row in source.snapshot(name):
                target.insert(name, dict(row), valid_from=since, txn=txn)


def _insert_fact(target: Database, name: str, values, valid, txn) -> None:
    if target.is_event_relation(name):
        target.insert(name, values, valid_at=valid.start, txn=txn)
    else:
        target.insert(name, values, valid_from=valid.start,
                      valid_to=valid.end, txn=txn)


def _replay_rollback_history(source: Database, target: Database) -> None:
    """Rollback → temporal: replay every state at its original commit.

    The target's clock is driven through the source's commit instants so
    ``rollback(t)`` on the migrated database reproduces the source's
    ``rollback(t)`` (as a valid-timeslice at ``t``); each state's tuples
    are asserted valid from their commit instant — the strongest claim a
    snapshot history supports.
    """
    clock = target.manager.clock.source
    if not isinstance(clock, SimulatedClock):
        raise TemporalSupportError(
            "replaying rollback history needs the target on a simulated "
            "clock (the default); pass clock=None"
        )

    # Chronological interleaving of DDL and per-relation state changes.
    events = []
    for record in source.log:
        for op in record.operations:
            if op.action in ("define", "drop"):
                events.append((record.commit_time, op.action, op.relation,
                               op.arguments))
    for name in source.relation_names():
        for when, state in source.store(name).states():
            events.append((when, "state", name, state))
    events.sort(key=lambda event: (event[0], event[1] != "define"))

    previous = {}
    for when, action, name, payload in events:
        if clock.current() < when:
            clock.set(when)
        if action == "define":
            target.define(name, payload["schema"],
                          constraints=tuple(payload["constraints"]))
            previous[name] = frozenset()
            continue
        if action == "drop":
            target.drop(name)
            previous.pop(name, None)
            continue
        if name not in previous:
            continue  # state of a relation dropped later (already gone)
        current = frozenset(payload.tuples)
        removed = previous[name] - current
        added = current - previous[name]
        if removed or added:
            with target.begin() as txn:
                for row in removed:
                    # End (don't erase) the fact's validity: it really was
                    # current until this commit.
                    target.delete(name, dict(row), valid_from=when, txn=txn)
                for row in added:
                    target.insert(name, dict(row), valid_from=when, txn=txn)
        previous[name] = current
